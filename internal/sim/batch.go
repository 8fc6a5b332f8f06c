package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"dcluster/internal/sinr"
)

// Pass-level parallel reception. Selector schedules are non-adaptive: who
// transmits in each round of a pass is fixed before the pass starts, and in
// a pure execution reception is a function of (transmitters, listeners)
// alone. So the receptions of a pass's rounds do not depend on each other,
// and PassReceptions computes them all before the first round is played:
// memo hits first, then the misses, split over extra engine sessions when
// there are enough of them. The schedule layer then plays the rounds back
// in order through StepReplay, so round accounting, observers, the stop
// checks and message construction stay on the execution goroutine.

// fanOutMinWeight is the least physics for which PassReceptions splits a
// pass's memo misses across sessions, weighed as Σ|txs|² over the misses:
// the dense engine decides about |txs| candidate listeners per transmitter,
// each against every transmitter. On a 2-vCPU Xeon, clustering a 1024-node
// disk (Γ = 12) on the dense engine spends about 5 ns of Deliver per unit,
// so the cutoff is about 80 µs of work, far above the cost of handing a
// chunk to another goroutine. The passes above it there (117 of 267 live
// passes) carry 99.8% of the weight, while none of the 2000-node strip
// broadcast's 14k short live passes reaches it: there a chunk would cost
// more to hand off than to compute.
const fanOutMinWeight = 16384

// SessionPool lends extra engine sessions over the execution's engine (see
// sinr.Engine.Session) for pass-level parallel reception.
type SessionPool interface {
	Get() sinr.Engine
	Put(sinr.Engine)
}

// passBatch is the execution-scoped scratch of PassReceptions.
type passBatch struct {
	views  [][]sinr.Reception // computed receptions per round of the pass
	hits   [][]int32          // memoized receptions per round, as pairs
	miss   []int32            // first rounds of distinct memo misses, ascending
	keys   []uint64           // memo probe key per miss
	dups   [][2]int32         // (round, miss) for repeats of a miss in the pass
	seen   []int32            // open-addressed miss table over keys: miss+1
	chunks []recChunk         // contiguous runs of misses, one per session

	workers  []sinr.Engine // sessions borrowed from Control.Sessions
	poisoned []bool        // workers[i] panicked mid-Deliver: not returned
	wg       sync.WaitGroup
}

// recChunk is one session's share of a pass's misses: it computes the
// receptions of its rounds into out, round j's ending at ends[j].
type recChunk struct {
	eng       sinr.Engine
	stop      func() error
	txs       []int
	txEnds    []int32
	rounds    []int32
	listeners []int
	out       []sinr.Reception
	ends      []int32
	panicked  any // recovered panic, re-raised after the join
	wg        *sync.WaitGroup
}

// chunkQueue hands fanned-out chunks to worker goroutines. Each worker
// takes exactly one chunk and exits, and PassReceptions starts exactly as
// many workers as it sends chunks, so no worker outlives the pass; since
// any worker may take any chunk, concurrent executions can share it.
// Starting a worker with no arguments keeps the fan-out allocation-free.
var chunkQueue = make(chan *recChunk)

func chunkWorker() {
	c := <-chunkQueue
	defer c.wg.Done()
	c.run()
}

// run computes the chunk, recovering a panic into c.panicked. Controlled
// aborts keep their payload; any other panic is wrapped with the stack it
// happened on.
func (c *recChunk) run() {
	defer func() {
		if r := recover(); r != nil {
			if StopError(r) == nil && sinr.AbortError(r) == nil {
				r = workerPanic{val: r, stack: debug.Stack()}
			}
			c.panicked = r
		}
	}()
	c.compute()
}

// workerPanic carries a panic out of a chunk together with the stack it
// happened on, which the re-raise after the join would lose.
type workerPanic struct {
	val   any
	stack []byte
}

func (p workerPanic) Error() string {
	return fmt.Sprintf("%v [computing a pass's receptions]\n%s", p.val, p.stack)
}

// compute runs the chunk's Deliver calls, checking the stop hook between
// rounds as Step's round-boundary check would.
func (c *recChunk) compute() {
	c.out, c.ends = c.out[:0], c.ends[:0]
	for _, k := range c.rounds {
		if c.stop != nil {
			if err := c.stop(); err != nil {
				panic(stopExecution{err})
			}
		}
		c.out = c.eng.Deliver(roundTxs(c.txs, c.txEnds, k), c.listeners, c.out)
		c.ends = append(c.ends, int32(len(c.out)))
	}
}

// PassReceptions computes the receptions of one pass's rounds in a pure
// execution and appends them to recs in round order, with recEnds[k]
// ending round k's receptions. Round k's transmitters are txs[ends[k-1]:
// ends[k]] (from 0 for k = 0), each round non-empty; listeners restricts
// reception as in Step, and lid is its InternListeners id. Every round is
// looked up in the reception memo once, and hits are unpacked into recs.
// The misses are computed — a transmitter set repeated within the pass
// once — across up to GOMAXPROCS sessions when Control.Sessions is set and
// the misses weigh at least fanOutMinWeight, and captured into the memo in
// round order. The clock does not move: the caller plays the rounds back
// through StepReplay.
//
// A panic in any session — a mid-round abort, a stop-hook abort or a
// programming error — is re-raised on the calling goroutine after every
// session has finished.
func (e *Env) PassReceptions(txs []int, ends []int32, listeners []int, lid uint32, recs []sinr.Reception, recEnds []int32) ([]sinr.Reception, []int32) {
	if e.ctl.ImpureReception {
		panic("sim: PassReceptions in an execution with impure reception")
	}
	b := &e.batch
	b.views, b.hits, b.miss, b.keys, b.dups = b.views[:0], b.hits[:0], b.miss[:0], b.keys[:0], b.dups[:0]
	size := 16
	for size < 2*len(ends) {
		size *= 2
	}
	if cap(b.seen) < size {
		b.seen = make([]int32, size)
	}
	b.seen = b.seen[:size]
	clear(b.seen)
	mask := uint64(size - 1)
	weight := 0
	lo := int32(0)
	for k, hi := range ends {
		t := txs[lo:hi]
		r, key, ok := e.memoLookup(t, lid)
		b.views = append(b.views, nil)
		b.hits = append(b.hits, r)
		lo = hi
		if ok {
			continue
		}
		// A transmitter set repeated within the pass is computed once, as
		// the round-by-round memo would have replayed its repeats.
		i := key & mask
		for ; b.seen[i] != 0; i = (i + 1) & mask {
			j := b.seen[i] - 1
			if b.keys[j] == key && slices.Equal(t, roundTxs(txs, ends, b.miss[j])) {
				break
			}
		}
		if s := b.seen[i]; s != 0 {
			b.dups = append(b.dups, [2]int32{int32(k), s - 1})
			continue
		}
		b.miss = append(b.miss, int32(k))
		b.keys = append(b.keys, key)
		b.seen[i] = int32(len(b.miss))
		weight += len(t) * len(t)
	}
	e.computeMisses(txs, ends, listeners, weight)

	j := 0
	for ci := range b.chunks {
		c := &b.chunks[ci]
		rlo := int32(0)
		for _, rhi := range c.ends {
			b.views[b.miss[j]] = c.out[rlo:rhi]
			rlo = rhi
			j++
		}
	}
	for _, d := range b.dups {
		b.views[d[0]] = b.views[b.miss[d[1]]]
	}
	for j, k := range b.miss {
		e.memoCapture(roundTxs(txs, ends, k), lid, b.keys[j], b.views[k])
	}
	total := 0
	for k, r := range b.views {
		total += len(r) + len(b.hits[k])/2
	}
	recs = slices.Grow(recs, total)
	recEnds = slices.Grow(recEnds, len(ends))
	for k, r := range b.views {
		recs = appendPacked(append(recs, r...), b.hits[k])
		recEnds = append(recEnds, int32(len(recs)))
	}
	return recs, recEnds
}

// roundTxs returns round k's transmitters of a pass laid out as for
// PassReceptions.
func roundTxs(txs []int, ends []int32, k int32) []int {
	lo := int32(0)
	if k > 0 {
		lo = ends[k-1]
	}
	return txs[lo:ends[k]]
}

// computeMisses fills b.chunks with the receptions of the rounds in b.miss:
// one chunk on the execution's engine, or contiguous chunks balanced by
// weight over the engine and borrowed worker sessions.
func (e *Env) computeMisses(txs []int, ends []int32, listeners []int, weight int) {
	b := &e.batch
	w := 1
	if e.ctl.Sessions != nil && len(b.miss) >= 2 && weight >= fanOutMinWeight {
		w = min(runtime.GOMAXPROCS(0), len(b.miss))
	}
	b.chunks = slices.Grow(b.chunks[:0], w)[:w] // keeps earlier chunks' buffers
	for len(b.workers) < w-1 {
		s := e.ctl.Sessions.Get()
		if sc, ok := s.(sinr.StopChecker); ok {
			sc.SetStopCheck(e.stopHook)
		}
		b.workers = append(b.workers, s)
		b.poisoned = append(b.poisoned, false)
	}
	// Chunk i takes misses until the running weight reaches (i+1)/w of the
	// total, leaving at least one miss for each later chunk.
	start, acc := 0, 0
	for i := 0; i < w; i++ {
		end := start
		if i == w-1 {
			end = len(b.miss)
		} else {
			target := weight * (i + 1) / w
			for end < len(b.miss)-(w-1-i) && (end == start || acc < target) {
				n := len(roundTxs(txs, ends, b.miss[end]))
				acc += n * n
				end++
			}
		}
		c := &b.chunks[i]
		c.eng, c.stop = e.F, e.stopHook
		if i > 0 {
			c.eng = b.workers[i-1]
		}
		c.txs, c.txEnds, c.rounds, c.listeners = txs, ends, b.miss[start:end], listeners
		c.panicked, c.wg = nil, &b.wg
		start = end
	}
	if w == 1 {
		b.chunks[0].compute()
		return
	}
	b.wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go chunkWorker()
		chunkQueue <- &b.chunks[i]
	}
	b.chunks[0].run()
	b.wg.Wait()
	for i := range w {
		if p := b.chunks[i].panicked; p != nil {
			if _, bug := p.(workerPanic); bug && i > 0 {
				b.poisoned[i-1] = true
			}
			panic(p)
		}
	}
}

// ReleaseSessions returns the worker sessions PassReceptions borrowed from
// Control.Sessions, with their stop hooks cleared. A session whose Deliver
// panicked other than by a mid-round abort may hold inconsistent scratch,
// so it is dropped instead. Call it once the execution is over.
func (e *Env) ReleaseSessions() {
	b := &e.batch
	for i, s := range b.workers {
		if b.poisoned[i] {
			continue
		}
		if sc, ok := s.(sinr.StopChecker); ok {
			sc.SetStopCheck(nil)
		}
		e.ctl.Sessions.Put(s)
	}
	clear(b.workers)
	b.workers, b.poisoned = b.workers[:0], b.poisoned[:0]
}
