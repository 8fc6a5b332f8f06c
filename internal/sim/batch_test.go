package sim

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dcluster/internal/geom"
	"dcluster/internal/sinr"
)

// lendPool lends fresh sessions of one engine, optionally wrapped, and
// counts the traffic.
type lendPool struct {
	f          sinr.Engine
	wrap       func(sinr.Engine) sinr.Engine
	gets, puts int
	returned   []sinr.Engine
}

func (p *lendPool) Get() sinr.Engine {
	p.gets++
	s := p.f.Session()
	if p.wrap != nil {
		s = p.wrap(s)
	}
	return s
}

func (p *lendPool) Put(s sinr.Engine) {
	p.puts++
	p.returned = append(p.returned, s)
}

// hookEngine records the stop hook installed on it.
type hookEngine struct {
	sinr.Engine
	stop func() error
}

func (h *hookEngine) SetStopCheck(fn func() error) {
	h.stop = fn
	h.Engine.(sinr.StopChecker).SetStopCheck(fn)
}

// panicEngine fails every Deliver.
type panicEngine struct{ sinr.Engine }

func (panicEngine) Deliver([]int, []int, []sinr.Reception) []sinr.Reception {
	panic("boom")
}

func withProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// batchField is a 240-node disk, dense enough that large transmitter sets
// interfere.
func batchField(t *testing.T) *sinr.Field {
	t.Helper()
	f, err := sinr.NewField(sinr.DefaultParams(), geom.UniformDisk(240, 5, 11))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// passRounds lays out a pass of random rounds as PassReceptions takes it:
// solos, small sets, sets above memoTxCap, and repeats of earlier rounds.
func passRounds(n int) (txs []int, ends []int32) {
	rng := rand.New(rand.NewPCG(7, 9))
	var rounds [][]int
	for k := 0; k < 60; k++ {
		var t []int
		switch {
		case k%10 == 9 && k > 0:
			t = rounds[rng.IntN(len(rounds))] // repeat
		case k%3 == 0:
			t = []int{rng.IntN(n)}
		default:
			size := 2 + rng.IntN(70)
			t = rng.Perm(n)[:size]
		}
		rounds = append(rounds, t)
		txs = append(txs, t...)
		ends = append(ends, int32(len(txs)))
	}
	return txs, ends
}

// deliverEach is the reference: every round on its own, on a fresh session.
func deliverEach(f sinr.Engine, txs []int, ends []int32, listeners []int) (recs []sinr.Reception, recEnds []int32) {
	s := f.Session()
	for k := range ends {
		recs = s.Deliver(roundTxs(txs, ends, int32(k)), listeners, recs)
		recEnds = append(recEnds, int32(len(recs)))
	}
	return recs, recEnds
}

func TestPassReceptionsMatchesDeliver(t *testing.T) {
	f := batchField(t)
	txs, ends := passRounds(f.N())
	var some []int
	for v := 0; v < f.N(); v += 3 {
		some = append(some, v)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, listeners := range [][]int{nil, some} {
			withProcs(t, procs)
			wantRecs, wantEnds := deliverEach(f, txs, ends, listeners)
			pool := &lendPool{f: f}
			e := MustEnv(f.Session(), nil, 0)
			e.SetControl(Control{Sessions: pool})
			lid := e.InternListeners(listeners)
			for pass := 0; pass < 2; pass++ { // live, then mostly memo hits
				recs, recEnds := e.PassReceptions(txs, ends, listeners, lid, nil, nil)
				if !slices.Equal(recs, wantRecs) || !slices.Equal(recEnds, wantEnds) {
					t.Fatalf("procs=%d listeners=%d pass %d: receptions differ from per-round Deliver", procs, len(listeners), pass)
				}
			}
			if want := procs - 1; pool.gets != want {
				t.Errorf("procs=%d: borrowed %d sessions, want %d", procs, pool.gets, want)
			}
			for k := range ends {
				rt := roundTxs(txs, ends, int32(k))
				if _, _, ok := e.memoLookup(rt, lid); ok != (len(rt) <= memoTxCap) {
					t.Errorf("round %d (%d txs): memo hit = %v after the pass", k, len(rt), ok)
				}
			}
			e.ReleaseSessions()
			if pool.puts != pool.gets {
				t.Errorf("procs=%d: returned %d of %d sessions", procs, pool.puts, pool.gets)
			}
		}
	}
}

func TestPassReceptionsWorkerPanic(t *testing.T) {
	withProcs(t, 2)
	f := batchField(t)
	txs, ends := passRounds(f.N())
	pool := &lendPool{f: f, wrap: func(s sinr.Engine) sinr.Engine { return panicEngine{s} }}
	e := MustEnv(f.Session(), nil, 0)
	e.SetControl(Control{Sessions: pool})
	var got any
	func() {
		defer func() { got = recover() }()
		e.PassReceptions(txs, ends, nil, 0, nil, nil)
	}()
	err, ok := got.(error)
	if !ok || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "compute") {
		t.Fatalf("recovered %v, want the worker's panic with its stack", got)
	}
	e.ReleaseSessions()
	if pool.gets != 1 || pool.puts != 0 {
		t.Errorf("borrowed %d, returned %d sessions; a panicked session must not go back", pool.gets, pool.puts)
	}
}

func TestPassReceptionsCanceled(t *testing.T) {
	withProcs(t, 2)
	f := batchField(t)
	txs, ends := passRounds(f.N())
	pool := &lendPool{f: f, wrap: func(s sinr.Engine) sinr.Engine { return &hookEngine{Engine: s} }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := MustEnv(f.Session(), nil, 0)
	e.SetControl(Control{Ctx: ctx, Sessions: pool})
	err := catchStop(func() { e.PassReceptions(txs, ends, nil, 0, nil, nil) })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if pool.gets != 1 || pool.returned != nil {
		t.Fatalf("borrowed %d sessions, returned %d before release", pool.gets, pool.puts)
	}
	e.ReleaseSessions()
	if pool.puts != 1 || pool.returned[0].(*hookEngine).stop != nil {
		t.Error("a canceled pass must return its session with the stop hook cleared")
	}
}

// TestPassBatchZeroAllocs: once its buffers are warm, a fanned-out pass —
// every round above memoTxCap, so every round is computed again — allocates
// nothing, goroutine hand-off included.
func TestPassBatchZeroAllocs(t *testing.T) {
	withProcs(t, 2)
	f := batchField(t)
	rng := rand.New(rand.NewPCG(3, 5))
	var txs []int
	var ends []int32
	for k := 0; k < 8; k++ {
		txs = append(txs, rng.Perm(f.N())[:memoTxCap+2]...)
		ends = append(ends, int32(len(txs)))
	}
	pool := &lendPool{f: f}
	e := MustEnv(f.Session(), nil, 0)
	e.SetControl(Control{Sessions: pool})
	var recs []sinr.Reception
	var recEnds []int32
	pass := func() { recs, recEnds = e.PassReceptions(txs, ends, nil, 0, recs[:0], recEnds[:0]) }
	pass()
	pass()
	if pool.gets != 1 {
		t.Fatalf("borrowed %d sessions: the pass did not fan out", pool.gets)
	}
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("warmed fanned-out pass allocates %.1f objects, want 0", avg)
	}
}

func TestMemoLookupCapture(t *testing.T) {
	e := controlEnv(t)
	recs := []sinr.Reception{{Receiver: 1, Sender: 0}}
	for _, txs := range [][]int{{0}, {0, 2}} {
		if _, _, ok := e.memoLookup(txs, 0); ok {
			t.Fatalf("%v: hit on an empty memo", txs)
		}
		_, key, _ := e.memoLookup(txs, 0)
		e.memoCapture(txs, 0, key, recs)
		got, _, ok := e.memoLookup(txs, 0)
		if !ok || !slices.Equal(got, recs) {
			t.Fatalf("%v: lookup after capture = %v, %v", txs, got, ok)
		}
		// A repeat capture keeps the first one.
		e.memoCapture(txs, 0, key, nil)
		if got, _, _ := e.memoLookup(txs, 0); !slices.Equal(got, recs) {
			t.Errorf("%v: repeat capture replaced the entry", txs)
		}
		if _, _, ok := e.memoLookup(txs, 1); ok {
			t.Errorf("%v: hit under another listener set", txs)
		}
	}
	// An empty outcome is a hit, not a miss.
	_, key, _ := e.memoLookup([]int{3}, 0)
	e.memoCapture([]int{3}, 0, key, nil)
	if got, _, ok := e.memoLookup([]int{3}, 0); !ok || len(got) != 0 {
		t.Errorf("captured empty solo round: lookup = %v, %v", got, ok)
	}
	big := make([]int, memoTxCap+1)
	_, key, _ = e.memoLookup(big, 0)
	e.memoCapture(big, 0, key, recs)
	if _, _, ok := e.memoLookup(big, 0); ok {
		t.Error("a round above memoTxCap was memoized")
	}
}
