package comm

import (
	"slices"

	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// eventCacheBudget caps the total number of cached (node, round) schedule
// entries per EventLists (≈ 8 MB of int32s at the cap). Nodes beyond the
// budget are evaluated per pass instead of cached — correctness is
// unaffected, only the amortisation.
const eventCacheBudget = 2 << 20

// EventLists is the shareable half of the event-driven executor: the
// per-(id, cluster) scheduled-round lists of one selector family. Every
// schedule over the same selector — e.g. the proximity constructions of
// consecutive sparsification iterations — can share one EventLists, so a
// node's schedule is derived once per execution rather than once per
// construction. An EventLists belongs to one execution (selectors are
// stateless, but the cache is not goroutine-safe).
type EventLists struct {
	sel  selectors.PairSelector
	rows selectors.RowSelector // non-nil when sel offers prepared rows
	m    int

	lists   map[uint64][]int32 // (id, cluster) → ascending scheduled rounds
	entries int                // total cached entries, capped by eventCacheBudget

	missing []int32 // cache-miss sender positions (scratch)

	// Per-round prepare scratch, shared by the schedulers over this cache
	// (prepare never runs concurrently within one execution).
	counts []int32 // per-round transmitter counts, all zero between prepares
	offs   []int32 // per-round bucket ends after placement
}

// NewEventLists prepares a shared schedule-list cache for one selector.
func NewEventLists(sel selectors.PairSelector) *EventLists {
	el := &EventLists{sel: sel, m: sel.Len(), lists: map[uint64][]int32{}}
	el.rows, _ = sel.(selectors.RowSelector)
	return el
}

// Selector returns the selector this cache was built over. Consumers that
// accept a caller-provided cache use it to reject a cache/selector mismatch
// (cached round lists are meaningless for a different family).
func (el *EventLists) Selector() selectors.PairSelector { return el.sel }

// EventScheduler executes selector-schedule passes event-drivenly. Three
// layers of work-avoidance stack on top of each other, each preserving
// bit-identical results and byte-identical round accounting:
//
//  1. Per-node schedules. Each sender's scheduled round list is computed
//     once (m membership tests, batched so the per-round prepared Row is
//     shared) and cached in the EventLists; a pass merges the senders'
//     lists into per-round transmitter buckets in O(m + events). Rounds
//     with no scheduled sender never surface: the pass walks from event to
//     event and declares the gaps silent via Env.NextActive.
//
//  2. Prepared passes. Consecutive passes over an identical (senders, ids,
//     clusters) triple (the common shape: MIS exchanges, sweep rounds,
//     schedule replays over one active set) reuse the prepared buckets
//     outright. The triple is compared by content, so callers may pass
//     equal sequences in distinct or reused slices, and relabelled clusters
//     for the same senders correctly re-prepare.
//
//  3. Reception replay. Reception is a pure function of the transmitter and
//     listener sets, and a selector pass is fixed before it starts, so a
//     pass's receptions are computed before its first round is played —
//     by Env.PassReceptions: rounds of any size hit a content-keyed
//     reception memo that survives across passes with the same listeners
//     (schedule replays that alternate sender sets miss the capture below
//     but not the memo), and the misses run on several engine sessions at
//     once when there are enough of them. The rounds are then played back in order via Env.StepReplay,
//     and the captured sequence is replayed outright whenever the same
//     prepared pass runs again against the same listener set.
//
// Within a round, transmitters appear in caller order — which downstream
// float summation and tie-breaking depend on — exactly as in the naive
// rounds×senders loop.
//
// An EventScheduler belongs to one execution (one Schedule or SNS instance)
// and is not safe for concurrent use.
type EventScheduler struct {
	el *EventLists

	txs    []int32   // flattened per-round transmitters (prepared pass)
	active []int32   // rounds with a non-empty bucket, ascending (prepared pass)
	ends   []int32   // ends[k]: end of active[k]'s bucket in txs (prepared pass)
	sched  [][]int32 // per-sender schedule views (prepare scratch)

	// Prepared-pass identity (layer 2): buckets are reused only when the
	// full (senders, ids, clusters) triple matches by content.
	lastSenders  []int
	lastIDs      []int
	lastClusters []int
	prepared     bool

	// Listener identity and reception capture (layer 3).
	lastListeners []int
	listenersNil  bool
	haveListeners bool
	lid           uint32           // interned listener-set id (Env.InternListeners)
	recs          []sinr.Reception // captured receptions, flat across the pass
	recEnds       []int32          // per active round: end offset into recs
	recValid      bool
}

// NewEventScheduler prepares an event-driven executor for one schedule with
// a private schedule-list cache.
func NewEventScheduler(sel selectors.PairSelector) *EventScheduler {
	return NewEventSchedulerShared(NewEventLists(sel))
}

// NewEventSchedulerShared prepares an executor over a shared schedule-list
// cache (see EventLists).
func NewEventSchedulerShared(el *EventLists) *EventScheduler {
	return &EventScheduler{el: el}
}

func eventKey(id, cluster int) uint64 {
	return uint64(uint32(id))<<32 | uint64(uint32(cluster))
}

// Pass executes one full schedule pass: senders[j] (with protocol ID ids[j]
// and cluster clusters[j]) transmits msgOf(senders[j]) in its scheduled
// rounds; listeners restricts reception as in Engine.Deliver. sink is
// invoked once per non-silent round with the schedule round index and that
// round's deliveries (valid only during the call, like Env.Step results).
// Silent rounds — before, between and after the events — are fast-forwarded
// via Env.NextActive.
func (es *EventScheduler) Pass(
	env *sim.Env,
	senders []int,
	ids, clusters []int,
	msgOf func(node int) sim.Msg,
	listeners []int,
	sink func(round int, ds []sim.Delivery),
) {
	start := env.Rounds()
	m := es.el.m
	if len(senders) == 0 {
		env.NextActive(start + int64(m) + 1)
		return
	}
	if !es.prepared || !slices.Equal(es.lastSenders, senders) ||
		!slices.Equal(es.lastIDs, ids) || !slices.Equal(es.lastClusters, clusters) {
		es.prepare(senders, ids, clusters)
		es.recValid = false
	}
	if !es.haveListeners || es.listenersNil != (listeners == nil) || !slices.Equal(es.lastListeners, listeners) {
		es.lastListeners = append(es.lastListeners[:0], listeners...)
		es.listenersNil = listeners == nil
		es.haveListeners = true
		es.recValid = false
		es.lid = env.InternListeners(listeners)
	}
	// Computing a pass's receptions ahead of its rounds, and replaying them,
	// is sound only while reception is a pure function of (transmitters,
	// listeners); fault injection breaks that, so impure executions step
	// every round live.
	if !env.ReceptionPure() {
		txs := env.TxBuf()
		lo := int32(0)
		for k, i := range es.active {
			hi := es.ends[k]
			txs = appendInts(txs[:0], es.txs[lo:hi])
			env.NextActive(start + int64(i) + 1)
			sink(int(i), env.Step(txs, msgOf, listeners))
			lo = hi
		}
		env.SetTxBuf(txs)
		env.NextActive(start + int64(m) + 1)
		return
	}
	txs := appendInts(env.TxBuf(), es.txs)
	env.SetTxBuf(txs)
	if !es.recValid {
		es.recs, es.recEnds = env.PassReceptions(txs, es.ends, listeners, es.lid, es.recs[:0], es.recEnds[:0])
		es.recValid = true
	}
	lo, rlo := int32(0), int32(0)
	for k, i := range es.active {
		hi, rhi := es.ends[k], es.recEnds[k]
		env.NextActive(start + int64(i) + 1)
		sink(int(i), env.StepReplay(txs[lo:hi], es.recs[rlo:rhi], msgOf))
		lo, rlo = hi, rhi
	}
	env.NextActive(start + int64(m) + 1)
}

// appendInts appends src to dst, widened to int.
func appendInts(dst []int, src []int32) []int {
	for _, v := range src {
		dst = append(dst, int(v))
	}
	return dst
}

// ensureSchedules fills sched[j] with the ascending scheduled rounds of
// (ids[j], clusters[j]) for every sender, from the cache where possible.
// Missing lists are computed in one rounds-outer sweep — the per-round
// prepared Row is shared across all new senders, so a batch of b new lists
// costs m row preparations and m·b membership tests — and cached while the
// budget lasts.
func (el *EventLists) ensureSchedules(ids, clusters []int, sched [][]int32) {
	miss := el.missing[:0]
	for j := range ids {
		key := eventKey(ids[j], clusters[j])
		if l, ok := el.lists[key]; ok {
			sched[j] = l
			continue
		}
		sched[j] = nil
		miss = append(miss, int32(j))
	}
	el.missing = miss
	if len(miss) == 0 {
		return
	}
	// Repeated (id, cluster) pairs within the batch build independent but
	// identical lists (the computation is deterministic); the later cache
	// store simply overwrites.
	for i := 0; i < el.m; i++ {
		if el.rows != nil {
			row := el.rows.Row(i)
			for _, j := range miss {
				if row.ContainsPair(ids[j], clusters[j]) {
					sched[j] = append(sched[j], int32(i))
				}
			}
		} else {
			for _, j := range miss {
				if el.sel.ContainsPair(i, ids[j], clusters[j]) {
					sched[j] = append(sched[j], int32(i))
				}
			}
		}
	}
	for _, j := range miss {
		if el.entries+len(sched[j]) > eventCacheBudget {
			continue
		}
		el.lists[eventKey(ids[j], clusters[j])] = sched[j]
		el.entries += len(sched[j])
	}
}

// prepare resolves the senders' schedules and buckets them by round:
// el.offs[i] ends round i's bucket in txs (bucket i starts at offs[i-1]).
// Two passes over the lists keep within-round sender order identical to the
// naive loop's (caller order), which reception arithmetic downstream
// depends on.
func (es *EventScheduler) prepare(senders []int, ids, clusters []int) {
	el := es.el
	if el.counts == nil {
		el.counts = make([]int32, el.m)
		el.offs = make([]int32, el.m)
	}
	for cap(es.sched) < len(senders) {
		es.sched = append(es.sched[:cap(es.sched)], nil)
	}
	sched := es.sched[:len(senders)]
	el.ensureSchedules(ids, clusters, sched)
	total := 0
	for j := range senders {
		total += len(sched[j])
		for _, i := range sched[j] {
			el.counts[i]++
		}
	}
	if cap(es.txs) < total {
		es.txs = make([]int32, total)
	}
	es.txs = es.txs[:total]
	es.active = es.active[:0]
	es.ends = es.ends[:0]
	off := int32(0)
	for i, c := range el.counts {
		el.counts[i] = 0 // leave the counting scratch clean for the next prepare
		el.offs[i] = off
		if c != 0 {
			off += c
			es.active = append(es.active, int32(i))
			es.ends = append(es.ends, off)
		}
	}
	for j := range senders {
		for _, i := range sched[j] {
			es.txs[el.offs[i]] = int32(senders[j])
			el.offs[i]++
		}
	}
	es.lastSenders = append(es.lastSenders[:0], senders...)
	es.lastIDs = append(es.lastIDs[:0], ids...)
	es.lastClusters = append(es.lastClusters[:0], clusters...)
	es.prepared = true
}
