package sinr

import (
	"fmt"
	"math"
	"slices"

	"dcluster/internal/geom"
)

func pow(x, a float64) float64 { return math.Pow(x, a) }

// Field is the dense SINR engine: a fixed set of node locations with
// precomputed pairwise received-power gains G[v][u] = P / d(v,u)^α.
// A Field answers "who received whom" queries for arbitrary transmitter
// sets; it performs no protocol logic.
//
// The gain matrix costs 8·n² bytes, so Field is the engine of choice up to a
// few thousand nodes: O(1) gain lookups and exact results by construction.
// Next to the matrix, Field keeps each node's audible list — the nodes that
// hear it above the noise floor (see audibleThreshold) — so Deliver examines
// only listeners within range of some transmitter. Beyond a few thousand
// nodes, use SparseField — the grid-bucketed engine with linear memory and
// parallel Deliver — which produces identical reception sets. Field is also
// the only engine accepting an explicit distance matrix
// (NewFieldFromDistances), which the lower-bound gadgets require to avoid
// floating-point absorption of the geometrically shrinking node gaps.
type Field struct {
	params Params
	n      int
	gain   [][]float64  // gain[v][u]: received power at u from transmitter v
	pos    []geom.Point // nil for distance-matrix fields

	// Audible lists in CSR form: aud[audStart[v]:audStart[v+1]] holds, in
	// ascending order, every u ≠ v with gain[v][u] ≥ audibleThreshold.
	// Immutable after construction and shared by sessions.
	audStart []int
	aud      []int32

	// Per-session Deliver scratch, allocated by newScratch.
	scratch []bool   // transmitter bitmap
	stamp   []uint32 // candidate stamps: stamp[u] == epoch marks u this round
	epoch   uint32
	cand    []int32 // this round's candidates, capacity n

	// stop is the cooperative mid-round cancellation hook (see StopChecker);
	// nil when no run-scoped control is attached.
	stop func() error

	// Transposed-accumulation scratch (see deliverTransposed).
	accTot, accBest []float64
	accBestV        []int32
}

// audibleThreshold is audThr, the gain a sender needs at u for u to be on
// the sender's audible list. Every listener that can receive in any round
// is on its winning sender's list, so Deliver never examines anyone else.
//
// Exactness. Both reception checks (decide and deliverTransposed) accept u
// when b > 0 and b ≥ β·(N + tot − b) holds as evaluated in float64, where b
// is the winning gain and tot the running sum of u's incoming gains in
// transmitter order. Gains are non-negative (NaN makes every comparison
// false, so a NaN anywhere never passes), and every IEEE operation rounds
// monotonically, so:
//   - each partial sum is ≥ the one before, and the partial sum that adds b
//     is fl(s + b) ≥ fl(0 + b) = b; hence tot ≥ b;
//   - hence fl(tot − b) ≥ 0, fl(N + fl(tot − b)) ≥ N, and
//     fl(β·fl(N + fl(tot − b))) ≥ fl(β·N).
//
// So a passing u has b ≥ fl(β·N) in float64. audThr is fl(β·N) scaled down
// by 2⁻³⁰ relative: the argument needs no margin, but the margin keeps the
// pruning sound under any reassociation or fused evaluation of the check,
// whose error is a few ulps (2⁻⁵² each), and it only adds listeners within
// a billionth of the range floor, which decide then rejects.
func audibleThreshold(p Params) float64 {
	return p.Beta * p.Noise * (1 - 0x1p-30)
}

// NewField builds a field from explicit positions.
func NewField(params Params, pos []geom.Point) (*Field, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(pos)
	f := &Field{params: params, n: n, pos: append([]geom.Point(nil), pos...)}
	f.gain = make([][]float64, n)
	f.audStart = make([]int, n+1)
	thr := audibleThreshold(params)
	buf := make([]float64, n*n)
	var aud []int32
	for v, pv := range pos {
		row := buf[v*n : (v+1)*n]
		f.gain[v] = row
		for u, pu := range pos {
			if u == v {
				continue
			}
			g := gainAt(params, geom.Dist(pv, pu))
			row[u] = g
			if g >= thr {
				aud = append(aud, int32(u))
			}
		}
		f.audStart[v+1] = len(aud)
	}
	f.aud = aud
	f.newScratch()
	return f, nil
}

// NewFieldFromDistances builds a field from an explicit symmetric distance
// matrix (used by the lower-bound gadgets where coordinates would lose
// precision). dist[v][u] must be positive for u ≠ v.
func NewFieldFromDistances(params Params, dist [][]float64) (*Field, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := len(dist)
	f := &Field{params: params, n: n}
	f.gain = make([][]float64, n)
	f.audStart = make([]int, n+1)
	thr := audibleThreshold(params)
	buf := make([]float64, n*n)
	for v := 0; v < n; v++ {
		if len(dist[v]) != n {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrMismatchedSize, v, len(dist[v]), n)
		}
		f.gain[v] = buf[v*n : (v+1)*n]
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			if dist[v][u] <= 0 {
				return nil, fmt.Errorf("sinr: non-positive distance %v between %d and %d", dist[v][u], v, u)
			}
			g := gainAt(params, dist[v][u])
			f.gain[v][u] = g
			if g >= thr {
				f.aud = append(f.aud, int32(u))
			}
		}
		f.audStart[v+1] = len(f.aud)
	}
	f.newScratch()
	return f, nil
}

// gainAt is the shared received-power formula of both engines; the sparse
// engine evaluates it lazily in Deliver's inner loop, so the common integer
// path-loss exponents bypass math.Pow.
func gainAt(p Params, d float64) float64 {
	switch p.Alpha {
	case 3:
		return p.Power / (d * d * d)
	case 4:
		d2 := d * d
		return p.Power / (d2 * d2)
	}
	return p.Power / pow(d, p.Alpha)
}

// N returns the number of nodes in the field.
func (f *Field) N() int { return f.n }

// Params returns the model parameters.
func (f *Field) Params() Params { return f.params }

// Positions returns the node positions, or nil for distance-matrix fields.
func (f *Field) Positions() []geom.Point { return f.pos }

// Gain returns the received power at u from a transmission by v.
func (f *Field) Gain(v, u int) float64 { return f.gain[v][u] }

// Distance returns the metric distance between v and u, recovered from the
// gain for distance-matrix fields.
func (f *Field) Distance(v, u int) float64 {
	if v == u {
		return 0
	}
	if f.pos != nil {
		return geom.Dist(f.pos[v], f.pos[u])
	}
	return pow(f.params.Power/f.gain[v][u], 1/f.params.Alpha)
}

// Reception is a successful delivery in one round: Receiver decoded the
// message transmitted by Sender.
type Reception struct {
	Receiver, Sender int
}

// Deliver computes all successful receptions for one synchronous round with
// the given transmitter set. listeners selects which non-transmitting nodes
// are checked (nil = all nodes). A transmitting node never receives
// (half-duplex). Since β > 1, at most the strongest incoming signal can
// clear the threshold, so exactly one check per listener is needed.
//
// Only listeners on some transmitter's audible list can receive, so Deliver
// examines just those (see deliverMarked); the round cost scales with the
// transmitters' reach, not with n. The per-listener decision code is the
// full scan's, so results are bit-identical to it.
//
// The result slice is appended to dst (which may be nil) and returned, so
// hot loops can reuse capacity.
func (f *Field) Deliver(transmitters []int, listeners []int, dst []Reception) []Reception {
	if len(transmitters) == 0 {
		return dst
	}
	isTx := f.scratch
	for _, v := range transmitters {
		isTx[v] = true
	}
	dst, err := f.deliverMarked(transmitters, listeners, dst)
	for _, v := range transmitters {
		isTx[v] = false
	}
	if err != nil {
		// The scratch bitmap is already restored, so the session survives the
		// abort; the panic unwinds the execution through the run layer.
		abortDeliver(err)
	}
	return dst
}

// SetStopCheck installs the cooperative mid-round cancellation hook; see
// StopChecker.
func (f *Field) SetStopCheck(fn func() error) { f.stop = fn }

// deliverMarked is the Deliver core, entered with the transmitter bitmap set
// up. It picks one of three ways to examine the listeners, from sizes of its
// input alone; each runs the full scan's decision on every listener it
// examines and skips only listeners that cannot receive, in the full scan's
// order:
//
//  1. An explicit listener slice no longer than the transmitters' reach
//     (the summed audible-list lengths): decide each listener directly, as
//     stamping the candidates would cost more than it prunes.
//  2. Otherwise the candidates — audible non-transmitters — are stamped. If
//     they and the checked listeners each cover over half the field and
//     |T| ≥ 2, run the transposed accumulation (dense rounds).
//  3. Otherwise decide the candidates only: in node order for nil
//     listeners, else in the caller's listener order.
//
// It returns a non-nil error (with the partial dst discarded by the caller's
// abort) when the stop hook trips between listener chunks.
func (f *Field) deliverMarked(transmitters []int, listeners []int, dst []Reception) ([]Reception, error) {
	if listeners != nil {
		reach := 0
		for _, v := range transmitters {
			reach += f.audStart[v+1] - f.audStart[v]
		}
		if reach >= len(listeners) {
			for i, u := range listeners {
				if err := f.poll(i); err != nil {
					return dst, err
				}
				if f.scratch[u] { // transmitting
					continue
				}
				if v, ok := f.decide(u, transmitters); ok {
					dst = append(dst, Reception{Receiver: u, Sender: v})
				}
			}
			return dst, nil
		}
	}
	count := f.n
	if listeners != nil {
		count = len(listeners)
	}
	// Dense rounds run transposed: per transmitter one sequential sweep over
	// its gain row accumulates every listener's interference total and
	// strongest signal, then one emission sweep applies the threshold. Same
	// summation order and comparisons as decide (bit-identical results), but
	// sequential memory instead of one gathered read per (listener,
	// transmitter) pair. The core needs no candidate list, so stamping stops
	// once the candidates pass half the field.
	limit := f.n // unreachable: candidates exclude the transmitters
	if len(transmitters) >= 2 && 2*count > f.n {
		limit = f.n / 2
	}
	cand := f.markCandidates(transmitters, limit)
	if len(cand) > limit {
		return f.deliverTransposed(transmitters, listeners, dst)
	}
	if listeners == nil {
		slices.Sort(cand)
		for i, u := range cand {
			if err := f.poll(i); err != nil {
				return dst, err
			}
			if v, ok := f.decide(int(u), transmitters); ok {
				dst = append(dst, Reception{Receiver: int(u), Sender: v})
			}
		}
		return dst, nil
	}
	stamp, epoch := f.stamp, f.epoch
	for i, u := range listeners {
		if err := f.poll(i); err != nil {
			return dst, err
		}
		if stamp[u] != epoch {
			continue
		}
		if v, ok := f.decide(u, transmitters); ok {
			dst = append(dst, Reception{Receiver: u, Sender: v})
		}
	}
	return dst, nil
}

// poll runs the stop hook on every stopStride+1-th examined listener.
func (f *Field) poll(i int) error {
	if i&stopStride == 0 && f.stop != nil {
		return f.stop()
	}
	return nil
}

// markCandidates stamps this round's candidates — every non-transmitter on
// some transmitter's audible list — with a fresh epoch and returns them, in
// discovery order, in the session's candidate buffer. It stops early, with
// a partial list, once more than limit are found.
func (f *Field) markCandidates(transmitters []int, limit int) []int32 {
	f.epoch++
	if f.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(f.stamp)
		f.epoch = 1
	}
	stamp, epoch, isTx := f.stamp, f.epoch, f.scratch
	cand := f.cand[:0]
	for _, v := range transmitters {
		for _, u := range f.aud[f.audStart[v]:f.audStart[v+1]] {
			if stamp[u] != epoch && !isTx[u] {
				stamp[u] = epoch
				cand = append(cand, u)
			}
		}
		if len(cand) > limit {
			break
		}
	}
	f.cand = cand
	return cand
}

// deliverTransposed is the dense-round Deliver core: transmitters' gain
// rows are accumulated into per-listener totals/maxima (in transmitter
// order, matching the per-listener scan's float summation and first-wins
// argmax exactly), then the β threshold is applied in listener order. The
// caller has already marked isTx. The stop hook is polled once per
// transmitter row (each row is an O(n) sweep).
func (f *Field) deliverTransposed(transmitters []int, listeners []int, dst []Reception) ([]Reception, error) {
	if f.accTot == nil {
		f.accTot = make([]float64, f.n)
		f.accBest = make([]float64, f.n)
		f.accBestV = make([]int32, f.n)
	}
	tot, best, bestV := f.accTot, f.accBest, f.accBestV
	for t, v := range transmitters {
		if f.stop != nil {
			if err := f.stop(); err != nil {
				return dst, err
			}
		}
		row := f.gain[v]
		if t == 0 {
			// First transmitter initialises the accumulators — no clearing
			// pass is needed between rounds.
			v32 := int32(v)
			for u := 0; u < f.n; u++ {
				g := row[u]
				tot[u] = g
				best[u] = g
				bestV[u] = v32
			}
			continue
		}
		v32 := int32(v)
		for u := 0; u < f.n; u++ {
			g := row[u]
			tot[u] += g
			if g > best[u] {
				best[u] = g
				bestV[u] = v32
			}
		}
	}
	isTx := f.scratch
	beta, noise := f.params.Beta, f.params.Noise
	emit := func(u int) {
		if isTx[u] {
			return
		}
		b := best[u]
		if b > 0 && b >= beta*(noise+tot[u]-b) {
			dst = append(dst, Reception{Receiver: u, Sender: int(bestV[u])})
		}
	}
	if listeners == nil {
		for u := 0; u < f.n; u++ {
			emit(u)
		}
	} else {
		for _, u := range listeners {
			emit(u)
		}
	}
	return dst, nil
}

// decide resolves listener u for one round: the winning sender, if any.
// For geometric fields the gain matrix is symmetric (d(u,v) = d(v,u) and
// both entries come from the same formula), so u's incoming gains are read
// from row u — sequential memory — instead of one column element per
// transmitter row. Distance-matrix fields keep the column access (symmetry
// of the input matrix is documented but not enforced).
func (f *Field) decide(u int, transmitters []int) (int, bool) {
	var total, best float64
	bestV := -1
	if f.pos != nil {
		row := f.gain[u]
		for _, v := range transmitters {
			g := row[v]
			total += g
			if g > best {
				best = g
				bestV = v
			}
		}
	} else {
		for _, v := range transmitters {
			g := f.gain[v][u]
			total += g
			if g > best {
				best = g
				bestV = v
			}
		}
	}
	if bestV >= 0 && best >= f.params.Beta*(f.params.Noise+total-best) {
		return bestV, true
	}
	return -1, false
}

// newScratch allocates the session's Deliver scratch. The transposed
// accumulators stay lazy: only dense rounds need them.
func (f *Field) newScratch() {
	f.scratch = make([]bool, f.n)
	f.stamp = make([]uint32, f.n)
	f.epoch = 0
	f.cand = make([]int32, 0, f.n)
}

// Session returns a view of the field with its own Deliver scratch. The gain
// matrix, positions and audible lists are shared (they are immutable after
// construction), so sessions are cheap and may Deliver concurrently with
// each other.
func (f *Field) Session() Engine {
	g := *f
	g.newScratch()
	g.accTot, g.accBest, g.accBestV = nil, nil, nil
	g.stop = nil
	return &g
}

// SINR returns the signal-to-interference-and-noise ratio at u for sender v
// given the full transmitter set txs (which must contain v), per Eq. (1).
func (f *Field) SINR(v, u int, txs []int) float64 { return sinrOf(f, v, u, txs) }

// Receives reports whether u receives v's message when txs transmit
// (half-duplex: false if u ∈ txs).
func (f *Field) Receives(v, u int, txs []int) bool { return receivesOf(f, v, u, txs) }

// CommGraph returns adjacency lists of the communication graph: edges
// between nodes at distance ≤ (1−ε)·range.
func (f *Field) CommGraph() [][]int {
	rad := f.params.GraphRadius()
	adj := make([][]int, f.n)
	if f.pos != nil {
		return geom.CommGraph(f.pos, rad)
	}
	for v := 0; v < f.n; v++ {
		for u := 0; u < f.n; u++ {
			if u != v && f.Distance(v, u) <= rad {
				adj[v] = append(adj[v], u)
			}
		}
	}
	return adj
}
