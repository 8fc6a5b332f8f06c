package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dcluster/internal/geom"
)

// Tests of the dense engine's audible-list pruning: Field.Deliver must equal
// the unpruned full scan on every dispatch branch, and every reception the
// full scan produces must have its receiver on the sender's audible list.

// fullScanDeliver is the unpruned reference: decide on every listener (all
// nodes for nil) that is not transmitting, in listener order.
func fullScanDeliver(f *Field, txs, listeners []int) []Reception {
	isTx := make([]bool, f.n)
	for _, v := range txs {
		isTx[v] = true
	}
	if listeners == nil {
		listeners = make([]int, f.n)
		for u := range listeners {
			listeners[u] = u
		}
	}
	var out []Reception
	for _, u := range listeners {
		if isTx[u] {
			continue
		}
		if v, ok := f.decide(u, txs); ok {
			out = append(out, Reception{Receiver: u, Sender: v})
		}
	}
	return out
}

// denseBranch restates deliverMarked's dispatch from the round's sizes: 1
// decides an explicit listener slice directly, 2 runs the transposed
// accumulation, 3 decides the stamped candidates.
func denseBranch(f *Field, txs, listeners []int) int {
	reach := 0
	isTx := make(map[int]bool, len(txs))
	for _, v := range txs {
		reach += f.audStart[v+1] - f.audStart[v]
		isTx[v] = true
	}
	if listeners != nil && reach >= len(listeners) {
		return 1
	}
	cand := make(map[int32]bool)
	for _, v := range txs {
		for _, u := range f.aud[f.audStart[v]:f.audStart[v+1]] {
			if !isTx[int(u)] {
				cand[u] = true
			}
		}
	}
	count := f.n
	if listeners != nil {
		count = len(listeners)
	}
	if len(txs) >= 2 && 2*count > f.n && 2*len(cand) > f.n {
		return 2
	}
	return 3
}

// distanceTwin builds the distance-matrix field over the exact pairwise
// distances of pts.
func distanceTwin(t testing.TB, params Params, pts []geom.Point) *Field {
	t.Helper()
	dist := make([][]float64, len(pts))
	for v := range dist {
		dist[v] = make([]float64, len(pts))
		for u := range dist[v] {
			if u != v {
				dist[v][u] = geom.Dist(pts[v], pts[u])
			}
		}
	}
	f, err := NewFieldFromDistances(params, dist)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// messyListeners returns a shuffled listener slice over a random subset of
// frac·n nodes with every third entry duplicated and the transmitters mixed
// in.
func messyListeners(rng *rand.Rand, n int, frac float64, txs []int) []int {
	var l []int
	for v := 0; v < n; v++ {
		if rng.Float64() < frac {
			l = append(l, v)
			if len(l)%3 == 0 {
				l = append(l, v)
			}
		}
	}
	l = append(l, txs...)
	rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
	return l
}

// TestTxCentricMatchesFullScan pins the audible-list pruning against the
// unpruned full scan, on positional and distance-matrix fields, across all
// three dispatch branches with nil listeners and with explicit listener
// slices that are sorted, unsorted, duplicated and contain transmitters. The
// test fails if some (branch, listener kind) pair goes unexercised.
func TestTxCentricMatchesFullScan(t *testing.T) {
	n := 300
	params := DefaultParams()
	pts := geom.UniformDisk(n, math.Sqrt(float64(n)/10), 23)
	pos, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string]*Field{"positions": pos, "distances": distanceTwin(t, params, pts)}
	for name, f := range fields {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			covered := map[string]bool{}
			for trial := 0; trial < 120; trial++ {
				k := []int{1, 2, 5, 12, 25, 40, n / 2, n}[trial%8]
				txs := pickDistinct(rng, n, k)
				rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
				var listeners []int
				kind := []string{"nil", "sorted", "small", "messy", "doubled"}[trial/8%5]
				switch kind {
				case "sorted":
					listeners = pickDistinct(rng, n, n/3)
				case "small":
					listeners = messyListeners(rng, n, 0.03, nil)
				case "messy":
					listeners = messyListeners(rng, n, 0.6, txs)
				case "doubled":
					for v := 0; v < n; v++ {
						listeners = append(listeners, n-1-v, v)
					}
				}
				if kind != "nil" {
					kind = "slice"
				}
				covered[fmt.Sprintf("%d/%s", denseBranch(f, txs, listeners), kind)] = true
				want := fullScanDeliver(f, txs, listeners)
				got := f.Deliver(txs, listeners, nil)
				if !sameReceptions(want, got) {
					t.Fatalf("trial %d (|T|=%d, listeners %s, branch %d): full scan %v != Deliver %v",
						trial, k, kind, denseBranch(f, txs, listeners), want, got)
				}
			}
			for _, key := range []string{"1/slice", "2/nil", "2/slice", "3/nil", "3/slice"} {
				if !covered[key] {
					t.Errorf("dispatch branch/listeners %s never exercised (covered %v)", key, covered)
				}
			}
		})
	}
}

// TestPropertyReceiverIsAudible checks the exactness argument of
// audibleThreshold directly: on random disks under varied model
// parameters, every reception of the unpruned full scan has its receiver on
// the sender's audible list.
func TestPropertyReceiverIsAudible(t *testing.T) {
	paramSets := []Params{
		DefaultParams(),
		{Alpha: 2.5, Beta: 1.5, Noise: 0.3, Power: 7, Eps: 0.25},
		{Alpha: 4, Beta: 1e3, Noise: 2e-3, Power: 5, Eps: 0.1},
		{Alpha: 3, Beta: 1.01, Noise: 1, Power: 1.01, Eps: 0.5},
	}
	rng := rand.New(rand.NewSource(17))
	for pi, params := range paramSets {
		for _, n := range []int{40, 200} {
			r := params.Range() * math.Sqrt(float64(n)/8)
			f, err := NewField(params, geom.UniformDisk(n, r, int64(n+pi)))
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 30; trial++ {
				txs := pickDistinct(rng, n, 1+rng.Intn(n/4))
				for _, rec := range fullScanDeliver(f, txs, nil) {
					v := rec.Sender
					if _, ok := slices.BinarySearch(f.aud[f.audStart[v]:f.audStart[v+1]], int32(rec.Receiver)); !ok {
						t.Fatalf("params %d n=%d: reception %v with gain %v, but %d is not on %d's audible list (threshold %v)",
							pi, n, rec, f.gain[v][rec.Receiver], rec.Receiver, v, audibleThreshold(params))
					}
				}
			}
		}
	}
}

// TestDenseDeliverZeroAllocs pins the allocation discipline: once a session
// has run a round of each kind, Deliver allocates nothing on any branch.
func TestDenseDeliverZeroAllocs(t *testing.T) {
	n := 400
	f, err := NewField(DefaultParams(), geom.UniformDisk(n, math.Sqrt(float64(n)/10), 9))
	if err != nil {
		t.Fatal(err)
	}
	eng := f.Session()
	var every4 []int
	for v := 0; v < n; v += 4 {
		every4 = append(every4, v)
	}
	cases := []struct {
		branch         int
		txs, listeners []int
	}{
		{1, []int{3, 50, 99}, []int{4, 5, 6}},
		{2, every4, nil},
		{3, []int{7, 200}, nil},
		{3, []int{7}, pickDistinct(rand.New(rand.NewSource(1)), n, n/2)},
	}
	var dst []Reception
	for _, c := range cases {
		if got := denseBranch(f, c.txs, c.listeners); got != c.branch {
			t.Fatalf("case for branch %d dispatches to %d", c.branch, got)
		}
		dst = eng.Deliver(c.txs, c.listeners, dst[:0]) // warm
		if a := testing.AllocsPerRun(50, func() { dst = eng.Deliver(c.txs, c.listeners, dst[:0]) }); a != 0 {
			t.Errorf("branch %d: %v allocs per warmed Deliver, want 0", c.branch, a)
		}
	}
}

// TestDenseStampEpochWrap forces the candidate epoch to wrap: neither the
// zero stamps of never-marked nodes nor stale stamps from before the wrap
// may alias the restarted epoch.
func TestDenseStampEpochWrap(t *testing.T) {
	n := 200
	f, err := NewField(DefaultParams(), geom.UniformDisk(n, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	a, c := []int{10, 120}, []int{33, 150}
	for _, first := range [][]int{a, c} {
		s := f.Session().(*Field)
		s.Deliver(a, nil, nil) // stamps a's candidates with epoch 1
		s.epoch = math.MaxUint32
		for i, txs := range [][]int{first, a, c} {
			want := fullScanDeliver(f, txs, nil)
			if len(want) == 0 {
				t.Fatalf("round %d: transmitters %v reach nobody; the wrap check needs receptions", i, txs)
			}
			if got := s.Deliver(txs, nil, nil); !sameReceptions(want, got) {
				t.Fatalf("round %d after the epoch wrap (txs %v): %v, want %v", i, txs, got, want)
			}
		}
	}
}
