package sinr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dcluster/internal/geom"
)

// Boundary tests for the far-field truncation machinery at exact threshold
// equality, plus the density-threshold dispatch of the accumulating path.
// Integer-lattice deployments make every coordinate, squared distance and
// power-of-two gain exactly representable, so pairwise distances land
// precisely ON the transmission range, the far radius and tie boundaries —
// the knife edges where the conservative bounds are forced into the exact
// residual and the dense-order fallback.

// latticePts builds a k×k integer lattice with unit spacing: neighbor
// distance exactly the transmission range (1 under DefaultParams), diagonal
// √2, and distance-2 pairs exactly on a far radius of 2.
func latticePts(k int) []geom.Point {
	pts := make([]geom.Point, 0, k*k)
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	return pts
}

// TestBoundaryFarRadiusEquality pins engine equivalence when many member
// distances satisfy d² == far² exactly (the accept/reject boundary of the
// near scan) and gains tie exactly by symmetry (the tie fallback).
func TestBoundaryFarRadiusEquality(t *testing.T) {
	const k = 12
	pts := latticePts(k)
	params := DefaultParams()
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Far radius exactly 2: lattice pairs at offset (2,0)/(0,2) sit exactly
	// on the truncation boundary, and offsets (1,1)+(1,-1) produce exact
	// gain ties among interferers.
	if err := sparse.SetFarRadius(2); err != nil {
		t.Fatal(err)
	}
	n := len(pts)
	rng := rand.New(rand.NewSource(8))
	sets := [][]int{
		nil, // filled below: all nodes
		pickDistinct(rng, n, n/2),
		pickDistinct(rng, n, n/4),
		pickDistinct(rng, n, smallTxCutoff+4),
	}
	for v := 0; v < n; v++ {
		sets[0] = append(sets[0], v)
	}
	// Every second node as checkerboard: maximal symmetry, maximal ties.
	var checker []int
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if (x+y)%2 == 0 {
				checker = append(checker, y*k+x)
			}
		}
	}
	sets = append(sets, checker)
	for trial, txs := range sets {
		want := dense.Deliver(txs, nil, nil)
		for _, ov := range []int8{0, -1, 1} {
			sparse.pathOverride = ov
			got := sparse.Deliver(txs, nil, nil)
			if !sameReceptions(want, got) {
				t.Fatalf("trial %d override %d (|T|=%d): dense %d receptions != sparse %d",
					trial, ov, len(txs), len(want), len(got))
			}
		}
		sparse.pathOverride = 0
	}
}

// TestBoundaryRangeEqualitySolo pins the reception decision when the only
// link sits exactly at SINR == β: a solo sender at distance exactly the
// range has gain exactly β·N, so reception holds with equality and any
// conservative rounding in either direction flips the answer. It runs over
// α ∈ {2.5, 3, 4} and β ∈ {2, 10³}, with the normalised parameters and with
// N ≠ 1, P ≠ β·N (range 4, where 4^α is a power of two, so every gain is
// exact). The receiver at range must be on the dense engine's audible list,
// a node 2⁻²⁰ beyond it must not, and each dense dispatch branch, the
// distance-matrix field and the sparse engine must all decode it.
func TestBoundaryRangeEqualitySolo(t *testing.T) {
	for _, alpha := range []float64{2.5, 3, 4} {
		for _, beta := range []float64{2, 1e3} {
			for _, norm := range []bool{true, false} {
				params := Params{Alpha: alpha, Beta: beta, Noise: 1, Power: beta, Eps: 0.25}
				rng := 1.0
				if !norm {
					rng = 4
					params.Noise = 0.25
					params.Power = beta * params.Noise * math.Pow(rng, alpha)
				}
				name := fmt.Sprintf("alpha=%v/beta=%v/N=%v/P=%v", alpha, beta, params.Noise, params.Power)
				t.Run(name, func(t *testing.T) {
					pts := []geom.Point{geom.Pt(0, 0), geom.Pt(rng, 0), geom.Pt(-rng*(1+0x1p-20), 0), geom.Pt(5*rng, 5*rng)}
					dense, err := NewField(params, pts)
					if err != nil {
						t.Fatal(err)
					}
					if g := dense.Gain(0, 1); g != beta*params.Noise {
						t.Fatalf("test geometry: gain at range %v != β·N %v", g, beta*params.Noise)
					}
					if s := dense.SINR(0, 1, []int{0}); s != beta {
						t.Fatalf("SINR at range = %v, want exactly β", s)
					}
					a0 := dense.aud[dense.audStart[0]:dense.audStart[1]]
					if len(a0) != 1 || a0[0] != 1 {
						t.Fatalf("audible list of the sender = %v, want [1] (at range in, just beyond out)", a0)
					}
					sparse, err := NewSparseField(params, pts)
					if err != nil {
						t.Fatal(err)
					}
					want := []Reception{{Receiver: 1, Sender: 0}}
					for label, got := range map[string][]Reception{
						"dense nil listeners":    dense.Deliver([]int{0}, nil, nil),
						"dense direct":           dense.Deliver([]int{0}, []int{1}, nil),
						"dense stamped listener": dense.Deliver([]int{0}, []int{2, 1, 3}, nil),
						"distance matrix":        distanceTwin(t, params, pts).Deliver([]int{0}, nil, nil),
						"sparse":                 sparse.Deliver([]int{0}, nil, nil),
					} {
						if !sameReceptions(want, got) {
							t.Errorf("%s: SINR == β must decode (≥ comparison): got %v", label, got)
						}
					}
				})
			}
		}
	}
}

// TestBoundaryFarRadiusFloorEquality checks SetFarRadius at exactly the
// transmission range — the lowest legal value, where the near field
// degenerates to the reception range itself and everything beyond rides on
// the tail bounds and residual tiers.
func TestBoundaryFarRadiusFloorEquality(t *testing.T) {
	pts := latticePts(10)
	params := DefaultParams()
	sparse, err := NewSparseField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.SetFarRadius(params.Range()); err != nil {
		t.Fatalf("far radius exactly at the range floor rejected: %v", err)
	}
	dense, err := NewField(params, pts)
	if err != nil {
		t.Fatal(err)
	}
	var all []int
	for v := range pts {
		all = append(all, v)
	}
	for _, ov := range []int8{0, -1, 1} {
		sparse.pathOverride = ov
		if want, got := dense.Deliver(all, nil, nil), sparse.Deliver(all, nil, nil); !sameReceptions(want, got) {
			t.Fatalf("override %d: dense %v != sparse %v", ov, want, got)
		}
	}
	sparse.pathOverride = 0
}

// TestUseAccumPathDispatch pins the density-threshold dispatch: the
// accumulating path engages exactly above smallTxCutoff transmitters AND at
// |txs|·accumDivisor ≥ listeners, including both equalities.
func TestUseAccumPathDispatch(t *testing.T) {
	cases := []struct {
		ntx, count int
		want       bool
	}{
		{smallTxCutoff, smallTxCutoff * accumDivisor, false},          // at the small-round cutoff: direct scan owns it
		{smallTxCutoff + 1, (smallTxCutoff + 1) * accumDivisor, true}, // first eligible count, threshold equality
		{100, 100*accumDivisor - 1, true},                             // just above the density threshold
		{100, 100 * accumDivisor, true},                               // exactly at it (≥, not >)
		{100, 100*accumDivisor + 1, false},                            // just below
		{1000, 1000, true},                                            // everyone transmits
		{0, 1000, false},
		{25, 1 << 20, false}, // dense tx set, vastly more listeners
	}
	for _, c := range cases {
		if got := useAccumPath(c.ntx, c.count); got != c.want {
			t.Errorf("useAccumPath(%d, %d) = %v, want %v", c.ntx, c.count, got, c.want)
		}
	}
}

// TestAccumDispatchEngages is the integration form: at a transmitter density
// just past the threshold the default dispatch and the forced accumulating
// path must agree with the forced per-listener path (so whichever the
// dispatch picked, it picked a correct one), and the listener-restricted
// form must agree too (the count side of the threshold).
func TestAccumDispatchEngages(t *testing.T) {
	n := 512
	pts := geom.UniformDisk(n, 4, 3)
	sparse, err := NewSparseField(DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	txs := pickDistinct(rng, n, n/accumDivisor+1) // just past the density threshold
	var some []int
	for v := 0; v < n; v += 2 {
		some = append(some, v)
	}
	for _, listeners := range [][]int{nil, some} {
		sparse.pathOverride = 0
		auto := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = 1
		acc := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = -1
		per := sparse.Deliver(txs, listeners, nil)
		sparse.pathOverride = 0
		if !sameReceptions(auto, acc) || !sameReceptions(auto, per) {
			t.Fatalf("path disagreement at the dispatch threshold (listeners=%v)", listeners != nil)
		}
	}
}
