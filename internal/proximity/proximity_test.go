package proximity

import (
	"fmt"
	"reflect"
	"testing"

	"dcluster/internal/analysis"
	"dcluster/internal/config"
	"dcluster/internal/geom"
	"dcluster/internal/selectors"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

func newEnv(t *testing.T, pts []geom.Point) *sim.Env {
	t.Helper()
	f, err := sinr.NewField(sinr.DefaultParams(), pts)
	if err != nil {
		t.Fatal(err)
	}
	return sim.MustEnv(f, nil, 0)
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func unclusteredSchedule(t *testing.T, cfg config.Config, n int) selectors.PairSelector {
	t.Helper()
	w, err := selectors.NewWSS(n, cfg.Kappa, cfg.WSSFactor, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return selectors.Lift(w)
}

func constOne(int) int32 { return 1 }

func TestConstructValidation(t *testing.T) {
	env := newEnv(t, geom.LinePath(4, 0.5))
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	if _, err := Construct(env, cfg, sched, nil, allNodes(4), nil, false); err == nil {
		t.Error("nil clusterOf must be rejected")
	}
	var bad config.Config
	if _, err := Construct(env, bad, sched, nil, allNodes(4), constOne, false); err == nil {
		t.Error("invalid config must be rejected")
	}
}

// TestClosePairsGetEdges is the core Lemma 7 guarantee: every close pair of
// the active set is an edge of the constructed graph.
func TestClosePairsGetEdges(t *testing.T) {
	pts := geom.UniformDisk(50, 2.5, 17)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	g, err := Construct(env, cfg, sched, nil, allNodes(len(pts)), constOne, false)
	if err != nil {
		t.Fatal(err)
	}

	cluster := make([]int32, len(pts))
	for i := range cluster {
		cluster[i] = 1
	}
	gamma := geom.Density(pts, 1)
	pairs := analysis.ClosePairs(pts, cluster, gamma, 1, env.F.Params().Eps)
	if len(pairs) == 0 {
		t.Fatal("test topology has no close pairs; pick a denser one")
	}
	for _, p := range pairs {
		if !containsNode(g.Adj.Neighbors(p.U), p.W) || !containsNode(g.Adj.Neighbors(p.W), p.U) {
			t.Errorf("close pair (%d,%d) missing from proximity graph", p.U, p.W)
		}
	}
}

func TestDegreeBoundedByKappa(t *testing.T) {
	pts := geom.UniformDisk(60, 2, 23)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	g, err := Construct(env, cfg, sched, nil, allNodes(len(pts)), constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := analysis.MaxDegree(g.Adj); d > cfg.Kappa {
		t.Errorf("degree %d exceeds κ=%d", d, cfg.Kappa)
	}
}

func TestGraphSymmetric(t *testing.T) {
	pts := geom.UniformDisk(40, 2, 29)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	g, err := Construct(env, cfg, sched, nil, allNodes(len(pts)), constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := analysis.GraphSymmetric(g.Adj); err != nil {
		t.Error(err)
	}
}

func TestClusteredConstructionIgnoresOtherClusters(t *testing.T) {
	// Two tight clumps, each its own cluster; edges must stay intra-cluster.
	var pts []geom.Point
	var clusterOf []int32
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Pt(float64(i)*0.05, 0))
		clusterOf = append(clusterOf, 1)
	}
	for i := 0; i < 6; i++ {
		pts = append(pts, geom.Pt(2+float64(i)*0.05, 0))
		clusterOf = append(clusterOf, 2)
	}
	env := newEnv(t, pts)
	cfg := config.Default()
	wcss, err := selectors.NewWCSS(env.N, cfg.Kappa, cfg.Rho, cfg.WCSSFactor, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Construct(env, cfg, wcss, nil, allNodes(len(pts)), func(v int) int32 { return clusterOf[v] }, true)
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Adj.NumEdges()
	for u := 0; u < g.Adj.N(); u++ {
		for _, v := range g.Adj.Neighbors(u) {
			if clusterOf[u] != clusterOf[v] {
				t.Errorf("cross-cluster edge %d-%d", u, v)
			}
		}
	}
	if edges == 0 {
		t.Error("clumps must produce intra-cluster edges")
	}
	// Close pairs within each cluster present.
	gamma := analysis.MaxClusterSize(clusterOf)
	pairs := analysis.ClosePairs(pts, clusterOf, gamma, 1, env.F.Params().Eps)
	for _, p := range pairs {
		if !containsNode(g.Adj.Neighbors(p.U), p.W) {
			t.Errorf("clustered close pair (%d,%d) missing", p.U, p.W)
		}
	}
}

func TestScheduleReplaySubsetPreservesEdgeExchange(t *testing.T) {
	pts := geom.UniformDisk(30, 1.5, 31)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	active := allNodes(len(pts))
	g, err := Construct(env, cfg, sched, nil, active, constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	// Replay with all constructors sending: every edge must exchange again.
	ds := g.Sched.Run(env, active, func(v int) sim.Msg {
		return sim.Msg{Kind: sim.KindHello, From: int32(env.IDs[v])}
	}, active)
	heard := map[[2]int]bool{}
	for _, d := range ds {
		heard[[2]int{d.Receiver, d.Sender}] = true
	}
	for u := 0; u < g.Adj.N(); u++ {
		for _, v := range g.Adj.Neighbors(u) {
			if !heard[[2]int{u, int(v)}] {
				t.Errorf("edge %d<-%d did not re-exchange on replay", u, v)
			}
		}
	}
}

func TestScheduleReplaySkipsNonMembers(t *testing.T) {
	pts := geom.LinePath(5, 0.5)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	g, err := Construct(env, cfg, sched, nil, []int{0, 1, 2}, constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sched.Member(4) {
		t.Error("node 4 was not active at construction")
	}
	ds := g.Sched.Run(env, []int{4}, func(v int) sim.Msg { return sim.Msg{} }, nil)
	if len(ds) != 0 {
		t.Error("non-member senders must be skipped")
	}
}

func TestRoundsAccounting(t *testing.T) {
	pts := geom.LinePath(8, 0.6)
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	if _, err := Construct(env, cfg, sched, nil, allNodes(len(pts)), constOne, false); err != nil {
		t.Fatal(err)
	}
	want := Rounds(sched.Len(), cfg.Kappa)
	if env.Rounds() != want {
		t.Errorf("rounds = %d, want %d", env.Rounds(), want)
	}
}

func TestIsolatedNodesNoEdges(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0)}
	env := newEnv(t, pts)
	cfg := config.Default()
	sched := unclusteredSchedule(t, cfg, env.N)
	g, err := Construct(env, cfg, sched, nil, allNodes(3), constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.Adj.N(); u++ {
		if ns := g.Adj.Neighbors(u); len(ns) != 0 {
			t.Errorf("isolated node %d has edges %v", u, ns)
		}
	}
}

// countingEngine counts the Deliver calls that reach the engine, per
// distinct (transmitters, listeners) round.
type countingEngine struct {
	sinr.Engine
	calls map[string]int
}

func (c *countingEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	c.calls[fmt.Sprint(txs, listeners)]++
	return c.Engine.Deliver(txs, listeners, dst)
}

// stripeSelector schedules every ID ≡ r (mod 4) in round r: rounds of about
// a quarter of the senders each, and rounds r and r+4 alike.
type stripeSelector struct{}

func (stripeSelector) Len() int                           { return 8 }
func (stripeSelector) ContainsPair(round, id, _ int) bool { return id%4 == round%4 }

// TestScheduleReplayMemoizesLargeRounds: replays alternating between two
// sender sets defeat the event scheduler's last-pass capture, so every
// repeat must come from the reception memo — rounds of more than 48
// transmitters included. Each distinct round reaches Deliver once.
func TestScheduleReplayMemoizesLargeRounds(t *testing.T) {
	f, err := sinr.NewField(sinr.DefaultParams(), geom.UniformDisk(240, 5, 11))
	if err != nil {
		t.Fatal(err)
	}
	eng := &countingEngine{Engine: f, calls: map[string]int{}}
	env := sim.MustEnv(eng, nil, 0)
	active := allNodes(f.N())
	g, err := Construct(env, config.Default(), stripeSelector{}, nil, active, constOne, false)
	if err != nil {
		t.Fatal(err)
	}
	clear(eng.calls)
	sets := [2][]int{active[10:], active[:len(active)-10]}
	msg := func(v int) sim.Msg { return sim.Msg{Kind: sim.KindHello, From: int32(env.IDs[v])} }
	var first [2][]sim.Delivery
	for pass := 0; pass < 6; pass++ {
		ds := g.Sched.Run(env, sets[pass%2], msg, nil)
		if pass < 2 {
			first[pass] = append([]sim.Delivery(nil), ds...)
		} else if !reflect.DeepEqual(ds, first[pass%2]) {
			t.Fatalf("pass %d: deliveries differ from the first pass over the same senders", pass)
		}
	}
	// Each sender set fills four distinct rounds with about 57 transmitters.
	if want := 2 * 4; len(eng.calls) != want {
		t.Errorf("%d distinct rounds reached Deliver, want %d", len(eng.calls), want)
	}
	for round, n := range eng.calls {
		if n != 1 {
			t.Errorf("round %.40s… reached Deliver %d times, want once", round, n)
		}
	}
}
