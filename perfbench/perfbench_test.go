package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dcluster"
	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// publicOutcome runs w's task through the public API.
func publicOutcome(t *testing.T, w workload, in inputs) outcome {
	t.Helper()
	net, err := dcluster.NewNetwork(in.pts, dcluster.WithEngine(w.engine))
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(w, []inputs{in}, 0)
	if err := b.runPublic(context.Background(), b.insts[0], net); err != nil {
		t.Fatal(err)
	}
	return *b.insts[0].ref
}

// smallCases cover both engines, both tasks and the faulted path. The
// fault spec has windowed drops and a noise spike, so its outcome depends
// on the round clock reaching the fault decorator.
func smallCases() []struct {
	name string
	w    workload
	in   inputs
} {
	disk := dcluster.UniformDisk(90, 4, 5)
	strip := dcluster.ConnectedStrip(120, 24, 1, 0.7, 3)
	const spec = "seed=11; drop=0.2@200-4000; noise=1.6@500-3000"
	type c = struct {
		name string
		w    workload
		in   inputs
	}
	var out []c
	for _, eng := range []dcluster.EngineKind{dcluster.EngineDense, dcluster.EngineSparse} {
		out = append(out,
			c{"cluster/" + string(eng), workload{engine: eng, task: taskClustering}, inputs{pts: disk}},
			c{"gbcast/" + string(eng), workload{engine: eng, task: taskGlobal}, inputs{pts: strip}},
			c{"cluster-faults/" + string(eng), workload{engine: eng, task: taskClustering, drop: 0.2}, inputs{pts: disk, faultSpec: spec}},
		)
	}
	return out
}

// TestTracedRunReproducesRun pins the timing decorators' transparency: the
// traced rebuild reproduces the public Run's rounds, transmissions,
// deliveries and outputs exactly, on both engines and under faults.
func TestTracedRunReproducesRun(t *testing.T) {
	for _, tc := range smallCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := publicOutcome(t, tc.w, tc.in)
			tr, err := newTracer(tc.w, tc.w.engine, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range 2 { // the second op reuses the session
				got, s, err := tr.run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if err := got.sameAs(want); err != nil {
					t.Fatalf("traced op %d: %v", i, err)
				}
				if s.sinr.calls == 0 || s.obs.active == 0 || s.rounds != want.stats.Rounds {
					t.Fatalf("traced op %d counted nothing: %+v", i, s)
				}
				if tc.in.faultSpec != "" {
					if s.sinr.calls != s.obs.active {
						t.Errorf("faulted run: %d Deliver calls for %d active rounds; memo and replay must be bypassed", s.sinr.calls, s.obs.active)
					}
					if s.faultDur < s.sinr.dur {
						t.Errorf("fault decorator time %v below the inner Deliver time %v", s.faultDur, s.sinr.dur)
					}
				}
			}
		})
	}
}

// opaqueEngine wraps an engine without forwarding its optional hooks — the
// mistake the timing decorator must not make.
type opaqueEngine struct{ sinr.Engine }

// TestFaultedRunNeedsRoundForwarding shows the transparency test has
// teeth: the same composition reproduces the faulted Run only while the
// fault layer's round clock stays visible to the simulator.
func TestFaultedRunNeedsRoundForwarding(t *testing.T) {
	tc := smallCases()[2]
	want := publicOutcome(t, tc.w, tc.in)
	spec, err := fault.Parse(tc.in.faultSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, hide := range []bool{false, true} {
		f, err := buildEngine(tc.w.engine, tc.in.pts)
		if err != nil {
			t.Fatal(err)
		}
		var eng sinr.Engine = fault.Wrap(f.Session(), &spec)
		if hide {
			eng = opaqueEngine{eng}
		}
		env, err := sim.NewEnv(eng, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		env.SetControl(sim.Control{ImpureReception: true})
		tr := &tracer{w: tc.w, pts: tc.in.pts, gamma: geom.Density(tc.in.pts, 1)}
		got, err := tr.execute(env)
		st := env.Stats()
		same := err == nil && slices.Equal(got.clusterOf, want.clusterOf) &&
			st.Rounds == want.stats.Rounds && st.Deliveries == want.stats.Deliveries
		if same == hide {
			t.Fatalf("round clock hidden=%v: outcome equal to Run = %v (err %v)", hide, same, err)
		}
	}
}

// TestTimedEngineForwardsStopCheck checks that cooperative cancellation
// reaches the wrapped engine on both engines.
func TestTimedEngineForwardsStopCheck(t *testing.T) {
	pts := dcluster.UniformDisk(600, 8, 2)
	stop := errors.New("stop")
	for _, eng := range []dcluster.EngineKind{dcluster.EngineDense, dcluster.EngineSparse} {
		f, err := buildEngine(eng, pts)
		if err != nil {
			t.Fatal(err)
		}
		te := &timedEngine{Engine: f.Session(), st: &deliverStats{}}
		te.SetStopCheck(func() error { return stop })
		func() {
			defer func() {
				if got := sinr.AbortError(recover()); got != stop {
					t.Errorf("%s: Deliver ended with %v, want the stop hook's error", eng, got)
				}
			}()
			te.Deliver([]int{0, 1, 2}, nil, nil)
		}()
	}
}

func TestDecoratorCountsDenseRounds(t *testing.T) {
	for _, tc := range []struct {
		ntx, listeners int
		dense          bool
	}{
		{24, 100, false}, // at the small-round cutoff
		{25, 400, true},
		{25, 401, false},
		{200, 1000, true},
	} {
		if got := isDenseRound(tc.ntx, tc.listeners); got != tc.dense {
			t.Errorf("isDenseRound(%d, %d) = %v, want %v", tc.ntx, tc.listeners, got, tc.dense)
		}
	}
}

func TestMetricTables(t *testing.T) {
	if err := checkTables(); err != nil {
		t.Fatal(err)
	}
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

func TestMetricTablesRejectBadNames(t *testing.T) {
	saved := perLayer
	defer func() { perLayer = saved }()
	for _, bad := range []metric{
		{"sinr deliver", "s", "lower"},
		{"sinr.deliver_s", "", "lower"},
		{"sinr.deliver_s", "s", "faster"},
		{perLayer[0].name, "count", "lower"}, // duplicate
	} {
		perLayer = append(slices.Clone(saved), bad)
		if checkTables() == nil {
			t.Errorf("checkTables accepted %+v", bad)
		}
	}
	perLayer = nil
	for i := range maxPerLayer + 1 {
		perLayer = append(perLayer, metric{fmt.Sprintf("m%d", i), "count", "lower"})
	}
	if checkTables() == nil {
		t.Errorf("checkTables accepted %d per-layer metrics", len(perLayer))
	}
}

func TestInputsFollowSeed(t *testing.T) {
	w, _ := findWorkload("cluster-disk-256-drops")
	a, err := makeInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(w, 7)
	c, _ := makeInputs(w, 8)
	if len(a) != w.instances {
		t.Fatalf("%d instances, want %d", len(a), w.instances)
	}
	for i := range a {
		if !slices.Equal(a[i].pts, b[i].pts) || a[i].faultSpec != b[i].faultSpec {
			t.Fatalf("instance %d differs between two runs of seed 7", i)
		}
		if got := geom.Density(a[i].pts, 1); got != w.topo.gamma {
			t.Fatalf("instance %d has density %d, want %d", i, got, w.topo.gamma)
		}
	}
	if slices.Equal(a[0].pts, c[0].pts) || a[0].faultSpec == c[0].faultSpec {
		t.Fatal("seeds 7 and 8 gave the same first instance")
	}
	dense, _ := findWorkload("cluster-disk-1k")
	sparse, _ := findWorkload("cluster-disk-1k-sparse")
	d, _ := makeInputs(dense, 3)
	s, _ := makeInputs(sparse, 3)
	if !slices.Equal(d[0].pts, s[0].pts) {
		t.Fatal("the dense and sparse disk workloads must run the same points")
	}
}

// TestCommandOutput runs the command end to end on the cheapest workload
// and checks the shape of its last line.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the drops workload for several seconds")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "cluster-disk-256-drops", "--seed", "1", "--seconds", "1", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		table := endToEnd
		if trace == "1" {
			table = perLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 || len(r.Metrics) != len(table) {
			t.Fatalf("--trace %s: %+v", trace, r)
		}
		if trace == "1" && r.Metrics["sim.reuse_ratio"].Value != 0 {
			t.Errorf("faulted workload reuses %v of its active rounds; impure reception must bypass memo and replay", r.Metrics["sim.reuse_ratio"].Value)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
