package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dcluster"
	"dcluster/internal/broadcast"
	"dcluster/internal/config"
	"dcluster/internal/core"
	"dcluster/internal/fault"
	"dcluster/internal/geom"
	"dcluster/internal/sim"
	"dcluster/internal/sinr"
)

// deliverStats accumulates one timing decorator's view of the Deliver calls
// that crossed it.
type deliverStats struct {
	calls, txs, listeners, recs int64
	dur                         time.Duration
	denseCalls                  int64
	denseDur                    time.Duration
}

// Rounds with more than smallTx transmitters that also reach one listener
// in denseDivisor count as dense. This is the sparse engine's own dispatch
// rule for its accumulating path; the benchmark applies it to both engines
// so their splits compare.
const (
	smallTx      = 24
	denseDivisor = 16
)

func isDenseRound(ntx, listeners int) bool { return ntx > smallTx && ntx*denseDivisor >= listeners }

// timedEngine is a transparent sinr.Engine decorator that times Deliver and
// counts its inputs and outputs. It forwards the optional engine hooks the
// simulator looks for — cooperative cancellation (sinr.StopChecker) and the
// round clock (sinr.RoundAware) — so wrapping an engine changes neither
// cancellation nor fault behaviour.
type timedEngine struct {
	sinr.Engine
	st *deliverStats
}

func (t *timedEngine) Deliver(txs, listeners []int, dst []sinr.Reception) []sinr.Reception {
	count := len(listeners)
	if listeners == nil {
		count = t.N()
	}
	before := len(dst)
	start := time.Now()
	dst = t.Engine.Deliver(txs, listeners, dst)
	d := time.Since(start)
	st := t.st
	st.calls++
	st.txs += int64(len(txs))
	st.listeners += int64(count)
	st.recs += int64(len(dst) - before)
	st.dur += d
	if isDenseRound(len(txs), count) {
		st.denseCalls++
		st.denseDur += d
	}
	return dst
}

// Session wraps a fresh inner session; both views feed the same counters.
func (t *timedEngine) Session() sinr.Engine {
	return &timedEngine{Engine: t.Engine.Session(), st: t.st}
}

// SetStopCheck implements sinr.StopChecker by forwarding.
func (t *timedEngine) SetStopCheck(fn func() error) {
	if sc, ok := t.Engine.(sinr.StopChecker); ok {
		sc.SetStopCheck(fn)
	}
}

// SetRound implements sinr.RoundAware by forwarding.
func (t *timedEngine) SetRound(r int64) {
	if ra, ok := t.Engine.(sinr.RoundAware); ok {
		ra.SetRound(r)
	}
}

var (
	_ sinr.StopChecker = (*timedEngine)(nil)
	_ sinr.RoundAware  = (*timedEngine)(nil)
)

// roundCounter is the sim.Observer of the traced run.
type roundCounter struct {
	callbacks, active int64
}

func (c *roundCounter) OnRound(_ int64, txs, _ int) {
	c.callbacks++
	if txs > 0 {
		c.active++
	}
}

func (c *roundCounter) OnPhase(string, int64) {}

// tracer rebuilds one workload's Network.Run through the layers' own entry
// points: engine → timing decorator (sinr) → fault.Wrap → timing decorator
// (fault) → sim.Env with a counting observer → core.Cluster or
// broadcast.Global. It mirrors what Run composes for the same inputs, so a
// traced op must reproduce the public op's outcome exactly.
type tracer struct {
	w       workload
	pts     []geom.Point
	gamma   int
	spec    *fault.Spec // nil without faults
	session sinr.Engine // one pooled session, as Run borrows one
}

// buildEngine constructs the physical layer of a resolved engine kind, as
// Network.Engine reports it.
func buildEngine(k dcluster.EngineKind, pts []geom.Point) (sinr.Engine, error) {
	p := sinr.DefaultParams()
	switch k {
	case dcluster.EngineDense:
		return sinr.NewField(p, pts)
	case dcluster.EngineSparse:
		return sinr.NewSparseField(p, pts)
	}
	return nil, fmt.Errorf("unknown engine %q", k)
}

func newTracer(w workload, kind dcluster.EngineKind, in inputs) (*tracer, error) {
	f, err := buildEngine(kind, in.pts)
	if err != nil {
		return nil, err
	}
	t := &tracer{w: w, pts: in.pts, gamma: geom.Density(in.pts, 1), session: f.Session()}
	if in.faultSpec != "" {
		s, err := fault.Parse(in.faultSpec)
		if err != nil {
			return nil, err
		}
		if err := s.Validate(len(in.pts), true); err != nil {
			return nil, err
		}
		t.spec = &s
	}
	return t, nil
}

// layerSample is one traced op's per-layer account.
type layerSample struct {
	wall     time.Duration
	sinr     deliverStats
	faultDur time.Duration // outer decorator time; 0 without faults
	rounds   int64
	obs      roundCounter
	phases   int
	clusters int
	gcCycles uint32
	gcPause  time.Duration
	cpu      time.Duration
}

// run executes one traced op.
func (t *tracer) run(ctx context.Context) (outcome, layerSample, error) {
	var s layerSample
	var outer deliverStats
	var eng sinr.Engine = &timedEngine{Engine: t.session, st: &s.sinr}
	var nodeFaults sim.NodeFaults
	if t.spec != nil {
		if t.spec.EngineFaults() {
			eng = &timedEngine{Engine: fault.Wrap(eng, t.spec), st: &outer}
		}
		if t.spec.HasNodeFaults() {
			nodeFaults = t.spec
		}
	}
	env, err := sim.NewEnv(eng, nil, 0)
	if err != nil {
		return outcome{}, s, err
	}
	env.SetControl(sim.Control{
		Ctx:             ctx,
		Observer:        &s.obs,
		NodeFaults:      nodeFaults,
		ImpureReception: t.spec != nil,
	})

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	o, err := t.execute(env)
	s.wall = time.Since(start)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	s.faultDur = outer.dur
	st := env.Stats()
	s.rounds = st.Rounds
	o.stats = dcluster.Stats{Rounds: st.Rounds, Transmissions: st.Transmissions, Deliveries: st.Deliveries, MaxNodeTx: env.Energy().Max}
	s.phases, s.clusters = o.phases, len(o.center)
	return o, s, err
}

// execute runs the task body on env, turning an execution abort or panic
// into an error as Run does.
func (t *tracer) execute(env *sim.Env) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e := sim.StopError(r); e != nil {
				err = e
			} else if e := sinr.AbortError(r); e != nil {
				err = e
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	cfg := config.Default()
	switch t.w.task {
	case taskClustering:
		nodes := make([]int, len(t.pts))
		for i := range nodes {
			nodes[i] = i
		}
		a, err := core.Cluster(env, core.ClusterInput{Cfg: cfg, Nodes: nodes, Gamma: t.gamma})
		if err != nil {
			return o, err
		}
		o.clusterOf, o.center = a.ClusterOf, a.Center
	case taskGlobal:
		srcs := []int{0}
		if err := broadcast.ValidateSourcesSparse(env, srcs); err != nil {
			return o, err
		}
		r, err := broadcast.Global(env, broadcast.GlobalInput{Cfg: cfg, Sources: srcs, Delta: t.gamma})
		if err != nil {
			return o, err
		}
		o.awakePhase, o.phases = r.AwakeAtPhase, len(r.Phases)
	}
	return o, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
