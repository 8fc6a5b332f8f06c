// Command perfbench is dcluster's end-to-end benchmark. It drives the public
// API (dcluster.NewNetwork + Network.Run) in a closed loop — one op at a
// time from one goroutine — on a seeded workload, checks every op's output,
// and prints the end-to-end metrics (--trace 0) or, from a traced rebuild
// of the same execution through the internal layers, the per-layer metrics
// (--trace 1). The last line of standard output is the JSON result.
//
//	go run . --workload cluster-disk-1k --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and how to read a trace.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"dcluster"
	"dcluster/internal/geom"
)

// Set-up is timed by repetition, cycling over the instances: at least
// minSetupReps builds and at least minSetupTime of them, capped at
// maxSetupReps; the median is reported.
const (
	minSetupReps = 9
	minSetupTime = time.Second
	maxSetupReps = 400
)

// userHZ is the unit of /proc/stat's counters, fixed at 100 per second
// by the Linux user-space ABI.
const userHZ = 100

// minOps is the fewest timed ops a run takes however short --seconds is;
// every instance gets at least one.
const minOps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name (see README.md)")
	seed := fl.Int64("seed", 1, "seed the inputs derive from")
	seconds := fl.Int("seconds", 20, "length of the timed window in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := checkTables(); err != nil {
		return fail(err)
	}
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		if err := checkManifest("BENCHMARK.json"); err != nil {
			return fail(err)
		}
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)

	ins, err := makeInputs(w, *seed)
	if err != nil {
		return fail(err)
	}
	b := newBench(w, ins, time.Duration(*seconds)*time.Second)
	var vals map[string]float64
	table := endToEnd
	if *trace == 1 {
		vals, err = b.traced()
		table = perLayer
	} else {
		vals, err = b.endToEnd()
	}
	if err != nil {
		return fail(err)
	}
	metrics, err := metricsFor(table, vals)
	if err != nil {
		return fail(err)
	}
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	return printResult(stdout, stderr, b.info(*seed, procs), report{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
}

func printResult(stdout, stderr io.Writer, info map[string]any, r report) int {
	line, err := json.Marshal(info)
	if err == nil {
		var out []byte
		if out, err = json.Marshal(r); err == nil {
			fmt.Fprintf(stdout, "perfbench run: %s\n%s\n", line, out)
			return 0
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}

// instance is one point set of a run with its network and its samples.
type instance struct {
	inputs
	net     *dcluster.Network
	density int
	// ref is the outcome of the instance's first op; every later op on it,
	// traced or on the other engine, must reproduce it exactly.
	ref *outcome

	runS    []float64 // busy seconds of each timed untraced op; see op
	wallS   []float64 // wall seconds of each timed untraced op
	cpuS    []float64 // process CPU seconds of each timed untraced op
	stealS  []float64 // host steal seconds during each timed untraced op
	allocMB []float64 // MB allocated by each timed untraced op
	tr      *tracer
	traces  []layerSample
}

// bench is one run of one workload.
type bench struct {
	w      workload
	task   dcluster.Task
	window time.Duration
	insts  []*instance
	heap0  uint64 // live heap before the networks were built

	attempted, failed int
	errs              []error
}

func newBench(w workload, ins []inputs, window time.Duration) *bench {
	b := &bench{w: w, task: dcluster.Clustering(), window: window}
	if w.task == taskGlobal {
		b.task = dcluster.GlobalBroadcast(0)
	}
	for _, in := range ins {
		b.insts = append(b.insts, &instance{inputs: in})
	}
	return b
}

// info is the run's record: what ran, on what, and how often.
func (b *bench) info(seed int64, procs int) map[string]any {
	var topo []int64
	var specs []string
	var dens []int
	var runS [][]float64
	var wall, cpu, steal float64
	traced := 0
	for _, in := range b.insts {
		topo = append(topo, in.topoSeed)
		specs = append(specs, in.faultSpec)
		dens = append(dens, in.density)
		runS = append(runS, in.runS)
		for i := range in.wallS {
			wall += in.wallS[i]
			cpu += in.cpuS[i]
			steal += in.stealS[i]
		}
		traced += len(in.traces)
	}
	engine := dcluster.EngineKind("")
	if net := b.insts[0].net; net != nil {
		engine = net.Engine()
	}
	return map[string]any{
		"workload":       b.w.name,
		"seed":           seed,
		"task":           b.task.Name(),
		"engine":         engine,
		"n":              len(b.insts[0].pts),
		"density":        dens,
		"topology_seeds": topo,
		"fault_specs":    specs,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     procs,
		"go":             runtime.Version(),
		"commit":         commit(),
		"src_sha256":     sourceDigest("."),
		"run_s_samples":  runS,
		"wall_s":         b.meanOfMedians(func(in *instance) []float64 { return in.wallS }),
		"cpu_per_wall":   ratio(cpu, wall),
		"steal_per_wall": ratio(steal, wall),
		"traced_ops":     traced,
		"attempted":      b.attempted,
		"failed":         b.failed,
		"fail_frac":      float64(b.failed) / float64(max(b.attempted, 1)),
	}
}

// check records one op's verdict.
func (b *bench) check(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 8 {
			b.errs = append(b.errs, fmt.Errorf("%s: %w", what, err))
		}
	}
}

func (b *bench) runOptions(in *instance) ([]dcluster.RunOption, error) {
	if in.faultSpec == "" {
		return nil, nil
	}
	spec, err := dcluster.ParseFaultSpec(in.faultSpec)
	if err != nil {
		return nil, err
	}
	return []dcluster.RunOption{dcluster.WithFaults(spec)}, nil
}

// runPublic runs the workload's task once on net, which holds the
// instance's points, and checks the output: the task's own oracle, then
// equality with the instance's reference outcome, which the first checked
// op sets.
func (b *bench) runPublic(ctx context.Context, in *instance, net *dcluster.Network) error {
	opts, err := b.runOptions(in)
	if err != nil {
		return err
	}
	res, err := net.Run(ctx, b.task, opts...)
	if err = checkResult(b.w, net, res, err); err != nil {
		return err
	}
	o := outcomeOf(res)
	if in.ref == nil {
		in.ref = &o
		return nil
	}
	return o.sameAs(*in.ref)
}

// liveHeap is the heap still reachable after two collections, the second
// of which drops what sync.Pools kept through the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// repeat times fn(i) for i cycling over the instances, by the set-up
// repetition rule, each call starting after a collection, and returns the
// median seconds of one call.
func (b *bench) repeat(fn func(in *instance) error) (float64, error) {
	var ts []float64
	var spent time.Duration
	for len(ts) < maxSetupReps && (len(ts) < max(minSetupReps, len(b.insts)) || spent < minSetupTime) {
		in := b.insts[len(ts)%len(b.insts)]
		runtime.GC()
		start := time.Now()
		if err := fn(in); err != nil {
			return 0, err
		}
		d := time.Since(start)
		spent += d
		ts = append(ts, d.Seconds())
	}
	return median(ts), nil
}

// setup builds every instance's network (timed: NewNetwork + Density) and
// runs one warm op on the first instance, so the process's heap and pools
// reach their working size before the window opens. It returns the median
// set-up seconds.
func (b *bench) setup(ctx context.Context) (float64, error) {
	b.heap0 = liveHeap()
	setupS, err := b.repeat(func(in *instance) error {
		net, err := dcluster.NewNetwork(in.pts, dcluster.WithEngine(b.w.engine))
		if err != nil {
			return err
		}
		in.density = net.Density()
		in.net = net
		return nil
	})
	if err != nil {
		return 0, err
	}
	b.check("warm op", b.runPublic(ctx, b.insts[0], b.insts[0].net))
	return setupS, nil
}

// twinCheck runs the first instance once on the other engine: the engines'
// identity contract says every outcome, rounds included, is equal.
func (b *bench) twinCheck(ctx context.Context) error {
	if b.w.twin == "" {
		return nil
	}
	in := b.insts[0]
	net, err := dcluster.NewNetwork(in.pts, dcluster.WithEngine(b.w.twin))
	if err != nil {
		return err
	}
	b.check("op on the "+string(b.w.twin)+" engine", b.runPublic(ctx, in, net))
	return nil
}

// op runs and checks one timed untraced op.
func (b *bench) op(ctx context.Context, in *instance) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0, cpu0 := hostSteal(), cpuTime()
	start := time.Now()
	err := b.runPublic(ctx, in, in.net)
	wall := time.Since(start).Seconds()
	cpu, steal := (cpuTime() - cpu0).Seconds(), hostSteal()-steal0
	runtime.ReadMemStats(&m1)
	// The op's threads wanted cpu+steal CPU seconds and got cpu of them;
	// the wall time they would have taken without steal scales the same
	// way, whether one thread ran or the sparse engine's two workers did.
	busy := wall
	if cpu+steal > 0 {
		busy = wall * cpu / (cpu + steal)
	}
	in.runS = append(in.runS, busy)
	in.wallS = append(in.wallS, wall)
	in.cpuS = append(in.cpuS, cpu)
	in.stealS = append(in.stealS, steal)
	in.allocMB = append(in.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	b.check(fmt.Sprintf("timed op %d", len(in.runS)), err)
}

// timedLoop cycles over the instances running body(in) until the window
// has passed and every instance has had its turn, with at least minOps
// turns in all.
func (b *bench) timedLoop(body func(in *instance)) {
	begin := time.Now()
	for j := 0; j < max(minOps, len(b.insts)) || time.Since(begin) < b.window; j++ {
		body(b.insts[j%len(b.insts)])
	}
}

// refRounds is the instance's round count, or none when no op on it
// passed its checks.
func refRounds(in *instance) []float64 {
	if in.ref == nil {
		return nil
	}
	return []float64{float64(in.ref.stats.Rounds)}
}

// meanOfMedians is the mean over instances of the median of each
// instance's samples.
func (b *bench) meanOfMedians(samples func(in *instance) []float64) float64 {
	sum := 0.0
	for _, in := range b.insts {
		sum += median(samples(in))
	}
	return sum / float64(len(b.insts))
}

// endToEnd measures the end-to-end metrics with tracing off.
func (b *bench) endToEnd() (map[string]float64, error) {
	ctx := context.Background()
	setupS, err := b.setup(ctx)
	if err != nil {
		return nil, err
	}
	b.timedLoop(func(in *instance) { b.op(ctx, in) })
	// Every network has now run; the instances hold only their networks
	// and reference outcomes.
	heapMB := float64(int64(liveHeap())-int64(b.heap0)) / 1e6 / float64(len(b.insts))
	if err := b.twinCheck(ctx); err != nil {
		return nil, err
	}
	return map[string]float64{
		"run_s":    b.meanOfMedians(func(in *instance) []float64 { return in.runS }),
		"setup_s":  setupS,
		"rounds":   b.meanOfMedians(refRounds),
		"alloc_mb": b.meanOfMedians(func(in *instance) []float64 { return in.allocMB }),
		"heap_mb":  heapMB,
		"ok_frac":  1 - float64(b.failed)/float64(b.attempted),
	}, nil
}

// traced measures the per-layer metrics: untraced and traced ops
// interleaved in one window, so the tracing overhead compares like with
// like, with every traced op checked against the untraced outcome.
func (b *bench) traced() (map[string]float64, error) {
	ctx := context.Background()
	if _, err := b.setup(ctx); err != nil {
		return nil, err
	}
	if err := b.twinCheck(ctx); err != nil {
		return nil, err
	}
	buildS, err := b.repeat(func(in *instance) error {
		_, err := buildEngine(in.net.Engine(), in.pts)
		return err
	})
	if err != nil {
		return nil, err
	}
	densityS, err := b.repeat(func(in *instance) error {
		if geom.Density(in.pts, 1) != in.density {
			return errors.New("geom.Density disagrees with Network.Density")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, in := range b.insts {
		if in.tr, err = newTracer(b.w, in.net.Engine(), in.inputs); err != nil {
			return nil, err
		}
	}
	traceOp := func(in *instance) layerSample {
		o, s, err := in.tr.run(ctx)
		switch {
		case err != nil:
		case in.ref == nil:
			err = errors.New("no checked untraced op to compare with")
		default:
			err = o.sameAs(*in.ref)
		}
		if err != nil {
			err = fmt.Errorf("trace invalid: %w", err)
		}
		b.check("traced op", err)
		return s
	}
	traceOp(b.insts[0]) // warm the traced path
	runtime.GC()

	b.timedLoop(func(in *instance) {
		b.op(ctx, in)
		in.traces = append(in.traces, traceOp(in))
	})
	vals := map[string]float64{}
	for _, in := range b.insts {
		for name, v := range layerMetrics(in.traces) {
			vals[name] += v / float64(len(b.insts))
		}
	}
	vals["sinr.build_s"] = buildS
	vals["geom.density_s"] = densityS
	vals["trace.overhead_frac"] = vals["trace.wall_s"]/b.meanOfMedians(func(in *instance) []float64 { return in.wallS }) - 1
	delete(vals, "trace.wall_s")
	return vals, nil
}

// layerMetrics turns one instance's traced ops into per-layer metrics:
// each figure is computed per op and the median over ops is reported.
func layerMetrics(samples []layerSample) map[string]float64 {
	per := map[string][]float64{}
	for _, s := range samples {
		wall := s.wall.Seconds()
		deliver := s.sinr.dur.Seconds()
		faultSelf := 0.0
		if s.faultDur > 0 {
			faultSelf = max(0, s.faultDur.Seconds()-deliver)
		}
		algo := wall - deliver - faultSelf
		calls := float64(s.sinr.calls)
		active := float64(s.obs.active)
		for name, v := range map[string]float64{
			"trace.wall_s":             wall,
			"sinr.deliver_calls":       calls,
			"sinr.deliver_s":           deliver,
			"sinr.deliver_share":       ratio(deliver, wall),
			"sinr.dense_calls":         float64(s.sinr.denseCalls),
			"sinr.dense_s":             s.sinr.denseDur.Seconds(),
			"sinr.light_calls":         float64(s.sinr.calls - s.sinr.denseCalls),
			"sinr.light_s":             (s.sinr.dur - s.sinr.denseDur).Seconds(),
			"sinr.tx_per_call":         ratio(float64(s.sinr.txs), calls),
			"sinr.listeners_per_call":  ratio(float64(s.sinr.listeners), calls),
			"sinr.ns_per_listener":     ratio(float64(s.sinr.dur.Nanoseconds()), float64(s.sinr.listeners)),
			"sinr.yield":               ratio(float64(s.sinr.recs), float64(s.sinr.listeners)),
			"sim.active_rounds":        active,
			"sim.stepped_frac":         ratio(float64(s.obs.callbacks), float64(s.rounds)),
			"sim.reuse_ratio":          1 - ratio(calls, active),
			"algo.self_s":              algo,
			"algo.ns_per_active_round": ratio(algo*1e9, active),
			"broadcast.phases":         float64(s.phases),
			"core.clusters":            float64(s.clusters),
			"fault.self_s":             faultSelf,
			"runtime.gc_cycles":        float64(s.gcCycles),
			"runtime.gc_pause_s":       s.gcPause.Seconds(),
			"proc.cpu_per_wall":        ratio(s.cpu.Seconds(), wall),
		} {
			per[name] = append(per[name], v)
		}
	}
	out := make(map[string]float64, len(per))
	for name, vs := range per {
		out[name] = median(vs)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// commit is the VCS revision stamped into the binary, or "none" when it was
// built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "none"
	}
	rev, dirty := "none", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// sourceDigest hashes the library's Go sources under root (the benchmark's
// own directory and build output excluded), so runs from a plain source
// tree still say which code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "perfbench", ".bench_build", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hostSteal is the time, in seconds since boot, that the hypervisor has
// kept this machine's CPUs from running while they had work: the steal
// column of /proc/stat. It reads 0 where the counter does not exist.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}
