package main

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"

	"dcluster"
	"dcluster/internal/geom"
)

// taskKind names the paper task a workload runs.
type taskKind int

const (
	taskClustering taskKind = iota // Theorem 1: dcluster.Clustering()
	taskGlobal                     // Theorem 3: dcluster.GlobalBroadcast(0)
)

// topology is a seeded point-set family with a fixed density Γ: the
// benchmark draws candidate sets from a stream derived from the run seed
// and keeps the first whose Γ equals gamma. Γ sets the length of every
// protocol schedule, and on a few hundred nodes it ranges over 9..17
// between seeds, so without the filter the round count (and the wall time)
// would follow the seed's Γ rather than the code under test.
type topology struct {
	key   string // names the candidate stream; equal keys give equal points
	gamma int
	gen   func(seed int64) []geom.Point
}

// workload is one benchmark input: a topology, the engine and the task.
type workload struct {
	name   string
	topo   topology
	engine dcluster.EngineKind
	task   taskKind
	drop   float64 // > 0: run under WithFaults("seed=…; drop=<drop>")
	// instances is how many point sets a run draws from its seed. Work per
	// op still varies between point sets of equal Γ (clustering's number of
	// sparsification batches is data-dependent), so the end-to-end figures
	// are means over the instances, and the count is set per workload so
	// that the mean repeats across seeds.
	instances int
	// twin, when set, is the other engine: each run also executes the op
	// once on it and requires the identical outcome, rounds included.
	twin dcluster.EngineKind
}

var (
	disk1k = topology{key: "disk-1024-r16", gamma: 12, gen: func(s int64) []geom.Point {
		return dcluster.UniformDisk(1024, 16, s)
	}}
	strip2k = topology{key: "strip-2000x1", gamma: 19, gen: func(s int64) []geom.Point {
		return dcluster.ConnectedStrip(2000, 400, 1, 0.7, s)
	}}
	disk256 = topology{key: "disk-256-r8", gamma: 11, gen: func(s int64) []geom.Point {
		return dcluster.UniformDisk(256, 8, s)
	}}
)

// workloads is the benchmark's workload table; BENCHMARK.json lists the
// same names.
var workloads = []workload{
	// Clustering on the dense engine, where live Deliver physics dominates
	// the wall.
	{
		name:      "cluster-disk-1k",
		topo:      disk1k,
		engine:    dcluster.EngineAuto,
		task:      taskClustering,
		instances: 5,
		twin:      dcluster.EngineSparse,
	},
	// The same points on the sparse engine: its cell-blocked, accumulating
	// and parallel Deliver paths.
	{
		name:      "cluster-disk-1k-sparse",
		topo:      disk1k,
		engine:    dcluster.EngineSparse,
		task:      taskClustering,
		instances: 5,
		twin:      dcluster.EngineDense,
	},
	// Multi-hop global broadcast, where fast-forward, memo and replay carry
	// the time, not Deliver.
	{
		name:      "gbcast-strip-2k",
		topo:      strip2k,
		engine:    dcluster.EngineAuto,
		task:      taskGlobal,
		instances: 1,
	},
	// Clustering under 5% drops: impure reception bypasses memo and replay,
	// and the fault decorator runs.
	{
		name:      "cluster-disk-256-drops",
		topo:      disk256,
		engine:    dcluster.EngineAuto,
		task:      taskClustering,
		drop:      0.05,
		instances: 16,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxCandidates bounds the density filter per instance; at the chosen
// targets roughly one candidate in three qualifies, so the bound is never
// reached in practice, and reaching it is an error rather than a silent
// fallback.
const maxCandidates = 256

// inputs is one instance a run derives from its seed.
type inputs struct {
	pts       []geom.Point
	topoSeed  int64  // generator seed of the accepted candidate
	faultSpec string // "" when the workload runs without faults
}

// makeInputs derives the workload's instances from the run seed: the first
// w.instances candidates of the topology's stream whose density is the
// target, each with its own fault seed. Workloads on the same topology get
// the same point sets.
func makeInputs(w workload, seed int64) ([]inputs, error) {
	stream := splitmix(uint64(seed) ^ hashName(w.topo.key))
	faults := splitmix(uint64(seed) ^ hashName("faults"))
	var out []inputs
	for tries := 0; len(out) < w.instances; tries++ {
		if tries == maxCandidates*w.instances {
			return nil, fmt.Errorf("fewer than %d %s candidates with density %d among %d", w.instances, w.topo.key, w.topo.gamma, tries)
		}
		stream = splitmix(stream)
		s := int64(stream >> 1)
		pts := w.topo.gen(s)
		if geom.Density(pts, 1) != w.topo.gamma {
			continue
		}
		in := inputs{pts: pts, topoSeed: s}
		if w.drop > 0 {
			faults = splitmix(faults)
			in.faultSpec = fmt.Sprintf("seed=%d; drop=%g", faults>>1, w.drop)
		}
		out = append(out, in)
	}
	return out, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// outcome is what one op produced, in a form both the public Run and the
// traced rebuild fill, so the two can be compared field by field.
type outcome struct {
	stats      dcluster.Stats
	clusterOf  []int32
	center     map[int32]int
	awakePhase []int
	phases     int
}

// sameAs reports the first field in which o differs from ref.
func (o outcome) sameAs(ref outcome) error {
	switch {
	case o.stats != ref.stats:
		return fmt.Errorf("stats %+v, want %+v", o.stats, ref.stats)
	case !slices.Equal(o.clusterOf, ref.clusterOf):
		return fmt.Errorf("cluster assignment differs")
	case !maps.Equal(o.center, ref.center):
		return fmt.Errorf("cluster centres differ (%d vs %d clusters)", len(o.center), len(ref.center))
	case !slices.Equal(o.awakePhase, ref.awakePhase):
		return fmt.Errorf("broadcast awake phases differ")
	case o.phases != ref.phases:
		return fmt.Errorf("%d broadcast phases, want %d", o.phases, ref.phases)
	}
	return nil
}

// outcomeOf converts a public Run result.
func outcomeOf(res *dcluster.Result) outcome {
	o := outcome{stats: res.Stats}
	if c := res.Cluster; c != nil {
		o.clusterOf, o.center = c.ClusterOf, c.Center
	}
	if b := res.Broadcast; b != nil {
		o.awakePhase, o.phases = b.AwakePhase, len(b.PhaseTrace)
	}
	return o
}

// checkResult is the output oracle of one public Run: the run succeeded,
// produced the task's result, and that result is valid for the paper's
// task.
func checkResult(w workload, net *dcluster.Network, res *dcluster.Result, err error) error {
	if err != nil {
		return err
	}
	switch w.task {
	case taskClustering:
		if res.Cluster == nil {
			return fmt.Errorf("no clustering in result")
		}
		return net.ValidateClustering(res.Cluster)
	case taskGlobal:
		if res.Broadcast == nil {
			return fmt.Errorf("no broadcast in result")
		}
		if c := res.Broadcast.Coverage(); c != 1 {
			return fmt.Errorf("broadcast coverage %g, want 1", c)
		}
	}
	return nil
}
