package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
)

// metric is one reported figure: its name, unit and which way is better.
type metric struct {
	name, unit, better string
}

// endToEnd are the figures a user of Network.Run sees, printed with
// --trace 0.
var endToEnd = []metric{
	{"run_s", "s", "lower"},       // median busy seconds per Run (see bench.op)
	{"setup_s", "s", "lower"},     // median NewNetwork + Density()
	{"rounds", "count", "lower"},  // simulated SINR rounds per Run
	{"alloc_mb", "MB", "lower"},   // median MB allocated per Run
	{"heap_mb", "MB", "lower"},    // live heap after a warm Run and a GC
	{"ok_frac", "frac", "higher"}, // 1 − fail_frac over every op attempted
}

// perLayer are the traced run's figures, printed with --trace 1. Each is
// the median over the traced ops of a run unless its comment says
// otherwise; README.md maps each to the end-to-end metric it should move.
var perLayer = []metric{
	{"sinr.deliver_calls", "count", "lower"},
	{"sinr.deliver_s", "s", "lower"},
	{"sinr.deliver_share", "frac", "lower"},
	{"sinr.dense_calls", "count", "lower"},
	{"sinr.dense_s", "s", "lower"},
	{"sinr.light_calls", "count", "lower"},
	{"sinr.light_s", "s", "lower"},
	{"sinr.tx_per_call", "count", "lower"},
	{"sinr.listeners_per_call", "count", "lower"},
	{"sinr.ns_per_listener", "ns", "lower"},
	{"sinr.yield", "frac", "higher"},
	{"sinr.build_s", "s", "lower"},   // median engine construction
	{"geom.density_s", "s", "lower"}, // median geom.Density
	{"sim.active_rounds", "count", "lower"},
	{"sim.stepped_frac", "frac", "lower"},
	{"sim.reuse_ratio", "frac", "higher"},
	{"algo.self_s", "s", "lower"},
	{"algo.ns_per_active_round", "ns", "lower"},
	{"broadcast.phases", "count", "lower"},
	{"core.clusters", "count", "lower"},
	{"fault.self_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"proc.cpu_per_wall", "ratio", "higher"},
	{"trace.overhead_frac", "frac", "lower"}, // traced wall / run_s − 1
}

const (
	maxEndToEnd = 16
	maxPerLayer = 128
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkTables verifies the metric tables: valid unique names, a unit on
// every metric, a direction, and the table sizes the benchmark format
// allows.
func checkTables() error {
	if len(endToEnd) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, at most %d allowed", len(endToEnd), maxEndToEnd)
	}
	if len(perLayer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, at most %d allowed", len(perLayer), maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		switch {
		case !nameRE.MatchString(m.name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", m.name)
		case !unitRE.MatchString(m.unit):
			return fmt.Errorf("metric %s: bad unit %q", m.name, m.unit)
		case m.better != "lower" && m.better != "higher":
			return fmt.Errorf("metric %s: better is %q", m.name, m.better)
		case seen[m.name]:
			return fmt.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	return nil
}

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// checkManifest verifies that the manifest at path lists exactly the
// benchmark's workloads and metrics, in order, with the same units and
// directions.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		return fmt.Errorf("%s: workloads %v, benchmark runs %v", path, names, want)
	}
	same := func(kind string, got []metric, table []metric) error {
		if !slices.Equal(got, table) {
			return fmt.Errorf("%s: %s metrics %v, benchmark prints %v", path, kind, got, table)
		}
		return nil
	}
	var e2e, layer []metric
	for _, x := range m.EndToEnd {
		e2e = append(e2e, metric{x.Name, x.Unit, x.Better})
	}
	for _, x := range m.PerLayer {
		layer = append(layer, metric{x.Name, x.Unit, x.Better})
	}
	if err := same("end_to_end", e2e, endToEnd); err != nil {
		return err
	}
	return same("per_layer", layer, perLayer)
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the benchmark's output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricsFor builds the metrics object from vals, which must hold exactly
// the names of table.
func metricsFor(table []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	if len(vals) != len(table) {
		return nil, fmt.Errorf("%d metrics measured, table has %d", len(vals), len(table))
	}
	return out, nil
}
