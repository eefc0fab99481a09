package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// manifest is BENCHMARK.json: the one place that names the workloads and
// metrics, with each metric's unit, direction and regression bound. The
// benchmark refuses to report a metric set that differs from it.
type manifest struct {
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: tolerated worsening, as a share of the base median
}

// loadManifest reads BENCHMARK.json from the repository root, where the
// benchmark runs.
func loadManifest() (*manifest, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			return nil, fmt.Errorf("BENCHMARK.json does not list workload %q", w.name)
		}
	}
	if len(names) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names), len(workloads))
	}
	return &m, nil
}

// defs returns the metrics a pass reports: the end-to-end ones, or on the
// traced pass the per-layer ones.
func (m *manifest) defs(trace bool) []metricDef {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// label attaches the manifest's units to computed values, and fails unless
// the two name exactly the same metrics and every value is finite.
func label(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in BENCHMARK.json but was not computed", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out) != len(vals) {
		for k := range vals {
			if _, ok := out[k]; !ok {
				return nil, fmt.Errorf("metric %q was computed but is not in BENCHMARK.json", k)
			}
		}
	}
	if bad := nonFinite(vals); len(bad) > 0 {
		return nil, fmt.Errorf("metrics without a finite value: %v", bad)
	}
	return out, nil
}
