package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// minPairs is the fewest parent/change pairs a verdict on a measured
// metric other than "regressed" or "unresolved" may rest on.
const minPairs = 10

// exactTol is the relative difference below which compare counts two
// values of an exactPerSeed metric as equal: float rounding, not behaviour.
const exactTol = 1e-9

// judge applies the acceptance rule to one metric on one workload, given
// the end-to-end values of the parent (base) and the change (cur), paired
// by seed. The simulated outputs (exactPerSeed) are judged seed by seed:
//
//   - regressed: worse than the parent on any seed;
//   - improved: better on some seed and worse on none;
//   - unchanged: equal on every seed.
//
// The measured metrics are judged on their medians:
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - improved: at least minPairs pairs, the change wins at least nine in
//     ten of them (ties count for neither), and its median beats the
//     parent's by more than the parent's own interquartile spread;
//   - unresolved: too few pairs, or the parent's spread is wider than the
//     bound and not every change run beats every parent run;
//   - unchanged: otherwise.
//
// The bound is BENCHMARK.json's share of the parent's median, except for
// the metrics with an absolute bound in pairedAbsBound.
func judge(d metricDef, base, cur []float64) (verdict string, wins int) {
	better := func(a, b float64) bool {
		if d.Better == "lower" {
			return a < b
		}
		return a > b
	}
	if exactPerSeed[d.Name] {
		losses := 0
		for i, c := range cur {
			if math.Abs(c-base[i]) <= exactTol*math.Abs(base[i]) {
				continue
			}
			if better(c, base[i]) {
				wins++
			} else {
				losses++
			}
		}
		switch {
		case losses > 0:
			return "regressed", wins
		case wins > 0:
			return "improved", wins
		default:
			return "unchanged", wins
		}
	}
	allBetter := true
	for i, c := range cur {
		if better(c, base[i]) {
			wins++
		}
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	q1, bm, q3 := quartiles(base)
	cm := median(cur)
	bound, scale := d.Bound, math.Abs(bm)
	if abs, ok := pairedAbsBound[d.Name]; ok {
		bound, scale = abs, 1
	}
	worse := (cm - bm) / scale
	if d.Better == "higher" {
		worse = -worse
	}
	n := len(base)
	switch {
	case worse > bound:
		return "regressed", wins
	case n < minPairs:
		return "unresolved", wins
	case 10*wins >= 9*n && better(cm, bm) && math.Abs(cm-bm) > q3-q1:
		return "improved", wins
	case (q3-q1)/scale > bound && !allBetter:
		return "unresolved", wins
	default:
		return "unchanged", wins
	}
}

// loadRecords reads a file of run records (a runs.jsonl) and keeps, per workload and seed, the
// last end-to-end record that was not a smoke run.
func loadRecords(path string) (map[string]map[uint64]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[uint64]runRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Schema != recordSchema || r.Trace != 0 || r.Smoke {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[uint64]runRecord{}
		}
		out[r.Workload][r.Seed] = r
	}
	return out, sc.Err()
}

// cmdCompare judges a change against its parent from two runs.jsonl files,
// pairing runs of the same workload and seed. Run the pairs alternately
// (parent first on odd seeds, change first on even ones) with the same
// benchmark code and settings on both sides. It prints one row per
// workload and metric and exits 1 when any metric regressed.
func cmdCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.jsonl new.jsonl")
		return 2
	}
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	cur, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(w, "%-18s %-19s %28s %28s %8s %6s  %s\n", "workload", "metric", "base median [q1 q3]", "new median [q1 q3]", "change", "wins", "verdict")
	for _, wl := range man.Workloads {
		var seeds []uint64
		for s := range base[wl.Name] {
			if _, ok := cur[wl.Name][s]; ok {
				seeds = append(seeds, s)
			}
		}
		slices.Sort(seeds)
		if len(seeds) == 0 {
			fmt.Fprintf(w, "%-18s no paired runs\n", wl.Name)
			continue
		}
		for _, d := range man.EndToEnd {
			var b, c []float64
			for _, s := range seeds {
				b = append(b, base[wl.Name][s].Result.Metrics[d.Name].Value)
				c = append(c, cur[wl.Name][s].Result.Metrics[d.Name].Value)
			}
			v, wins := judge(d, b, c)
			if v == "regressed" {
				code = 1
			}
			bq1, bm, bq3 := quartiles(b)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-18s %-19s %10.4g [%7.4g %7.4g] %10.4g [%7.4g %7.4g] %+7.2f%% %3d/%-2d  %s\n",
				wl.Name, d.Name, bm, bq1, bq3, cm, cq1, cq3, 100*(cm-bm)/math.Abs(bm), wins, len(b), v)
		}
	}
	return code
}
