package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// runs and finds BENCHMARK.json and the example specs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smokeOptions runs a workload at its -smoke size.
func smokeOptions(name string, trace bool) *options {
	return &options{workload: name, seed: 3, trace: trace, smoke: true}
}

// TestSmokeAllWorkloads runs both passes of every workload at smoke size:
// every output check passes, the last line is the result object with
// exactly its four keys and every metric BENCHMARK.json names, and the
// traced pass replays every plan DES installed.
func TestSmokeAllWorkloads(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, tf, err := runWorkload(smokeOptions(w.name, trace), man)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if (tf != nil) != trace {
				t.Errorf("%s trace=%v: spans returned: %v", w.name, trace, tf != nil)
			}
			var out bytes.Buffer
			if err := report(&out, rec, man.defs(trace)); err != nil {
				t.Fatal(err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace=%v: %+v\n%s", w.name, trace, res, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.name, err)
			}
			keys := make([]string, 0, len(last))
			for k := range last {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
				t.Errorf("%s: result keys %v, want %v", w.name, keys, want)
			}
			defs := man.defs(trace)
			if trace {
				if v := res.Metrics["core.replay_mismatch"].Value; v != 0 {
					t.Errorf("%s: %v replay mismatches", w.name, v)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(defs))
			}
		}
	}
}

// TestReplayPaperHeavyShort replays a short paper-heavy run, which takes
// both the step-2 exit and the water-fill + Online-QE path, and finds
// every replayed plan identical to the installed one and the traced result
// identical to the plain one.
func TestReplayPaperHeavyShort(t *testing.T) {
	w, err := workloadNamed("paper-heavy")
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(w.name, true)
	var chk checker
	tr := newTracer()
	for _, m := range []mode{{name: "plain", workers: 1}, {name: "traced", workers: 1, traced: true}} {
		in, _, err := timedSetup(w, o)
		if err != nil {
			t.Fatal(err)
		}
		tr.beginRun(tr.open(spRun, tr.open(spRepeat, -1)))
		out, err := runOnce(w, in, m, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := chk.check(out, m.name); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.stats
	if st.Mismatches != 0 {
		t.Errorf("%d replay mismatches", st.Mismatches)
	}
	if st.Invocations == 0 || st.BudgetBound == 0 || st.BudgetBound == st.Invocations {
		t.Errorf("replay did not cover both DES paths: %d invocations, %d budget-bound", st.Invocations, st.BudgetBound)
	}
	if st.ScheduleCalls == 0 || st.WaterfillCalls == 0 || st.OnlineCalls == 0 || st.RequestCalls == 0 {
		t.Errorf("a layer was never replayed: %+v", st)
	}
}

// TestCheckerRejectsDoctoredResult flips one number of a real result at a
// time; the checker must reject every doctored copy.
func TestCheckerRejectsDoctoredResult(t *testing.T) {
	w, err := workloadNamed("fleet-mixed-chaos")
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(w.name, false)
	in, _, err := timedSetup(w, o)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runOnce(w, in, mode{name: "plain", workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Classes) == 0 || out.Shed == 0 || out.Hedged == 0 {
		t.Fatalf("the smoke fleet should exercise classes, shedding and hedging: %+v", out)
	}
	var chk checker
	if err := chk.check(out, "reference"); err != nil {
		t.Fatal(err)
	}
	doctor := func(f func(o *outcome)) outcome {
		d := out
		d.Classes = slices.Clone(out.Classes)
		f(&d)
		return d
	}
	if err := chk.check(doctor(func(*outcome) {}), "copy"); err != nil {
		t.Fatalf("an untouched copy was rejected: %v", err)
	}
	cases := map[string]func(o *outcome){
		"events":              func(o *outcome) { o.Events++ },
		"outcome moved":       func(o *outcome) { o.Completed++; o.Deadlined-- },
		"completed":           func(o *outcome) { o.Completed++ },
		"class arrived":       func(o *outcome) { o.Classes[0].Arrived++ },
		"budget violation":    func(o *outcome) { o.BudgetViolations = 1 },
		"energy last bit":     func(o *outcome) { o.Energy = math.Nextafter(o.Energy, math.Inf(1)) },
		"class quality":       func(o *outcome) { o.Classes[1].Quality *= 1.5 },
		"hedge wins":          func(o *outcome) { o.HedgeWins-- },
		"class outcome moved": func(o *outcome) { o.Classes[0].Shed++; o.Classes[0].Completed-- },
	}
	for name, f := range cases {
		if err := chk.check(doctor(f), name); err == nil {
			t.Errorf("%s: doctored result accepted", name)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	if got := ratioOfSums([]float64{1, 2, 3}, []float64{2, 2, 2}); got != 1 {
		t.Errorf("ratioOfSums = %v, want 1", got)
	}
	if got := ratioOfSums([]float64{100, 1}, []float64{1, 1}); got != 50.5 {
		t.Errorf("ratioOfSums weights by duration: got %v, want 50.5", got)
	}
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	if got := pairMedian([]float64{2, 4, 9}, []float64{1, 2, 3}, ratio); got != 2 {
		t.Errorf("pairMedian = %v, want 2", got)
	}
	if got := pairMedian([]float64{3, 8, 1, 10}, []float64{1, 4, 1, 2}, ratio); got != 2.5 {
		t.Errorf("pairMedian over an even count = %v, want 2.5", got)
	}
	if got := percentile([]float64{5, 1, 3, 2, 4}, 0.99); got != 5 {
		t.Errorf("percentile p99 = %v, want 5", got)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * k
		}
		return out
	}
	for _, c := range []struct {
		name string
		cur  []float64
		want string
	}{
		{"faster everywhere", shift(1.05), "improved"},
		{"same", slices.Clone(base), "unchanged"},
		{"past the bound", shift(0.85), "regressed"},
		{"too few pairs", shift(1.05)[:5], "unresolved"},
	} {
		b := base[:len(c.cur)]
		if got, _ := judge(higher, b, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got, _ := judge(higher, noisy, noisy); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s, want unresolved", got)
	}

	// A simulated output is judged seed by seed: one seed worse by far less
	// than the file's bound is a regression, rounding noise is not.
	quality := metricDef{Name: "norm_quality", Better: "higher", Bound: 0.05}
	q := []float64{0.87, 0.86, 0.88}
	for _, c := range []struct {
		name string
		cur  []float64
		want string
	}{
		{"identical", slices.Clone(q), "unchanged"},
		{"rounding", []float64{0.87 * (1 + 1e-12), 0.86, 0.88}, "unchanged"},
		{"one seed 0.1% worse", []float64{0.87, 0.86 * 0.999, 0.88}, "regressed"},
		{"one seed better", []float64{0.87, 0.86, 0.881}, "improved"},
		{"better and worse", []float64{0.871, 0.859, 0.88}, "regressed"},
	} {
		if got, _ := judge(quality, q, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	// The overhead ratio is held to an absolute 0.05, whatever its bound in
	// BENCHMARK.json.
	overhead := metricDef{Name: "obs_overhead_ratio", Better: "lower", Bound: 0.5}
	ratios := []float64{1.02, 1.01, 1.03, 1.02, 1.02, 1.01, 1.03, 1.02, 1.02, 1.02}
	plus := func(d float64) []float64 {
		out := slices.Clone(ratios)
		for i := range out {
			out[i] += d
		}
		return out
	}
	if got, _ := judge(overhead, ratios, plus(0.06)); got != "regressed" {
		t.Errorf("overhead +0.06: %s, want regressed", got)
	}
	if got, _ := judge(overhead, ratios, plus(0.001)); got != "unchanged" {
		t.Errorf("overhead +0.001: %s, want unchanged", got)
	}
}
