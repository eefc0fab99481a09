// Command bench is the repository's benchmark: four workloads across the
// single-server engine and the streamed fleet, measured closed-loop with
// host-clock calibration (the end-to-end pass), and a traced pass that
// splits the wall time by layer. See README.md for the workloads, the
// metrics and how to read the trace.
//
//	bash bench/run.sh                                   # every workload, both passes
//	bash bench/run.sh --workload paper-heavy --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh compare base.jsonl new.jsonl      # judge a change
//
// A single-workload run prints its metrics and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}; it exits non-zero
// when any output check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// rssLimit is the bounded-memory contract: no workload may touch 1 GiB.
const rssLimit = 1 << 30

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the full report of one run, appended to recordPath.
type runRecord struct {
	Schema      string   `json:"schema"`
	Workload    string   `json:"workload"`
	Seed        uint64   `json:"seed"`
	Trace       int      `json:"trace"`
	Seconds     float64  `json:"seconds"`
	Smoke       bool     `json:"smoke,omitempty"`
	Host        hostInfo `json:"host"`
	Fingerprint string   `json:"fingerprint"`
	Errors      []string `json:"errors,omitempty"`
	Samples     []sample `json:"samples"`
	Result      result   `json:"result"`
}

const recordSchema = "desbench-run/v1"

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "compare" {
		os.Exit(cmdCompare(args[1:], os.Stdout))
	}
	os.Exit(cmdBench(args))
}

// Every run's outputs go under buildDir: the spans of a traced pass, and
// the JSON-lines file of run records that compare reads.
const (
	buildDir   = ".bench_build"
	recordPath = buildDir + "/runs.jsonl"
)

func cmdBench(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: every workload, each pass in its own child process)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "seconds one run measures (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: the end-to-end pass; 1: the traced pass and its per-layer metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and one round: checks the wiring, measures nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	o.trace = *trace == 1
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.seconds <= 0 {
		o.seconds = float64(man.RunSeconds)
	}
	if o.workload == "" {
		return runAll(&o, man)
	}
	rec, tf, err := runWorkload(&o, man)
	if err == nil && tf != nil {
		err = writeTrace(filepath.Join(buildDir, "trace-"+rec.Workload+".json"), *tf)
	}
	if err == nil {
		err = appendRecord(recordPath, rec)
	}
	if err == nil {
		err = report(os.Stdout, rec, man.defs(o.trace))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload in one pass and returns its record and,
// on the traced pass, its spans.
func runWorkload(o *options, man *manifest) (runRecord, *traceFile, error) {
	w, err := workloadNamed(o.workload)
	if err != nil {
		return runRecord{}, nil, err
	}
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	m, err := measure(w, o, t)
	if err != nil {
		return runRecord{}, nil, err
	}
	var vals map[string]float64
	if o.trace {
		if t.stats.Mismatches > 0 {
			m.failed++
			m.errs = append(m.errs, fmt.Sprintf("replay: %d plans differ from the ones DES installed", t.stats.Mismatches))
		}
		vals = perLayer(w, m, &t.stats)
	} else {
		vals = endToEnd(m)
	}
	metrics, err := label(man.defs(o.trace), vals)
	if err != nil {
		return runRecord{}, nil, err
	}
	pass := 0
	if o.trace {
		pass = 1
	}
	rec := runRecord{
		Schema: recordSchema, Workload: w.name, Seed: o.seed, Trace: pass, Seconds: o.seconds,
		Smoke: o.smoke, Host: currentHost(), Fingerprint: fmt.Sprintf("%016x", m.ref.fingerprint()),
		Errors: m.errs, Samples: m.samples,
		Result: result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics},
	}
	if !o.trace {
		return rec, nil, nil
	}
	return rec, &traceFile{Schema: "desbench-trace/v1", Workload: w.name, Seed: o.seed, SpanCap: spanCap, Layers: vals, Spans: t.spans}, nil
}

func appendRecord(path string, rec runRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report writes a run's output: the host, the host-speed probe of every
// repeat and every metric with its unit, then the result line.
func report(w io.Writer, rec runRecord, defs []metricDef) error {
	pass := "end-to-end"
	if rec.Trace == 1 {
		pass = "traced"
	}
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  pass %s  seconds %g\n", rec.Workload, rec.Seed, pass, rec.Seconds)
	fmt.Fprintf(w, "host %s %s/%s  nproc %d  GOMAXPROCS %d\n", h.GoVersion, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS)
	probes := make([]string, len(rec.Samples))
	for i, s := range rec.Samples {
		probes[i] = strconv.FormatFloat(s.ProbeMs, 'f', 2, 64)
	}
	fmt.Fprintf(w, "repeats %d timed (+1 warm-up)  fingerprint %s\n", len(rec.Samples), rec.Fingerprint)
	fmt.Fprintf(w, "probe_ms %s\n", strings.Join(probes, " "))
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit)
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload's end-to-end and traced passes, each in its
// own child process so that peak RSS is the workload's own, one after the
// other; it prints each child's report, then one table of every metric.
// Each child appends its record to recordPath.
func runAll(o *options, man *manifest) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type pass struct {
		workload string
		trace    int
	}
	results := map[pass]result{}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := []string{
				"--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
				"--smoke=" + strconv.FormatBool(o.smoke),
			}
			var buf bytes.Buffer
			cmd := exec.Command(exe, args...)
			cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
			cmd.Stderr = os.Stderr
			err := cmd.Run()
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace %d printed no result: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if err != nil || !res.Correct {
				code = 1
			}
			results[pass{w.name, trace}] = res
		}
	}

	fmt.Printf("\n%-30s", "metric")
	for _, w := range workloads {
		fmt.Printf(" %17s", w.name)
	}
	fmt.Println("  unit")
	for trace, defs := range [][]metricDef{man.EndToEnd, man.PerLayer} {
		for _, d := range defs {
			fmt.Printf("%-30s", d.Name)
			for _, w := range workloads {
				v := "-"
				if res, ok := results[pass{w.name, trace}]; ok {
					v = strconv.FormatFloat(res.Metrics[d.Name].Value, 'g', 6, 64)
				}
				fmt.Printf(" %17s", v)
			}
			fmt.Printf("  %s\n", d.Unit)
		}
	}
	return code
}
