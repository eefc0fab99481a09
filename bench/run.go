package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"dessched"
)

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
}

// maxWorkers caps fleet workers: the benchmark's reference host has two
// cores, and every figure is comparable only at a fixed worker count.
const maxWorkers = 2

const (
	// minSetupTime is how long timedSetup keeps rebuilding a repeat's
	// inputs, so that a set-up of a few microseconds is timed well above
	// the clock's resolution and the first-touch cost of one build.
	minSetupTime = 5 * time.Millisecond
	maxSetupReps = 100_000
)

// mode is one way of running a workload's inputs. Every mode of a workload
// must produce the same result bit for bit.
type mode struct {
	name    string
	workers int  // fleet Workers; 1 on single-server workloads
	armed   bool // always-on observability: 1% replan span sampling + flight recorder
	traced  bool // the benchmark's policy and source wrappers, with replay
}

// modesFor lists the modes one round runs. The end-to-end pass pairs plain
// with armed runs; the traced pass adds the traced run and, on fleets, a
// one-worker plain run for the parallel speed-up. The first mode is also
// the warm-up.
func modesFor(w *workload, trace bool) []mode {
	wmax := 1
	if w.fleet {
		wmax = min(maxWorkers, runtime.GOMAXPROCS(0))
	}
	plain := mode{name: "plain", workers: wmax}
	armed := mode{name: "armed", workers: wmax, armed: true}
	if !trace {
		return []mode{plain, armed}
	}
	traced := mode{name: "traced", workers: 1, traced: true}
	if !w.fleet {
		return []mode{plain, traced, armed}
	}
	return []mode{plain, traced, {name: "plain-w1", workers: 1}, armed}
}

// newSampler is the always-on tracer configuration the repository ships:
// every span kept except Online-QE replans, which are sampled at 1%.
func newSampler() *dessched.SpanTracer {
	return dessched.NewSamplingSpanTracer(dessched.SpanSampleConfig{
		Seed: 1, Rate: 1, Rates: map[string]float64{"replan": 0.01},
	})
}

// runOnce runs one repeat's inputs in one mode.
func runOnce(w *workload, in *inputs, m mode, t *tracer) (outcome, error) {
	if !w.fleet {
		p := in.policy
		var opts []dessched.SimOption
		if m.armed {
			opts = append(opts, dessched.WithSpans(newSampler()),
				dessched.WithFlight(dessched.NewFlightRecorder(dessched.FlightConfig{})))
		}
		if m.traced {
			p = t.wrapPolicy(p)
		}
		res, err := dessched.Simulate(in.server, in.jobs, p, opts...)
		return simOutcome(res), err
	}
	cfg := in.cluster
	cfg.Workers = m.workers
	src := in.source
	if m.armed {
		cfg.Instrument = &dessched.ClusterInstrument{
			Tracer: newSampler(),
			Flight: dessched.NewFlightRecorder(dessched.FlightConfig{}),
		}
	}
	if m.traced {
		// The "des" spec's config adjustment is already in the template
		// (fleetServer), so a custom factory changes nothing but the wrapper.
		cfg.NewPolicy = func() dessched.Policy { return t.wrapPolicy(dessched.NewDES(dessched.CDVFS)) }
		src = &tracedSource{inner: src, t: t}
	}
	res, err := dessched.SimulateClusterStream(cfg, src)
	return clusterOutcome(res), err
}

// sample is one timed repeat.
type sample struct {
	Mode       string  `json:"mode"`
	Round      int     `json:"round"`
	Workers    int     `json:"workers"`
	SetupS     float64 `json:"setup_s"`
	ProbeMs    float64 `json:"probe_ms"` // mean of the probes before and after the run
	RunS       float64 `json:"run_s"`
	Jobs       int     `json:"jobs"`
	Events     int     `json:"events"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	PeakRSS    int64   `json:"peak_rss_bytes"`
}

// measurement is everything one run of the benchmark observed.
type measurement struct {
	samples   []sample
	ref       outcome
	attempted int
	failed    int
	errs      []string
}

// of returns the samples of one mode, in round order.
func (m *measurement) of(mode string) []sample {
	var out []sample
	for _, s := range m.samples {
		if s.Mode == mode {
			out = append(out, s)
		}
	}
	return out
}

// pairs returns f applied to the samples of modes a and b from the same
// rounds, in round order.
func (m *measurement) pairs(a, b string, f func(s sample) float64) (x, y []float64) {
	byRound := map[int]sample{}
	for _, s := range m.of(b) {
		byRound[s.Round] = s
	}
	for _, s := range m.of(a) {
		if o, ok := byRound[s.Round]; ok {
			x = append(x, f(s))
			y = append(y, f(o))
		}
	}
	return x, y
}

// timedSetup builds one repeat's inputs, rebuilding until minSetupTime has
// passed, and returns the last build and the mean time per build.
func timedSetup(w *workload, o *options) (*inputs, float64, error) {
	start := time.Now()
	for n := 1; ; n++ {
		in, err := w.setup(o)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		if el := time.Since(start); el >= minSetupTime || n >= maxSetupReps {
			return in, el.Seconds() / float64(n), nil
		}
	}
}

// measure runs a workload closed-loop, one simulation at a time: a warm-up,
// then rounds of every mode back to back, alternating the order of the
// modes from round to round, until the next round would overrun
// o.seconds. Each repeat builds its inputs, collects garbage, and runs the
// timed simulation between two host-speed probes; its result is checked
// against the first one.
func measure(w *workload, o *options, t *tracer) (*measurement, error) {
	modes := modesFor(w, o.trace)
	minRounds := 3
	if o.trace {
		minRounds = 2
	}
	if o.smoke {
		minRounds = 1
	}
	m := &measurement{}
	var chk checker

	repeat := func(md mode, round int) error {
		m.attempted++
		root := t.open(spRepeat, -1)
		defer t.close(root)
		resetPeakRSS()
		sp := t.open(spSetup, root)
		in, setupS, err := timedSetup(w, o)
		t.close(sp)
		if err != nil {
			return err
		}
		runtime.GC()
		sp = t.open(spProbe, root)
		before := probe(md.workers)
		t.close(sp)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		run := t.open(spRun, root)
		if md.traced {
			t.beginRun(run)
		}
		start := time.Now()
		out, err := runOnce(w, in, md, t)
		runS := time.Since(start).Seconds()
		t.close(run)
		runtime.ReadMemStats(&ms1)
		rss := peakRSSBytes()
		sp = t.open(spProbe, root)
		after := probe(md.workers)
		t.close(sp)
		if md.traced {
			t.stats.Repeats++
			t.stats.WallNs += int64(runS * 1e9)
		}
		if err == nil {
			err = chk.check(out, md.name)
		}
		if err == nil && rss > rssLimit {
			err = fmt.Errorf("%s: peak RSS %d MiB breaks the %d MiB bound", md.name, rss>>20, rssLimit>>20)
		}
		if err != nil {
			m.failed++
			m.errs = append(m.errs, err.Error())
			return nil
		}
		if round >= 0 {
			m.samples = append(m.samples, sample{
				Mode: md.name, Round: round, Workers: md.workers, SetupS: setupS, ProbeMs: (before + after) / 2, RunS: runS,
				Jobs: out.Jobs, Events: out.Events,
				AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc, GCCycles: ms1.NumGC - ms0.NumGC, PeakRSS: rss,
			})
		}
		return nil
	}

	if err := repeat(modes[0], -1); err != nil { // warm-up: checked, not timed
		return nil, err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var last time.Duration
	for round := 0; ; round++ {
		if round >= minRounds && (o.smoke || time.Since(start)+last > budget) {
			break
		}
		r0 := time.Now()
		order := modes
		if round%2 == 1 {
			order = slices.Clone(modes)
			slices.Reverse(order)
		}
		for _, md := range order {
			if err := repeat(md, round); err != nil {
				return nil, err
			}
		}
		last = time.Since(r0)
	}
	if chk.ref == nil {
		return nil, fmt.Errorf("%s: every repeat failed: %v", w.name, m.errs)
	}
	m.ref = *chk.ref
	return m, nil
}
