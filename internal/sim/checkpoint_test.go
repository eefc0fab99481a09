package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/core"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/quality"
	"dessched/internal/sim"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// checkpointScenario is one workload/config shape the golden resume test
// must hold under.
type checkpointScenario struct {
	name  string
	cfg   func() sim.Config
	jobs  int
	seed  uint64
	chaos bool // add a seeded chaos schedule (faults + budget drops)
}

func checkpointScenarios() []checkpointScenario {
	plain := func() sim.Config {
		cfg := sim.PaperConfig()
		cfg.Cores = 4
		cfg.Budget = 80
		return cfg
	}
	retrying := func() sim.Config {
		cfg := chaoticConfig()
		cfg.Retry = sim.RetryPolicy{MaxAttempts: 3, Backoff: 0.02, MaxBackoff: 0.2}
		return cfg
	}
	return []checkpointScenario{
		{name: "plain", cfg: plain, jobs: 150, seed: 7},
		{name: "chaotic-admission", cfg: chaoticConfig, jobs: 200, seed: 11},
		{name: "chaos-with-retries", cfg: retrying, jobs: 200, seed: 11, chaos: true},
	}
}

func (sc checkpointScenario) build(t testing.TB) (sim.Config, []sim.Fault, []workload.Burst) {
	t.Helper()
	cfg := sc.cfg()
	var bursts []workload.Burst
	if sc.chaos {
		cc := sim.DefaultChaos(sc.seed, 2, cfg.Cores)
		cc.MTTR = 0.3
		plan, err := cc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		bursts = plan.Apply(&cfg)
	}
	core.ApplyArch(&cfg, core.CDVFS)
	cfg.CollectJobs = true
	return cfg, cfg.Faults, bursts
}

func (sc checkpointScenario) stream(t testing.TB, bursts []workload.Burst) []job.Job {
	t.Helper()
	wl := workload.DefaultConfig(float64(sc.jobs))
	wl.Duration = 2
	wl.Seed = sc.seed
	wl.Bursts = bursts
	jobs, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// sameResult asserts bit-identity (Float64bits for floats) of everything a
// Result carries, including per-job outcomes.
func sameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	floats := [][3]any{
		{"Quality", got.Quality, want.Quality},
		{"Energy", got.Energy, want.Energy},
		{"IdleEnergy", got.IdleEnergy, want.IdleEnergy},
		{"PeakPower", got.PeakPower, want.PeakPower},
		{"SkippedTime", got.SkippedTime, want.SkippedTime},
		{"RetryQuality", got.RetryQuality, want.RetryQuality},
		{"Span", got.Span, want.Span},
	}
	for _, f := range floats {
		if !bitsEqual(f[1].(float64), f[2].(float64)) {
			t.Errorf("%s: %s = %v, want %v", label, f[0], f[1], f[2])
		}
	}
	ints := [][3]any{
		{"Arrived", got.Arrived, want.Arrived},
		{"Completed", got.Completed, want.Completed},
		{"Deadlined", got.Deadlined, want.Deadlined},
		{"Discarded", got.Discarded, want.Discarded},
		{"Shed", got.Shed, want.Shed},
		{"Requeued", got.Requeued, want.Requeued},
		{"Retried", got.Retried, want.Retried},
		{"Abandoned", got.Abandoned, want.Abandoned},
		{"Invocation", got.Invocation, want.Invocation},
		{"Events", got.Events, want.Events},
		{"BudgetViolations", got.BudgetViolations, want.BudgetViolations},
	}
	for _, f := range ints {
		if f[1].(int) != f[2].(int) {
			t.Errorf("%s: %s = %d, want %d", label, f[0], f[1], f[2])
		}
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d job outcomes, want %d", label, len(got.Jobs), len(want.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i] != want.Jobs[i] {
			t.Fatalf("%s: job outcome %d differs: %+v vs %+v", label, i, got.Jobs[i], want.Jobs[i])
		}
	}
}

// checkpointed runs the workload as one session snapshotted every `every`
// seconds through sink, then finishes it.
func checkpointed(cfg sim.Config, jobs []job.Job, every float64, sink func(*sim.Snapshot) error) (sim.Result, error) {
	st, err := sim.Start(cfg, jobs, core.New(core.CDVFS))
	if err != nil {
		return sim.Result{}, err
	}
	if err := st.Checkpoint(every, sink); err != nil {
		return sim.Result{}, err
	}
	return st.Finish()
}

// resumed restores a snapshot and finishes the session.
func resumed(cfg sim.Config, p sim.Policy, snap *sim.Snapshot) (sim.Result, error) {
	st, err := sim.RestoreStream(cfg, p, snap)
	if err != nil {
		return sim.Result{}, err
	}
	return st.Finish()
}

// Checkpointing must be invisible: a run snapshotted every 100–500 ms is
// bit-identical to the same run without checkpointing, and takes as many
// snapshots as the sim-time checkpoint timer it replaced did.
func TestCheckpointTransparent(t *testing.T) {
	// Snapshot counts of the retired timer, per period, on every scenario.
	timer := map[float64]int{0.1: 21, 0.2: 10, 0.3: 7, 0.5: 4}
	for _, sc := range checkpointScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			cfg, _, bursts := sc.build(t)
			jobs := sc.stream(t, bursts)

			base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
			if err != nil {
				t.Fatal(err)
			}
			for every, want := range timer {
				n := 0
				got, err := checkpointed(cfg, jobs, every, func(*sim.Snapshot) error { n++; return nil })
				if err != nil {
					t.Fatal(err)
				}
				if n != want {
					t.Errorf("every %g s: %d snapshots, want %d", every, n, want)
				}
				sameResult(t, fmt.Sprintf("checkpointed every %g s", every), got, base)
			}
		})
	}
}

// Resuming from any snapshot — early, middle, or late — must reproduce the
// uninterrupted run bit for bit, including through a JSON encode/decode
// round trip of the snapshot.
func TestResumeBitIdentical(t *testing.T) {
	for _, sc := range checkpointScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			cfg, _, bursts := sc.build(t)
			jobs := sc.stream(t, bursts)

			base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
			if err != nil {
				t.Fatal(err)
			}

			var snaps []*sim.Snapshot
			if _, err := checkpointed(cfg, jobs, 0.2, func(s *sim.Snapshot) error { snaps = append(snaps, s); return nil }); err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("need at least 2 snapshots, got %d", len(snaps))
			}
			for _, k := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				// Round-trip through the serialized form: JSON carries
				// float64 exactly, so decode(encode(s)) resumes identically.
				b, err := sim.EncodeSnapshot(snaps[k])
				if err != nil {
					t.Fatal(err)
				}
				snap, err := sim.DecodeSnapshot(b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := resumed(cfg, core.New(core.CDVFS), snap)
				if err != nil {
					t.Fatalf("resume from snapshot %d: %v", k, err)
				}
				sameResult(t, sc.name, got, base)
			}
		})
	}
}

// A sink error aborts the run — the crash model — and the last delivered
// snapshot resumes to the uninterrupted result.
func TestResumeAfterCrash(t *testing.T) {
	sc := checkpointScenarios()[2] // chaos + retries: the hardest case
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)

	base, err := sim.Run(cfg, jobs, core.New(core.CDVFS))
	if err != nil {
		t.Fatal(err)
	}

	crash := errors.New("disk full")
	var last *sim.Snapshot
	n := 0
	sink := func(s *sim.Snapshot) error {
		if n++; n > 2 {
			return crash
		}
		last = s
		return nil
	}
	if _, err := checkpointed(cfg, jobs, 0.2, sink); !errors.Is(err, crash) {
		t.Fatalf("crashed run returned %v, want the sink error", err)
	}
	if last == nil {
		t.Fatal("no snapshot survived the crash")
	}
	got, err := resumed(cfg, core.New(core.CDVFS), last)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "crash-resume", got, base)
}

// The checkpoint driver refuses a period that is not positive and finite,
// or too small to move the clock, and a nil sink, with typed errors.
func TestCheckpointRejectsBadPeriodOrSink(t *testing.T) {
	sc := checkpointScenarios()[0]
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)
	var ce *cfgerr.Error
	for _, every := range []float64{0, -1, math.NaN(), math.Inf(1), 1e-300} {
		if _, err := checkpointed(cfg, jobs, every, func(*sim.Snapshot) error { return nil }); !errors.As(err, &ce) {
			t.Errorf("period %g: err = %v, want *cfgerr.Error", every, err)
		}
	}
	if _, err := checkpointed(cfg, jobs, 0.2, nil); !errors.As(err, &ce) {
		t.Errorf("nil sink: err = %v, want *cfgerr.Error", err)
	}
}

// Restoring must refuse a snapshot taken under different physics or policy.
func TestResumeRejectsMismatch(t *testing.T) {
	sc := checkpointScenarios()[0]
	cfg, _, bursts := sc.build(t)
	jobs := sc.stream(t, bursts)

	var snap *sim.Snapshot
	if _, err := checkpointed(cfg, jobs, 0.2, func(s *sim.Snapshot) error { snap = s; return nil }); err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot taken")
	}

	wrongBudget := cfg
	wrongBudget.Budget = cfg.Budget * 2
	var ce *cfgerr.Error
	if _, err := resumed(wrongBudget, core.New(core.CDVFS), snap); !errors.As(err, &ce) {
		t.Errorf("resume under a different budget: err = %v, want *cfgerr.Error", err)
	}
	if _, err := resumed(cfg, core.NewPlainRR(core.CDVFS), snap); err == nil {
		t.Error("resume under a different policy accepted")
	}
	// The queue order and the class priorities decide which job the policy
	// sees first, so a drift in either is a different experiment.
	wrongOrder := cfg
	wrongOrder.QueueOrder = sim.OrderSJF
	if _, err := resumed(wrongOrder, core.New(core.CDVFS), snap); !errors.As(err, &ce) {
		t.Errorf("resume under a different queue order: err = %v, want *cfgerr.Error", err)
	}
	wrongTiers := cfg
	wrongTiers.ClassPriority = map[string]int{"gold": 1}
	if _, err := resumed(wrongTiers, core.New(core.CDVFS), snap); !errors.As(err, &ce) {
		t.Errorf("resume under different class priorities: err = %v, want *cfgerr.Error", err)
	}
}

// The fingerprint hashes the queue order and the class priorities only
// when they are set, so FCFS runs without priorities keep the fingerprint
// they had before either field was hashed; a disabled admission stage's
// queue bound, which no run reads, leaves it alone too; and it hashes
// every other field that can change an outcome.
func TestFingerprintQueueOrderAndPriorities(t *testing.T) {
	cfg := sim.PaperConfig()
	const fcfs = 0x98a7bccbc2f7741f // PaperConfig under "des", as fingerprinted before either field was hashed
	if got := sim.FingerprintConfig(&cfg, "des"); got != fcfs {
		t.Errorf("FCFS fingerprint %#x, want %#x", got, uint64(fcfs))
	}
	off := cfg
	off.Admission = admission.Config{Policy: admission.None, MaxQueue: 16}
	if got := sim.FingerprintConfig(&off, "des"); got != fcfs {
		t.Errorf("admission none with max_queue 16: fingerprint %#x, want the plain %#x", got, uint64(fcfs))
	}
	seen := map[uint64]string{fcfs: "fcfs"}
	for _, o := range []sim.QueueOrder{sim.OrderSJF, sim.OrderEDF, sim.OrderPrioSJF, sim.OrderPrioEDF} {
		c := cfg
		c.QueueOrder = o
		fp := sim.FingerprintConfig(&c, "des")
		if prev, dup := seen[fp]; dup {
			t.Errorf("order %v fingerprints like %s", o, prev)
		}
		seen[fp] = o.String()
	}
	for _, tiers := range []map[string]int{{"gold": 1}, {"gold": 2}, {"gold": 1, "bulk": 0}} {
		c := cfg
		c.ClassPriority = tiers
		fp := sim.FingerprintConfig(&c, "des")
		if prev, dup := seen[fp]; dup {
			t.Errorf("priorities %v fingerprint like %s", tiers, prev)
		}
		seen[fp] = fmt.Sprint(tiers)
	}

	// No field can be forgotten: changing any leaf of a config with every
	// slice and map populated must move the fingerprint, unless the field
	// is outcome-free.
	full := func() sim.Config {
		c := sim.PaperConfig()
		c.Ladder = power.Ladder{0.5, 1, 2}
		c.ClassQuality = map[string]quality.Function{"gold": quality.NewExponential(0.01)}
		c.ClassPriority = map[string]int{"gold": 1}
		c.Faults = []sim.Fault{{Core: 1, Start: 1, End: 2, SpeedFactor: 0.5}}
		c.BudgetFaults = []sim.BudgetFault{{Start: 1, End: 2, Fraction: 0.5}}
		c.Admission = admission.Config{Policy: admission.TailDrop, MaxQueue: 16}
		return c
	}
	outcomeFree := map[string]bool{"Observer": true, "Recorder": true, "Context": true, "CollectJobs": true}
	swaps := map[string]any{
		"Quality":  quality.NewExponential(0.004),
		"Recorder": nopRecorder{},
		"Context":  context.Background(),
	}
	base := full()
	want := sim.FingerprintConfig(&base, "des")
	eachFieldChange(t, full, swaps, func(path string, c *sim.Config) {
		if got := sim.FingerprintConfig(c, "des"); outcomeFree[path] != (got == want) {
			t.Errorf("changing %s: fingerprint %#x, base %#x (outcome-free: %v)", path, got, want, outcomeFree[path])
		}
	})
}

type nopRecorder struct{}

func (nopRecorder) RecordExec(int, yds.Segment) {}

// eachFieldChange calls check once per leaf field of the config newCfg
// builds, with a fresh config in which only that leaf was changed. Structs
// recurse, non-empty slices recurse into their elements, and every other
// value is a leaf: a number or bool changes value, a string grows, an
// empty slice gains an element, a map gains an entry, and a nil func or
// pointer gets one. An interface leaf takes its value from swaps, keyed by
// path; a leaf with no way to change it fails the test.
func eachFieldChange[C any](t *testing.T, newCfg func() C, swaps map[string]any, check func(path string, c *C)) {
	t.Helper()
	var walk func(v reflect.Value, path string, leaf func(string, reflect.Value))
	walk = func(v reflect.Value, path string, leaf func(string, reflect.Value)) {
		switch {
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(v.Field(i), name, leaf)
			}
		case v.Kind() == reflect.Slice && v.Len() > 0:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf)
			}
		default:
			leaf(path, v)
		}
	}
	change := func(path string, v reflect.Value) {
		if s, ok := swaps[path]; ok {
			v.Set(reflect.ValueOf(s))
			return
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case reflect.Map:
			val := reflect.Zero(v.Type().Elem())
			if it := v.MapRange(); it.Next() {
				val = it.Value()
			}
			if v.IsNil() {
				v.Set(reflect.MakeMap(v.Type()))
			}
			v.SetMapIndex(reflect.ValueOf("added").Convert(v.Type().Key()), val)
		case reflect.Func:
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
				panic("never called")
			}))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("%s: no way to change a %s field; add a swap", path, v.Kind())
		}
	}
	var paths []string
	c := newCfg()
	walk(reflect.ValueOf(&c).Elem(), "", func(p string, _ reflect.Value) { paths = append(paths, p) })
	for k, path := range paths {
		c := newCfg()
		i := 0
		walk(reflect.ValueOf(&c).Elem(), "", func(p string, v reflect.Value) {
			if i == k {
				change(p, v)
			}
			i++
		})
		check(path, &c)
	}
}
