package workload

import (
	"math"
	"math/rand/v2"
	"testing"

	"dessched/internal/job"
)

// drain pulls a stream to exhaustion with the given window step,
// concatenating every Next result.
func drain(t *testing.T, s *Stream, step float64) []job.Job {
	t.Helper()
	var all []job.Job
	for until := step; !s.Done(); until += step {
		all = append(all, s.Next(until)...)
		if until > 1e7 {
			t.Fatal("stream failed to drain")
		}
	}
	return all
}

func sameJobs(t *testing.T, got, want []job.Job) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("job count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Class != w.Class || g.Partial != w.Partial ||
			math.Float64bits(g.Release) != math.Float64bits(w.Release) ||
			math.Float64bits(g.Deadline) != math.Float64bits(w.Deadline) ||
			math.Float64bits(g.Demand) != math.Float64bits(w.Demand) {
			t.Fatalf("job %d: got %+v want %+v", i, g, w)
		}
	}
}

// TestStreamMatchesGenerate pins the streamed generator bit-identical to
// Generate across window sizes, including windows far smaller and far
// larger than the mean inter-arrival gap.
func TestStreamMatchesGenerate(t *testing.T) {
	cfgs := map[string]Config{
		"plain": DefaultConfig(120),
		"bursty": func() Config {
			c := DefaultConfig(80)
			c.Duration = 40
			c.Seed = 7
			c.Bursts = []Burst{{Start: 5, End: 12, Multiplier: 3}, {Start: 30, End: 35, Multiplier: 0.2}}
			return c
		}(),
		"sparse": func() Config {
			c := DefaultConfig(0.5)
			c.Duration = 100
			c.Seed = 3
			c.PartialFraction = 0.4
			return c
		}(),
	}
	for name, cfg := range cfgs {
		cfg := cfg
		if name == "plain" {
			cfg.Duration = 30
		}
		t.Run(name, func(t *testing.T) {
			want, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []float64{0.001, 0.25, 1, 17, 1e6} {
				s, err := NewStream(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameJobs(t, append([]job.Job(nil), drain(t, s, step)...), want)
			}
		})
	}
}

// TestStreamDoneExact verifies Done only flips when no further job exists,
// and that an exhausted stream keeps returning empty batches.
func TestStreamDoneExact(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Duration = 5
	want, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []job.Job
	for until := 0.5; until < 20; until += 0.5 {
		if s.Done() && len(got) != len(want) {
			t.Fatalf("Done reported early: %d of %d jobs", len(got), len(want))
		}
		got = append(got, s.Next(until)...)
	}
	if !s.Done() {
		t.Fatal("stream not Done after horizon")
	}
	if n := len(s.Next(1e9)); n != 0 {
		t.Fatalf("exhausted stream returned %d jobs", n)
	}
	sameJobs(t, got, want)
}

// TestWindowCap: a constant-rate window is presized from its Poisson
// mean, so Generate at paper-heavy's size fills the slice it first made
// (no regrowth) and reserves at most a few standard deviations past its
// jobs; a huge but valid process is capped at maxPresize.
func TestWindowCap(t *testing.T) {
	cfg := DefaultConfig(200)
	cfg.Duration = 150
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(jobs))
	if presize := WindowCap(math.Inf(1), s.arr); cap(jobs) != presize || presize < len(jobs) || float64(presize) > n+8*math.Sqrt(n) {
		t.Errorf("%d jobs in a slice of capacity %d; presize %d", len(jobs), cap(jobs), presize)
	}

	huge := NewArrivals(Process{Horizon: 1e6, Deadline: 1, Peak: 1e9, Demand: DefaultDemand.Sampler()}, rand.New(rand.NewPCG(1, 2)))
	if got := WindowCap(math.Inf(1), huge); got != maxPresize {
		t.Errorf("WindowCap of 10^15 expected arrivals = %d, want the cap %d", got, maxPresize)
	}
}

// TestSliceSource pins the slice adapter's windowing and Done semantics.
func TestSliceSource(t *testing.T) {
	jobs := []job.Job{
		{ID: 2, Release: 3.0, Deadline: 3.1, Demand: 1},
		{ID: 0, Release: 1.0, Deadline: 1.1, Demand: 1},
		{ID: 1, Release: 2.0, Deadline: 2.1, Demand: 1},
	}
	s := job.NewSliceSource(jobs)
	if s.Done() {
		t.Fatal("Done before any Next")
	}
	if got := s.Next(1.0); len(got) != 0 {
		t.Fatalf("Next(1.0) = %d jobs; release 1.0 is not < 1.0", len(got))
	}
	if got := s.Next(2.5); len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("Next(2.5) = %+v", got)
	}
	if s.Done() {
		t.Fatal("Done with a job pending")
	}
	if got := s.Next(100); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Next(100) = %+v", got)
	}
	if !s.Done() {
		t.Fatal("not Done after drain")
	}
}

// BenchmarkStreamNext pulls the fleet-paper workload's source: the paper's
// stream at 61,440 req/s (60 per server × 1,024 servers) in four 1 s
// windows, one per dispatch epoch.
func BenchmarkStreamNext(b *testing.B) {
	cfg := DefaultConfig(61440)
	cfg.Duration = 4
	jobs := 0
	for i := 0; i < b.N; i++ {
		s, err := NewStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for until := 1.0; until <= cfg.Duration; until++ {
			jobs += len(s.Next(until))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(jobs), "ns/job")
}
