package workloadspec

import (
	"math"
	"testing"

	"dessched/internal/job"
)

// streamTestSpec exercises every generation mode at once: a diurnal thinned
// class, a multi-period class with partial fraction, a plain point-demand
// class, and a spec-level burst shared by all three.
func streamTestSpec() *Spec {
	pf := 0.5
	return &Spec{
		Schema:   SchemaV1,
		Name:     "stream-test",
		Duration: 30,
		Seed:     11,
		Bursts:   []BurstSpec{{Start: 4, End: 9, Multiplier: 2}},
		Classes: []ClassSpec{
			{
				Name: "interactive", Rate: 40, Deadline: 0.15,
				Demand:  DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000},
				Diurnal: &DiurnalSpec{Amplitude: 0.5, Period: 10},
			},
			{
				Name: "batch", Rate: 15, Deadline: 0.5,
				Demand:          DemandSpec{Dist: "uniform", Min: 50, Max: 400},
				PartialFraction: &pf,
				Periods:         []PeriodSpec{{Start: 10, End: 20, Rate: 30}},
			},
			{
				Name: "steady", Rate: 5, Deadline: 0.3,
				Demand: DemandSpec{Dist: "point", Value: 200},
			},
		},
	}
}

func drainSpec(t *testing.T, s job.Source, step float64) []job.Job {
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

// TestThinnedSpecPresizeWithinAppend: a thinned class's peak rate only
// bounds its arrivals — under a 10× flash crowd over 1% of the horizon,
// peak × horizon is about nine times the jobs drawn — so the compiled
// slice holds no more capacity than append alone reaches for its jobs.
func TestThinnedSpecPresizeWithinAppend(t *testing.T) {
	s := &Spec{
		Schema: SchemaV1, Name: "flash-crowd", Duration: 100, Seed: 3,
		Bursts: []BurstSpec{{Start: 50, End: 51, Multiplier: 10}},
		Classes: []ClassSpec{{
			Name: "web", Rate: 100, Deadline: 0.15,
			Demand: DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000},
		}},
	}
	jobs, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var grown []job.Job
	for range jobs {
		grown = append(grown, job.Job{})
	}
	if cap(jobs) > cap(grown) {
		t.Errorf("%d jobs compiled into capacity %d; append alone reaches %d", len(jobs), cap(jobs), cap(grown))
	}
}

// TestStreamMatchesCompile pins the streamed merge bit-identical to Compile
// across window sizes, including a single all-at-once pull.
func TestStreamMatchesCompile(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"multi-class":   streamTestSpec(),
		"paper-default": func() *Spec { s := PaperDefault(120); s.Duration = 20; return s }(),
	} {
		spec := spec
		t.Run(name, func(t *testing.T) {
			want, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []float64{0.01, 0.4, 3, 1e6} {
				st, err := NewStream(spec)
				if err != nil {
					t.Fatal(err)
				}
				sameJobs(t, append([]job.Job(nil), drainSpec(t, st, step)...), want)
			}
		})
	}
}

// TestStreamInvalidSpec verifies NewStream rejects what Compile rejects.
func TestStreamInvalidSpec(t *testing.T) {
	s := streamTestSpec()
	s.Classes[0].Rate = -1
	if _, err := NewStream(s); err == nil {
		t.Fatal("NewStream accepted a spec Compile rejects")
	}
}
