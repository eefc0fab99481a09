package cluster

import (
	"reflect"
	"testing"

	"dessched/internal/job"
	"dessched/internal/sim"
	"dessched/internal/workloadspec"
)

// classedJob builds a release-sorted probe stream for dispatch tests.
func classedJob(id job.ID, rel float64, class string) job.Job {
	return job.Job{ID: id, Release: rel, Deadline: rel + 0.15, Demand: 100, Class: class}
}

func TestDispatchByClassPartitions(t *testing.T) {
	// Two classes over four servers: "a" owns [0,1], "b" owns [2,3], and
	// each partition round-robins internally.
	var jobs []job.Job
	for i := 0; i < 8; i++ {
		class := "a"
		if i%2 == 1 {
			class = "b"
		}
		jobs = append(jobs, classedJob(job.ID(i), float64(i)*0.01, class))
	}
	outages := make([][][]interval, 4)
	assign, rerouted := routeAll(ByClass, 4, 4, outages, []string{"a", "b"}, jobs)
	want := []int{0, 2, 1, 3, 0, 2, 1, 3} // a: 0,1,0,1… b: 2,3,2,3…
	if !reflect.DeepEqual(assign, want) {
		t.Errorf("by-class assignment %v, want %v", assign, want)
	}
	for i, m := range rerouted {
		if m {
			t.Errorf("job %d flagged rerouted with no outages", i)
		}
	}
}

func TestDispatchByClassUnlistedSpills(t *testing.T) {
	// Unlisted classes fall through to the global round-robin cursor over
	// the whole fleet, leaving the partition cursors untouched.
	jobs := []job.Job{
		classedJob(0, 0.00, ""),
		classedJob(1, 0.01, "stray"),
		classedJob(2, 0.02, ""),
		classedJob(3, 0.03, "a"),
		classedJob(4, 0.04, "stray"),
	}
	outages := make([][][]interval, 4)
	assign, _ := routeAll(ByClass, 4, 4, outages, []string{"a", "b"}, jobs)
	// Spills walk 0,1,2,3…; the lone "a" job pins to its partition start.
	want := []int{0, 1, 2, 0, 3}
	if !reflect.DeepEqual(assign, want) {
		t.Errorf("spill assignment %v, want %v", assign, want)
	}
}

func TestDispatchByClassOutagedPartitionSpills(t *testing.T) {
	// When every server of a class's partition is dark, its jobs spill to
	// the global cursor (flagged as reroutes) instead of stalling.
	jobs := []job.Job{
		classedJob(0, 1.0, "a"),
		classedJob(1, 1.1, "a"),
	}
	outages := make([][][]interval, 4)
	dark := [][]interval{{{0, 10}}, {{0, 10}}, {{0, 10}}, {{0, 10}}}
	outages[0], outages[1] = dark, dark // partition "a" = servers 0,1
	assign, rerouted := routeAll(ByClass, 4, 4, outages, []string{"a", "b"}, jobs)
	for i, s := range assign {
		if s != 2 && s != 3 {
			t.Errorf("job %d routed to dark server %d", i, s)
		}
		if !rerouted[i] {
			t.Errorf("job %d spilled out of its partition without a reroute flag", i)
		}
	}
}

// twoClassSpec is a bimodal interactive/batch workload for the by-class
// identity tests.
func twoClassSpec() *workloadspec.Spec {
	return &workloadspec.Spec{
		Schema:   workloadspec.SchemaV1,
		Name:     "byclass-two-class",
		Duration: 2,
		Seed:     17,
		Classes: []workloadspec.ClassSpec{
			{Name: "interactive", Rate: 80, Deadline: 0.15, Priority: 2,
				Demand: workloadspec.DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000}},
			{Name: "batch", Rate: 15, Deadline: 1, Priority: 1,
				Demand: workloadspec.DemandSpec{Dist: "uniform", Min: 200, Max: 800}},
		},
	}
}

// twoClassJobs compiles twoClassSpec.
func twoClassJobs(t *testing.T) []job.Job {
	t.Helper()
	jobs, err := workloadspec.Compile(twoClassSpec())
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestByClassStreamMatchesRunAcrossOrders pins the composition guarantee:
// by-class dispatch plus every ready-queue discipline produces
// bit-identical results whether the fleet is fed the compiled job slice or
// the spec's lazy stream, for any worker count.
func TestByClassStreamMatchesRunAcrossOrders(t *testing.T) {
	jobs := twoClassJobs(t)
	orders := []sim.QueueOrder{sim.OrderFCFS, sim.OrderSJF, sim.OrderEDF, sim.OrderPrioSJF, sim.OrderPrioEDF}
	for _, order := range orders {
		order := order
		t.Run(order.String(), func(t *testing.T) {
			cfg := testConfig(4)
			cfg.Dispatch = ByClass
			cfg.Classes = []string{"interactive", "batch"}
			cfg.Server.QueueOrder = order
			cfg.Server.ClassPriority = map[string]int{"interactive": 2, "batch": 1}
			cfg.GlobalBudget = 200
			cfg.Epoch = 0.5

			want, err := Run(cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Classes) == 0 {
				t.Fatal("run lost the class breakdown")
			}
			for _, workers := range []int{1, 4, 16} {
				cfg := cfg
				cfg.Workers = workers
				src, err := workloadspec.NewStream(twoClassSpec())
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunStream(cfg, src)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: by-class result over the lazy stream diverged from the job slice", workers)
				}
			}
		})
	}
}
