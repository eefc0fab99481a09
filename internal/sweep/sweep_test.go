package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dessched/internal/cluster"
	"dessched/internal/sim"
	"dessched/internal/workload"
	"dessched/internal/workloadspec"
)

func smallGrid() Grid {
	return Grid{
		Rates:    []float64{30, 60},
		Cores:    []int{4},
		Budgets:  []float64{80},
		Policies: []string{"des", "fcfs-wf"},
		Seeds:    []uint64{1, 2},
		Duration: 10,
	}
}

func TestCellsCanonicalOrder(t *testing.T) {
	cells := smallGrid().Cells()
	if len(cells) != 8 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// rates outermost, seeds innermost.
	if cells[0].Rate != 30 || cells[0].Policy != "des" || cells[0].Seed != 1 {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[1].Seed != 2 || cells[1].Policy != "des" {
		t.Errorf("cell 1 = %+v", cells[1])
	}
	if cells[2].Policy != "fcfs-wf" {
		t.Errorf("cell 2 = %+v", cells[2])
	}
	if cells[4].Rate != 60 {
		t.Errorf("cell 4 = %+v", cells[4])
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
	}
}

// TestDeterministicAcrossWorkers: identical reports (cell order and every
// float bit) no matter the worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	g := smallGrid()
	var base Report
	for i, workers := range []int{1, 4, 16} {
		rep, err := Run(context.Background(), g, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = rep
			continue
		}
		if len(rep.Cells) != len(base.Cells) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(rep.Cells), len(base.Cells))
		}
		for j := range rep.Cells {
			a, b := base.Cells[j], rep.Cells[j]
			if a.Cell != b.Cell {
				t.Errorf("workers=%d cell %d: params differ: %+v vs %+v", workers, j, a.Cell, b.Cell)
			}
			for _, p := range [][2]float64{
				{a.NormQuality, b.NormQuality},
				{a.Quality, b.Quality},
				{a.Energy, b.Energy},
				{a.PeakPower, b.PeakPower},
			} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Errorf("workers=%d cell %d: float differs: %v vs %v", workers, j, p[0], p[1])
				}
			}
			if a.Events != b.Events || a.Completed != b.Completed {
				t.Errorf("workers=%d cell %d: counters differ", workers, j)
			}
		}
	}
}

// TestClusterCellsDeterministic: the cluster path through the sweep is as
// deterministic as the single-server one.
func TestClusterCellsDeterministic(t *testing.T) {
	g := Grid{
		Rates:            []float64{120},
		Cores:            []int{4},
		Budgets:          []float64{80},
		Policies:         []string{"des"},
		Seeds:            []uint64{1, 2},
		Duration:         10,
		Servers:          4,
		GlobalBudgetFrac: 0.7,
	}
	a, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Cells {
		if math.Float64bits(a.Cells[j].Energy) != math.Float64bits(b.Cells[j].Energy) ||
			math.Float64bits(a.Cells[j].Quality) != math.Float64bits(b.Cells[j].Quality) {
			t.Errorf("cluster cell %d differs across worker counts", j)
		}
		if a.Cells[j].Servers != 4 {
			t.Errorf("cell %d servers = %d, want 4", j, a.Cells[j].Servers)
		}
	}
}

// TestStreamedClusterCellsMatchBatch pins the sweep's cluster cells, which
// pull their workload lazily, to cluster.Run over the materialized cell
// workload: identical quality/energy bits and counters per cell.
func TestStreamedClusterCellsMatchBatch(t *testing.T) {
	g := Grid{
		Rates:            []float64{120},
		Cores:            []int{4},
		Budgets:          []float64{80},
		Policies:         []string{"des"},
		Seeds:            []uint64{1, 2},
		Duration:         10,
		Servers:          4,
		GlobalBudgetFrac: 0.7,
	}
	streamed, err := Run(context.Background(), g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range streamed.Cells {
		wl := workload.DefaultConfig(b.Rate)
		wl.Duration = g.Duration
		wl.Seed = b.Seed
		jobs, err := workload.Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		server := sim.PaperConfig()
		server.Cores = b.Cores
		server.Budget = b.Budget
		a, err := cluster.Run(cluster.Config{
			Servers: g.Servers, Server: server, Policy: b.Policy,
			GlobalBudget: g.GlobalBudgetFrac * float64(g.Servers) * b.Budget,
		}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Quality) != math.Float64bits(b.Quality) ||
			math.Float64bits(a.Energy) != math.Float64bits(b.Energy) ||
			math.Float64bits(a.NormQuality) != math.Float64bits(b.NormQuality) ||
			a.Arrived != b.Arrived || a.Completed != b.Completed ||
			a.Deadlined != b.Deadlined || a.Shed != b.Shed || a.Events != b.Events {
			t.Errorf("cell %d: sweep cell diverged from cluster.Run\nrun  %+v\ncell %+v", j, a, b)
		}
	}
}

func TestTelemetrySnapshots(t *testing.T) {
	g := Grid{Rates: []float64{30}, Cores: []int{4}, Budgets: []float64{80},
		Policies: []string{"des"}, Seeds: []uint64{1}, Duration: 5}
	rep, err := Run(context.Background(), g, Options{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	snap := rep.Cells[0].Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot attached")
	}
	found := false
	for _, fam := range snap.Families {
		if fam.Name == "sim_norm_quality" {
			found = true
		}
	}
	if !found {
		t.Error("snapshot lacks sim_norm_quality")
	}

	// Cluster cells get the merged per-server registry: cluster_* summary
	// gauges plus server-labeled sim_* families.
	g.Servers = 2
	rep, err = Run(context.Background(), g, Options{Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	snap = rep.Cells[0].Telemetry
	if snap == nil {
		t.Fatal("no cluster telemetry snapshot")
	}
	var clusterGauge, serverLabeled bool
	for _, fam := range snap.Families {
		if fam.Name == "cluster_norm_quality" {
			clusterGauge = true
		}
		if fam.Name == "sim_norm_quality" {
			if len(fam.LabelNames) != 1 || fam.LabelNames[0] != "server" || len(fam.Series) != 2 {
				t.Errorf("sim_norm_quality not merged per server: labels=%v series=%d",
					fam.LabelNames, len(fam.Series))
			}
			serverLabeled = true
		}
	}
	if !clusterGauge {
		t.Error("cluster snapshot lacks cluster_norm_quality")
	}
	if !serverLabeled {
		t.Error("cluster snapshot lacks server-labeled sim_norm_quality")
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, smallGrid(), Options{Workers: 2})
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		g    Grid
	}{
		{"NaN rate", Grid{Rates: []float64{math.NaN()}}},
		{"zero cores", Grid{Cores: []int{0}}},
		{"negative budget", Grid{Budgets: []float64{-1}}},
		{"unknown policy", Grid{Policies: []string{"nope"}}},
		{"bad dispatch", Grid{Dispatch: "nope"}},
		{"frac out of range", Grid{GlobalBudgetFrac: 1.5}},
		{"negative duration", Grid{Duration: -5}},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("zero grid rejected: %v", err)
	}
}

func TestWriteJSONAndCSV(t *testing.T) {
	g := Grid{Rates: []float64{30}, Cores: []int{4}, Budgets: []float64{80},
		Policies: []string{"des"}, Seeds: []uint64{1}, Duration: 5}
	rep, err := Run(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var jb bytes.Buffer
	if err := WriteJSON(&jb, rep); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Schema != Schema || len(back.Cells) != 1 {
		t.Errorf("round-trip lost data: %+v", back)
	}

	var cb bytes.Buffer
	if err := WriteCSV(&cb, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,rate,cores") {
		t.Errorf("unexpected CSV header: %s", lines[0])
	}
}

// TestFingerprintGrid: every axis and every scalar that shapes a cell
// moves the grid's fingerprint; spelling out a default or a policy alias
// does not. The 320 W and 400 W grids are the pair a ledger once could not
// tell apart.
func TestFingerprintGrid(t *testing.T) {
	base := func() Grid { return Grid{Rates: []float64{30}, Budgets: []float64{320}, Duration: 3} }
	spec := func(seed uint64) *workloadspec.Spec {
		return &workloadspec.Spec{
			Schema: workloadspec.SchemaV1, Name: "one", Duration: 3, Seed: seed,
			Classes: []workloadspec.ClassSpec{{
				Name: "web", Rate: 30, Deadline: 0.15,
				Demand: workloadspec.DemandSpec{Dist: "bounded-pareto", Alpha: 3, Min: 130, Max: 1000},
			}},
		}
	}
	changes := map[string]func(*Grid){
		"rates":              func(g *Grid) { g.Rates = []float64{30, 60} },
		"cores":              func(g *Grid) { g.Cores = []int{8} },
		"budgets":            func(g *Grid) { g.Budgets = []float64{400} },
		"policies":           func(g *Grid) { g.Policies = []string{"fcfs-wf"} },
		"seeds":              func(g *Grid) { g.Seeds = []uint64{2} },
		"duration":           func(g *Grid) { g.Duration = 4 },
		"servers":            func(g *Grid) { g.Servers = 2 },
		"dispatch":           func(g *Grid) { g.Servers, g.Dispatch = 2, "least-loaded" },
		"global_budget_frac": func(g *Grid) { g.Servers, g.GlobalBudgetFrac = 2, 0.5 },
		"epoch":              func(g *Grid) { g.Servers, g.Epoch = 2, 0.5 },
		"queue_order":        func(g *Grid) { g.QueueOrder = "edf" },
		"admission":          func(g *Grid) { g.Admission, g.MaxQueue = "tail-drop", 16 },
		"max_queue":          func(g *Grid) { g.Admission, g.MaxQueue = "tail-drop", 17 },
		"workload":           func(g *Grid) { g.Rates, g.Workload = nil, spec(1) },
		"workload class":     func(g *Grid) { g.Rates, g.Workload = nil, spec(1); g.Workload.Classes[0].Deadline = 0.2 },
	}
	seen := map[uint64]string{FingerprintGrid(base()): "base"}
	for name, change := range changes {
		g := base()
		change(&g)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp := FingerprintGrid(g)
		if prev, dup := seen[fp]; dup {
			t.Errorf("changing %s fingerprints like %s", name, prev)
		}
		seen[fp] = name
	}

	want := FingerprintGrid(base())
	spelled := base()
	spelled.Cores, spelled.Policies, spelled.Seeds, spelled.Servers = []int{16}, []string{"des-c"}, []uint64{1}, 1
	spelled.Dispatch, spelled.QueueOrder, spelled.Admission = "round-robin", "fcfs", "none"
	if got := FingerprintGrid(spelled); got != want {
		t.Errorf("defaults and aliases spelled out: fingerprint %#x, want %#x", got, want)
	}
	// The cells take their seed and duration from the grid, so the spec's
	// own are not part of the identity.
	a, b := base(), base()
	a.Rates, a.Workload = nil, spec(1)
	b.Rates, b.Workload = nil, spec(9)
	b.Workload.Duration = 50
	if FingerprintGrid(a) != FingerprintGrid(b) {
		t.Error("the workload spec's own seed and duration moved the grid fingerprint")
	}
}
