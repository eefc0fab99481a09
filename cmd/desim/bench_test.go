package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The compare gate judges wall time and allocations per job: a run that
// handles the same jobs in less time passes however many events it
// dropped, and a run slower per job fails however many events it added.
func TestCompareBenchJudgesPerJob(t *testing.T) {
	base := BenchScenario{Name: "s", SimSeconds: 5, Jobs: 1000, Events: 6000,
		WallSeconds: 0.010, NsPerEvent: 0.010 * 1e9 / 6000, AllocsPerEvent: 0.5}
	path := filepath.Join(t.TempDir(), "base.json")
	b, err := json.Marshal(BenchReport{Schema: benchSchema, Scenarios: []BenchScenario{base}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(events int, wall, allocs float64) BenchScenario {
		return BenchScenario{Name: "s", SimSeconds: 5, Jobs: 1000, Events: events,
			WallSeconds: wall, NsPerEvent: wall * 1e9 / float64(events), AllocsPerEvent: allocs / float64(events)}
	}
	for _, c := range []struct {
		name    string
		sc      BenchScenario
		regress bool
	}{
		{"fewer events, same jobs faster", run(2000, 0.009, 3000), false},
		{"more events, same cost per job", run(9000, 0.0105, 3000), false},
		{"fewer events, slower per job", run(2000, 0.016, 3000), true},
		{"fewer events, more allocations per job", run(2000, 0.009, 4600), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := compareBench(BenchReport{Scenarios: []BenchScenario{c.sc}}, path, 0.5)
			if (err != nil) != c.regress {
				t.Errorf("compare error %v, want regression %v", err, c.regress)
			}
		})
	}
}
