package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dessched"
)

// namesSpec is a small two-class workload: by-class dispatch and the
// tournament need named classes.
const namesSpec = `{
	"schema": "dessched-workload/v1", "name": "cli-names", "duration_s": 2, "seed": 3,
	"classes": [
		{"name": "interactive", "rate": 10, "deadline_s": 0.15, "priority": 2,
		 "demand": {"dist": "bounded-pareto", "alpha": 3, "min": 130, "max": 1000}},
		{"name": "batch", "rate": 2, "deadline_s": 1, "priority": 1,
		 "demand": {"dist": "uniform", "min": 200, "max": 800}}
	]
}`

// spellings returns every name and alias of one registry kind.
func spellings(k dessched.PolicyKind) []string {
	var out []string
	for _, e := range dessched.Policies() {
		if e.Kind == k {
			out = append(out, e.Name)
			out = append(out, e.Aliases...)
		}
	}
	return out
}

// TestEveryPolicyNameOnEveryCommand: every spelling of every policy kind is
// accepted by every desim command and flag that takes that kind, runs
// record the canonical scheduler name, and a single-server `desim sim`
// gives the same result as dessched.Simulate with the parsed spec. Unknown
// names are a typed *ConfigError on every path.
func TestEveryPolicyNameOnEveryCommand(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(namesSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(dir, "runs.jsonl")
	commands := map[string]func([]string) error{
		"sim": cmdSim, "chaos": cmdChaos, "sweep": cmdSweep, "tournament": cmdTournament,
	}
	run := func(line []string) error { return commands[line[0]](line[1:]) }
	with := func(line []string, more ...string) []string {
		return append(append([]string(nil), line...), more...)
	}
	lastEntry := func() dessched.LedgerEntry {
		entries, err := dessched.ReadLedger(ledger)
		if err != nil || len(entries) == 0 {
			t.Fatalf("ledger: %d entries, %v", len(entries), err)
		}
		return entries[len(entries)-1]
	}

	small := []string{"-cores", "2", "-budget", "40", "-rate", "10", "-duration", "2", "-seed", "3"}
	simOne := with([]string{"sim"}, small...)
	simFleet := []string{"sim", "-servers", "2", "-workload", spec, "-cores", "2", "-budget", "40"}
	chaos := with([]string{"chaos"}, small...)
	sweep := []string{"sweep", "-rates", "10", "-cores", "2", "-budgets", "40", "-seeds", "1",
		"-duration", "2", "-out", filepath.Join(dir, "sweep.json")}
	sweepFleet := []string{"sweep", "-servers", "2", "-workload", spec, "-cores", "2", "-budgets", "40",
		"-seeds", "1", "-duration", "2", "-out", filepath.Join(dir, "sweep.json")}
	tournament := []string{"tournament", "-workload", spec, "-seeds", "1", "-cores", "2", "-budget", "40",
		"-liveness-scale", "-1", "-out", filepath.Join(dir, "report.md")}

	wl := dessched.PaperWorkload(10)
	wl.Duration, wl.Seed, wl.PartialFraction = 2, 3, 1
	jobs, err := dessched.GenerateWorkload(wl)
	if err != nil {
		t.Fatal(err)
	}
	schedulers := spellings(dessched.PolicyScheduler)
	for _, name := range schedulers {
		sp, err := dessched.ParseSchedulerPolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := run(with(simOne, "-policy", name, "-ledger", ledger)); err != nil {
			t.Errorf("desim sim -policy %s: %v", name, err)
			continue
		}
		got := lastEntry()
		cfg := dessched.PaperServer()
		cfg.Cores, cfg.Budget = 2, 40
		sp.Configure(&cfg)
		want, err := dessched.Simulate(cfg, jobs, sp.New())
		if err != nil {
			t.Fatal(err)
		}
		if got.Policy != sp.Name || got.Quality != want.Quality || got.EnergyJ != want.Energy ||
			got.Jobs != want.Arrived || got.Completed != want.Completed || got.Deadlined != want.Deadlined {
			t.Errorf("desim sim -policy %s: ledger %+v, want policy %s and %s", name, got, sp.Name, want.String())
		}
		for _, line := range [][]string{simFleet, chaos} {
			if err := run(with(line, "-policy", name, "-ledger", ledger)); err != nil {
				t.Errorf("desim %s -policy %s: %v", strings.Join(line, " "), name, err)
			} else if p := lastEntry().Policy; p != sp.Name {
				t.Errorf("desim %s -policy %s: ledger policy %q, want %q", strings.Join(line, " "), name, p, sp.Name)
			}
		}
	}

	// Every command line taking each kind's flag, with every spelling; the
	// sweep and the tournament take all scheduler spellings in one grid.
	cases := []struct {
		flag  string
		names []string
		lines [][]string
	}{
		{"-policies", []string{strings.Join(schedulers, ",")}, [][]string{sweep, tournament}},
		{"-order", spellings(dessched.PolicyQueueOrder),
			[][]string{simOne, simFleet, chaos, sweep, with(tournament, "-policies", "des")}},
		{"-admission", spellings(dessched.PolicyAdmission),
			[][]string{simOne, simFleet, chaos, sweep, with(tournament, "-policies", "des")}},
		{"-dispatch", spellings(dessched.PolicyDispatch), [][]string{simFleet, sweepFleet}},
	}
	for _, c := range cases {
		for _, line := range c.lines {
			for _, name := range c.names {
				if err := run(with(line, c.flag, name)); err != nil {
					t.Errorf("desim %s %s %s: %v", strings.Join(line, " "), c.flag, name, err)
				}
			}
			err := run(with(line, c.flag, "warp"))
			if _, ok := dessched.AsConfigError(err); !ok {
				t.Errorf("desim %s %s warp: %v, want a *ConfigError", strings.Join(line, " "), c.flag, err)
			}
		}
	}
	for _, line := range [][]string{simOne, simFleet, chaos} {
		err := run(with(line, "-policy", "warp"))
		if _, ok := dessched.AsConfigError(err); !ok {
			t.Errorf("desim %s -policy warp: %v, want a *ConfigError", strings.Join(line, " "), err)
		}
	}
}
