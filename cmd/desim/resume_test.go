package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"dessched"
)

// TestSimCheckpointResume drives `desim sim -checkpoint/-resume` in
// process on a chaos + retry run: the plain run, the checkpointed run and
// the run resumed from its last snapshot record the same ledger entry.
// Bad periods and a drifted configuration on -resume are typed errors.
func TestSimCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "runs.jsonl")
	snap := filepath.Join(dir, "snap.json")
	base := []string{"-cores", "4", "-budget", "80", "-rate", "60", "-duration", "4", "-seed", "5",
		"-chaos-seed", "2", "-retry-max", "3", "-ledger", ledger}
	with := func(more ...string) []string { return append(append([]string(nil), base...), more...) }

	for _, extra := range [][]string{nil, {"-checkpoint", snap, "-checkpoint-every", "1"}, {"-resume", snap}} {
		if err := cmdSim(with(extra...)); err != nil {
			t.Fatalf("desim sim %v: %v", extra, err)
		}
	}
	entries, err := dessched.ReadLedger(ledger)
	if err != nil || len(entries) != 3 {
		t.Fatalf("ledger: %d entries, %v", len(entries), err)
	}
	for i := range entries {
		// Wall-clock provenance differs run to run; every result field
		// must not.
		entries[i].Time, entries[i].PeakRSSBytes = "", 0
	}
	if entries[0].Jobs == 0 {
		t.Fatal("plain run recorded no jobs")
	}
	for i, label := range []string{"checkpointed", "resumed"} {
		if got := entries[i+1]; !reflect.DeepEqual(got, entries[0]) {
			t.Errorf("%s run: ledger %+v, want %+v", label, got, entries[0])
		}
	}

	for _, every := range []string{"0", "NaN"} {
		err := cmdSim(with("-checkpoint", filepath.Join(dir, "bad.json"), "-checkpoint-every", every))
		if _, ok := dessched.AsConfigError(err); !ok {
			t.Errorf("-checkpoint-every %s: %v, want a *ConfigError", every, err)
		}
	}
	err = cmdSim(with("-resume", snap, "-order", "sjf"))
	if _, ok := dessched.AsConfigError(err); !ok {
		t.Errorf("-resume under a drifted -order: %v, want a *ConfigError", err)
	}
}
