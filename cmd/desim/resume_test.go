package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dessched"
)

// TestSimCheckpointResume drives `desim sim -checkpoint/-resume` in
// process on a chaos + retry run, for one server and for a fleet of two:
// the plain run, the checkpointed run and the run resumed from its last
// snapshot record the same ledger entry, whose fingerprint is the one the
// snapshot carries. Bad periods and a drifted configuration on -resume are
// typed errors.
func TestSimCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-cores", "4", "-budget", "80", "-rate", "60", "-duration", "4", "-seed", "5",
		"-chaos-seed", "2", "-retry-max", "3"}
	with := func(more ...string) []string { return append(append([]string(nil), base...), more...) }

	for _, shape := range []struct {
		name   string
		flags  []string
		snapFP func([]byte) (uint64, error)
	}{
		{"server", nil, func(b []byte) (uint64, error) {
			s, err := dessched.DecodeSimSnapshot(b)
			if err != nil {
				return 0, err
			}
			return s.Fingerprint, nil
		}},
		{"fleet", []string{"-servers", "2"}, func(b []byte) (uint64, error) {
			s, err := dessched.DecodeClusterStreamSnapshot(b)
			if err != nil {
				return 0, err
			}
			return s.Fingerprint, nil
		}},
	} {
		ledger := filepath.Join(dir, shape.name+".jsonl")
		snap := filepath.Join(dir, shape.name+"-snap.json")
		for _, extra := range [][]string{nil, {"-checkpoint", snap, "-checkpoint-every", "1"}, {"-resume", snap}} {
			if err := cmdSim(with(append(append([]string{"-ledger", ledger}, shape.flags...), extra...)...)); err != nil {
				t.Fatalf("%s: desim sim %v: %v", shape.name, extra, err)
			}
		}
		entries, err := dessched.ReadLedger(ledger)
		if err != nil || len(entries) != 3 {
			t.Fatalf("%s: ledger: %d entries, %v", shape.name, len(entries), err)
		}
		for i := range entries {
			// Wall-clock provenance differs run to run; every result field
			// must not.
			entries[i].Time, entries[i].PeakRSSBytes = "", 0
		}
		if entries[0].Jobs == 0 {
			t.Fatalf("%s: plain run recorded no jobs", shape.name)
		}
		for i, label := range []string{"checkpointed", "resumed"} {
			if got := entries[i+1]; !reflect.DeepEqual(got, entries[0]) {
				t.Errorf("%s: %s run: ledger %+v, want %+v", shape.name, label, got, entries[0])
			}
		}
		b, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := shape.snapFP(b)
		if err != nil {
			t.Fatalf("%s: decode snapshot: %v", shape.name, err)
		}
		if want := fmt.Sprintf("%016x", fp); entries[0].Fingerprint != want {
			t.Errorf("%s: ledger fingerprint %s, snapshot carries %s", shape.name, entries[0].Fingerprint, want)
		}
	}

	for _, every := range []string{"0", "NaN"} {
		err := cmdSim(with("-checkpoint", filepath.Join(dir, "bad.json"), "-checkpoint-every", every))
		if _, ok := dessched.AsConfigError(err); !ok {
			t.Errorf("-checkpoint-every %s: %v, want a *ConfigError", every, err)
		}
	}
	err := cmdSim(with("-resume", filepath.Join(dir, "server-snap.json"), "-order", "sjf"))
	if _, ok := dessched.AsConfigError(err); !ok {
		t.Errorf("-resume under a drifted -order: %v, want a *ConfigError", err)
	}
}
