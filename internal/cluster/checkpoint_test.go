package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/power"
	"dessched/internal/quality"
	"dessched/internal/sim"
	"dessched/internal/workload"
	"dessched/internal/yds"
)

// TestFingerprintConfigCoversEveryField: changing any leaf of a fleet
// config with every slice and map populated — every server-template field
// included — moves the fleet fingerprint, unless the field is
// outcome-free. So the discrete speed ladder, the two-speed rule, the
// power model and the triggers all count.
func TestFingerprintConfigCoversEveryField(t *testing.T) {
	full := func() Config {
		server := sim.PaperConfig()
		server.Ladder = power.Ladder{0.5, 1, 2}
		server.ClassQuality = map[string]quality.Function{"gold": quality.NewExponential(0.01)}
		server.ClassPriority = map[string]int{"gold": 1}
		server.Faults = []sim.Fault{{Core: 1, Start: 1, End: 2, SpeedFactor: 0.5}}
		server.BudgetFaults = []sim.BudgetFault{{Start: 1, End: 2, Fraction: 0.5}}
		server.Admission = admission.Config{Policy: admission.TailDrop, MaxQueue: 16}
		return Config{
			Servers:      2,
			Server:       server,
			Policy:       "des",
			Dispatch:     ByClass,
			Classes:      []string{"gold"},
			GlobalBudget: 500,
			Epoch:        0.5,
			Headroom:     1.5,
			Faults:       [][]sim.Fault{{{Core: 1, Start: 1, End: 2, SpeedFactor: 0.5}}, nil},
			Hedge:        HedgeConfig{Window: 0.1, Limit: 3},
		}
	}
	outcomeFree := map[string]bool{
		"Workers": true, "Instrument": true, "StreamCheckpoint": true,
		"Server.Observer": true, "Server.Recorder": true, "Server.Context": true, "Server.CollectJobs": true,
	}
	swaps := map[string]any{
		"Policy":          "fcfs",
		"Server.Quality":  quality.NewExponential(0.004),
		"Server.Recorder": nopRecorder{},
		"Server.Context":  context.Background(),
	}
	base := full()
	want := FingerprintConfig(base)
	eachFieldChange(t, full, swaps, func(path string, c *Config) {
		if got := FingerprintConfig(*c); outcomeFree[path] != (got == want) {
			t.Errorf("changing %s: fingerprint %#x, base %#x (outcome-free: %v)", path, got, want, outcomeFree[path])
		}
	})

	// Defaults count as their values: a zero epoch and headroom run as 1
	// and 1.25.
	zero, set := full(), full()
	zero.Epoch, zero.Headroom = 0, 0
	set.Epoch, set.Headroom = 1, 1.25
	if FingerprintConfig(zero) != FingerprintConfig(set) {
		t.Error("a zero epoch and headroom fingerprint unlike their defaults")
	}
}

type nopRecorder struct{}

func (nopRecorder) RecordExec(int, yds.Segment) {}

// eachFieldChange calls check once per leaf field of the config newCfg
// builds, with a fresh config in which only that leaf was changed. Structs
// recurse, non-empty slices recurse into their elements, and every other
// value is a leaf: a number or bool changes value, a string grows, an
// empty slice gains an element, a map gains an entry, and a nil func or
// pointer gets one. An interface leaf takes its value from swaps, keyed by
// path; a leaf with no way to change it fails the test. (The sim package's
// fingerprint test walks sim.Config the same way.)
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

// TestResumeRejectsOldFleetSnapshot pins the compatibility decision for
// fleet snapshots written before the fingerprint covered the whole server
// template: they still decode, ResumeStream rejects them with a typed
// error, and there is no legacy read path. The snapshot in testdata was
// written mid-run by `desim sim -servers 2 -cores 2 -budget 40 -rate 10
// -duration 4 -seed 3 -checkpoint … -checkpoint-every 3` before the
// change. Stamped with today's fingerprint it resumes to the
// uninterrupted run, so the fingerprint is all that moved.
func TestResumeRejectsOldFleetSnapshot(t *testing.T) {
	b, err := os.ReadFile("testdata/stream-snapshot-old-fingerprint.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeStreamSnapshot(b)
	if err != nil {
		t.Fatalf("old fleet snapshot no longer decodes: %v", err)
	}
	server := sim.PaperConfig()
	server.Cores, server.Budget = 2, 40
	cfg := Config{Servers: 2, Server: server, Policy: "des", Dispatch: RoundRobin, Epoch: 1}
	src := func() job.Source {
		wl := workload.DefaultConfig(10)
		wl.Duration, wl.Seed, wl.PartialFraction = 4, 3, 1
		s, err := workload.NewStream(wl)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	var ce *cfgerr.Error
	if _, err := ResumeStream(cfg, src(), snap); !errors.As(err, &ce) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("resume from an old fleet snapshot: err = %v, want a typed fingerprint mismatch", err)
	}

	want, err := RunStream(cfg, src())
	if err != nil {
		t.Fatal(err)
	}
	snap.Fingerprint = FingerprintConfig(cfg)
	got, err := ResumeStream(cfg, src(), snap)
	if err != nil {
		t.Fatalf("re-stamped old snapshot: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-stamped old snapshot resumed to a different result than the uninterrupted run")
	}
}
