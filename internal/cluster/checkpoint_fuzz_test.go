package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"testing"
	"time"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/workload"
)

// snapshotSeed checkpoints a small chaos + retry + hedge fleet every epoch
// and returns its config, jobs, and the encoded snapshot after epoch 2.
func snapshotSeed(tb testing.TB) (Config, []job.Job, []byte) {
	tb.Helper()
	cfg := testConfig(2)
	cfg.GlobalBudget = 0.7 * 2 * cfg.Server.Budget
	cfg.Server.Retry.MaxAttempts = 3
	cfg.Server.Retry.Backoff = 0.02
	cfg.Server.Retry.MaxBackoff = 0.2
	cfg.Hedge = HedgeConfig{Window: 0.15, Limit: 60}
	faults, err := ChaosFaults(21, 60, 2, cfg.Server.Cores)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Faults = faults
	wl := workload.DefaultConfig(60)
	wl.Duration = 4
	jobs, err := workload.Generate(wl)
	if err != nil {
		tb.Fatal(err)
	}
	var blobs [][]byte
	ck := cfg
	ck.StreamCheckpoint = &StreamCheckpointConfig{Every: 1, Sink: func(s *StreamSnapshot) error {
		b, err := EncodeStreamSnapshot(s)
		blobs = append(blobs, b)
		return err
	}}
	if _, err := RunStream(ck, job.NewSliceSource(jobs)); err != nil {
		tb.Fatal(err)
	}
	if len(blobs) < 3 {
		tb.Fatalf("%d snapshots", len(blobs))
	}
	return cfg, jobs, blobs[1]
}

// mutateSnapshot applies edit to the decoded JSON of an encoded snapshot
// (numbers kept exact) and re-encodes it.
func mutateSnapshot(t *testing.T, b []byte, edit func(root map[string]any)) []byte {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var root map[string]any
	if err := d.Decode(&root); err != nil {
		t.Fatal(err)
	}
	edit(root)
	out, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func num(v any) float64 {
	f, _ := strconv.ParseFloat(string(v.(json.Number)), 64)
	return f
}

// TestResumeRejectsCorruptSnapshots pins corruptions of a real snapshot
// that used to escape restore as a run that never ends or an engine panic:
// each must now fail with a typed *cfgerr.Error before any engine runs.
func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	cfg, jobs, seed := snapshotSeed(t)
	server0 := func(root map[string]any) map[string]any {
		return root["per_server"].([]any)[0].(map[string]any)
	}
	jobAt := func(root map[string]any, i int) map[string]any {
		return server0(root)["jobs"].([]any)[i].(map[string]any)
	}
	cases := map[string]func(root map[string]any){
		// The deadline event of an in-flight job that will not complete
		// loses its decimal point: the job stayed in flight toward 1e16
		// while the quantum ticked, and the resume never returned.
		"event time": func(root map[string]any) {
			for _, ev := range server0(root)["events"].([]any) {
				ev := ev.(map[string]any)
				if num(ev["kind"]) == 1 && num(ev["job"]) == 2 { // job 2's deadline
					ev["t"] = json.Number(strconv.FormatFloat(num(ev["t"])*1e16, 'g', -1, 64))
					return
				}
			}
			t.Fatal("seed snapshot holds no deadline event for job 2")
		},
		// A budget window held open with no appended window to extend:
		// the next ExtendBudget indexed window -1.
		"open budget window": func(root map[string]any) {
			st := server0(root)["stream"].(map[string]any)
			st["open_frac"] = json.Number("0.5")
			delete(st, "appended")
		},
		// Two in-flight jobs on one core share an ID, so the next plan was
		// checked against the wrong job ("plan runs job … past its
		// deadline", or here an Online-QE Theorem 1 violation).
		"duplicate job id": func(root map[string]any) {
			a, b := jobAt(root, 0), jobAt(root, 4)
			if num(a["core"]) != num(b["core"]) {
				t.Fatal("seed jobs 0 and 4 are not on one core")
			}
			a["id"] = b["id"]
		},
		// Negative progress reached Online-QE as a negative task.
		"negative progress": func(root map[string]any) {
			jobAt(root, 4)["done"] = json.Number("-1")
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			var ce *cfgerr.Error
			snap, err := DecodeStreamSnapshot(mutateSnapshot(t, seed, edit))
			if err == nil {
				_, err = ResumeStream(cfg, job.NewSliceSource(jobs), snap)
			}
			if !errors.As(err, &ce) {
				t.Fatalf("corrupt snapshot: err = %v, want *cfgerr.Error", err)
			}
		})
	}
	// The untouched seed resumes.
	snap, err := DecodeStreamSnapshot(seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeStream(cfg, job.NewSliceSource(jobs), snap); err != nil {
		t.Fatalf("seed snapshot: %v", err)
	}
}

// FuzzDecodeStreamSnapshot pins the restore contract for arbitrary bytes:
// they fail to decode with a typed *cfgerr.Error, or ResumeStream on the
// seed configuration resumes them or rejects them with a typed error —
// never a panic, never a run that does not end.
func FuzzDecodeStreamSnapshot(f *testing.F) {
	cfg, jobs, seed := snapshotSeed(f)
	cfg.Workers = 1 // an engine panic must surface on the fuzzing goroutine
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","kind":"cluster","servers":2,"done":[]}`))
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		var ce *cfgerr.Error
		snap, err := DecodeStreamSnapshot(b)
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is %T (%v), want *cfgerr.Error", err, err)
			}
			return
		}
		// A watchdog turns a run that would never end into a failure the
		// fuzzer can record: the epoch loop and the engines poll it.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rc := cfg
		rc.Server.Context = ctx
		if _, err := ResumeStream(rc, job.NewSliceSource(jobs), snap); err != nil && !errors.As(err, &ce) {
			t.Fatalf("resume error is %T (%v), want *cfgerr.Error", err, err)
		}
	})
}
