package sim_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dessched/internal/cfgerr"
	"dessched/internal/core"
	"dessched/internal/sim"
)

// FuzzDecodeSnapshot pins the decoder's and the restore path's contract:
// arbitrary bytes — corrupt JSON, truncated snapshots, hostile index
// values — either fail to decode with a typed *cfgerr.Error, or decode to a
// structurally valid snapshot that, restored under the fixture
// configuration and finished, gives a typed error or a completed run.
// Never a panic or a hang.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a session snapshot and the legacy file of the retired
	// checkpoint timer, both of the fixture workload, so mutations explore
	// the interesting neighborhood of both restore paths.
	cfg := batchCheckpointConfig()
	var snaps [][]byte
	st, err := sim.Start(cfg, batchCheckpointJobs(f), core.New(core.CDVFS))
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Checkpoint(0.4, func(s *sim.Snapshot) error {
		b, err := sim.EncodeSnapshot(s)
		snaps = append(snaps, b)
		return err
	}); err != nil {
		f.Fatal(err)
	}
	if len(snaps) == 0 {
		f.Fatal("no snapshot captured for the seed corpus")
	}
	valid := snaps[len(snaps)/2]
	legacy, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1-batch.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(legacy)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1"}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{}],"queue":[99]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{"plan_cursor":-1}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{}],"events":[{"kind":250}]}`))
	f.Add(valid[:len(valid)/2])

	f.Fuzz(func(t *testing.T, b []byte) {
		var ce *cfgerr.Error
		s, err := sim.DecodeSnapshot(b)
		if err != nil {
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is %T (%v), want *cfgerr.Error", err, err)
			}
			return
		}
		// A snapshot that decodes must re-encode.
		if _, err := sim.EncodeSnapshot(s); err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
		// A watchdog turns a run that would never end into a failure the
		// fuzzer can record: the engine polls it as it advances.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rc := cfg
		rc.Context = ctx
		st, err := sim.RestoreStream(rc, core.New(core.CDVFS), s)
		if err == nil {
			_, err = st.Finish()
		}
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("restore error is %T (%v), want *cfgerr.Error", err, err)
		}
	})
}
