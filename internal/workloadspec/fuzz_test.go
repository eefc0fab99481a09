package workloadspec

import (
	"encoding/json"
	"errors"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// FuzzDecode pins the v1 decoder's contract: arbitrary bytes — malformed
// JSON, NaN rates smuggled as strings, negative deadlines, unknown fields,
// hostile class counts — either decode to a fully validated spec or fail
// with a typed *cfgerr.Error. Never a panic. Specs that decode must
// compile without error, and their Stream, drained in 0.37 s or 3 s
// windows, must yield exactly the compiled jobs.
func FuzzDecode(f *testing.F) {
	valid, err := json.Marshal(PaperDefault(90))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"schema":"dessched-workload/v1"}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":-5,"classes":[{"name":"a","rate":10,"deadline_s":0.1,"demand":{"dist":"point","value":100}}]}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":10,"classes":[{"name":"a","rate":1e999,"deadline_s":0.1,"demand":{"dist":"point","value":100}}]}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":10,"classes":[{"name":"a","rate":10,"deadline_s":-0.1,"demand":{"dist":"point","value":100}}]}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":10,"classes":[{"name":"a","rate":10,"deadline_s":0.1,"demand":{"dist":"cauchy"}}]}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":10,"seed":3,"classes":[{"name":"a","rate":10,"deadline_s":0.1,"demand":{"dist":"uniform","min":100,"max":200},"periods":[{"start_s":1,"end_s":4,"rate":50}],"diurnal":{"amplitude":0.4,"period_s":5},"bursts":[{"start_s":2,"end_s":3,"multiplier":4}]}]}`))
	f.Add([]byte(`{"schema":"dessched-workload/v1","duration_s":10,"classes":[],"extra":true}`))
	f.Add(valid[:len(valid)/2])
	for _, multi := range []*Spec{streamTestSpec(), tieSpec()} {
		b, err := json.Marshal(multi)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			var ce *cfgerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is %T (%v), want *cfgerr.Error", err, err)
			}
			return
		}
		// A spec that decodes is valid by contract, so compilation must
		// succeed, and the stream must satisfy the per-class job model.
		// Clamp the horizon first so fuzzed billion-second durations don't
		// generate unbounded streams, and skip specs whose (valid but
		// astronomical) rates would still materialize millions of jobs.
		if s.Duration > 50 {
			s.Duration = 50
		}
		expected := 0.0
		for i := range s.Classes {
			expected += peakRate(s, &s.Classes[i]) * s.Duration
		}
		if expected > 1e6 {
			return
		}
		jobs, err := Compile(s)
		if err != nil {
			t.Fatalf("validated spec failed to compile: %v", err)
		}
		if err := job.ValidateAllByClass(jobs); err != nil {
			t.Fatalf("compiled stream invalid: %v", err)
		}
		// Compile is Stream drained in one window; the merge must hand out
		// the same jobs however the horizon is windowed.
		for _, step := range []float64{0.37, 3} {
			st, err := NewStream(s)
			if err != nil {
				t.Fatal(err)
			}
			sameJobs(t, drainSpec(t, st, step), jobs)
		}
	})
}
