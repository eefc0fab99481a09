package job

import (
	"math/rand/v2"
	"testing"
)

// TestStreamValidatorMatchesValidateAllByClass feeds release-sorted streams
// whose classes alternate — the case the validator's one-entry class cache
// serves worst — and random class sequences, with deadlines that sometimes
// break per-class agreeability. Every prefix must be rejected by the
// validator exactly when ValidateAllByClass rejects it.
func TestStreamValidatorMatchesValidateAllByClass(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	classes := []string{"gold", ""}
	for trial := 0; trial < 2000; trial++ {
		alternating := trial%2 == 0
		n := 2 + rng.IntN(12)
		jobs := make([]Job, n)
		release := 0.0
		for i := range jobs {
			if rng.IntN(3) > 0 { // some equal-release runs
				release += float64(rng.IntN(3))
			}
			class := classes[i%2]
			if !alternating {
				class = classes[rng.IntN(2)]
			}
			jobs[i] = Job{ID: ID(i), Release: release, Deadline: release + float64(1+rng.IntN(4)), Demand: 1, Class: class}
		}
		var v StreamValidator
		firstBad := n
		for i, j := range jobs {
			if v.Check(j) != nil {
				firstBad = i
				break
			}
		}
		for k := 1; k <= n; k++ {
			if batchOK, streamOK := ValidateAllByClass(jobs[:k]) == nil, k <= firstBad; batchOK != streamOK {
				t.Fatalf("trial %d, prefix %d of %+v: ValidateAllByClass ok=%v, validator ok=%v", trial, k, jobs, batchOK, streamOK)
			}
		}
	}
}

// TestStreamValidatorRestoreClearsClassCache: after Restore the validator
// judges a job by the restored class track, not by the track it cached
// for the previous job.
func TestStreamValidatorRestoreClearsClassCache(t *testing.T) {
	var w StreamValidator
	if err := w.Check(Job{Release: 0, Deadline: 1, Demand: 1, Class: "a"}); err != nil {
		t.Fatal(err)
	}
	restored := w.State()

	// v's cached track for "a" has seen deadline 10 before release 2, so
	// a deadline of 5 at release 2 would break agreeability there.
	var v StreamValidator
	for _, j := range []Job{{Release: 0, Deadline: 10, Demand: 1, Class: "a"}, {Release: 1, Deadline: 10, Demand: 1, Class: "a"}} {
		if err := v.Check(j); err != nil {
			t.Fatal(err)
		}
	}
	v.Restore(restored)
	if err := v.Check(Job{Release: 2, Deadline: 5, Demand: 1, Class: "a"}); err != nil {
		t.Fatalf("after Restore the validator judged by its stale class track: %v", err)
	}
}
