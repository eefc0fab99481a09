package job

import (
	"sort"

	"dessched/internal/cfgerr"
)

// StreamValidator is the incremental form of ValidateAllByClass: it checks a
// job stream one arrival at a time — per-job validity, global release order,
// and per-class agreeable deadlines — without retaining the stream. Feeding
// every job of a release-sorted slice reports an error exactly when
// ValidateAllByClass would (unclassed jobs form the "" class bucket, which
// for an all-unclassed stream is the global agreeability check).
type StreamValidator struct {
	classes     map[string]*classTrack
	lastRelease float64
	started     bool

	// last caches the previous job's class track: a run of same-class
	// jobs skips the map lookup.
	lastClass string
	last      *classTrack
}

// classTrack mirrors Agreeable's linear scan for one class: the maximum
// deadline among strictly earlier releases, and the current equal-release
// run's release and maximum deadline.
type classTrack struct {
	maxEarlier float64
	runRelease float64
	runMax     float64
}

// Check validates the next job of the stream. Jobs must be fed in
// non-decreasing release order; the validator retains O(classes) state.
func (v *StreamValidator) Check(j Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if v.started && j.Release < v.lastRelease {
		return cfgerr.New("job", "order", "job: stream not sorted by release: %g after %g", j.Release, v.lastRelease)
	}
	v.started = true
	v.lastRelease = j.Release
	t := v.last
	if t == nil || j.Class != v.lastClass {
		if v.classes == nil {
			v.classes = make(map[string]*classTrack)
		}
		if t = v.classes[j.Class]; t == nil {
			v.classes[j.Class] = &classTrack{runRelease: j.Release, runMax: j.Deadline}
			return nil
		}
		v.lastClass, v.last = j.Class, t
	}
	if j.Release > t.runRelease {
		if t.runMax > t.maxEarlier {
			t.maxEarlier = t.runMax
		}
		t.runRelease = j.Release
		t.runMax = j.Deadline
	} else if j.Deadline > t.runMax {
		t.runMax = j.Deadline
	}
	if j.Deadline < t.maxEarlier {
		if j.Class != "" {
			return cfgerr.New("job", "deadlines", "job: deadlines of class %q are not agreeable", j.Class)
		}
		return cfgerr.New("job", "deadlines", "job: deadlines are not agreeable")
	}
	return nil
}

// StreamValidatorState is the serializable form of a StreamValidator, used
// by streamed-run snapshots: O(classes) scalars, independent of how many
// jobs the validator has seen.
type StreamValidatorState struct {
	LastRelease float64           `json:"last_release"`
	Started     bool              `json:"started,omitempty"`
	Classes     []ClassTrackState `json:"classes,omitempty"`
}

// ClassTrackState is one class's agreeability scan state.
type ClassTrackState struct {
	Class      string  `json:"class,omitempty"`
	MaxEarlier float64 `json:"max_earlier"`
	RunRelease float64 `json:"run_release"`
	RunMax     float64 `json:"run_max"`
}

// State captures the validator for a snapshot, classes sorted by name so
// the encoding is deterministic.
func (v *StreamValidator) State() StreamValidatorState {
	s := StreamValidatorState{LastRelease: v.lastRelease, Started: v.started}
	for name, t := range v.classes {
		s.Classes = append(s.Classes, ClassTrackState{
			Class: name, MaxEarlier: t.maxEarlier, RunRelease: t.runRelease, RunMax: t.runMax,
		})
	}
	sort.Slice(s.Classes, func(a, b int) bool { return s.Classes[a].Class < s.Classes[b].Class })
	return s
}

// Restore overwrites the validator with a captured state.
func (v *StreamValidator) Restore(s StreamValidatorState) {
	v.lastRelease = s.LastRelease
	v.started = s.Started
	v.classes = nil
	v.lastClass, v.last = "", nil
	if len(s.Classes) > 0 {
		v.classes = make(map[string]*classTrack, len(s.Classes))
		for _, c := range s.Classes {
			v.classes[c.Class] = &classTrack{maxEarlier: c.MaxEarlier, runRelease: c.RunRelease, runMax: c.RunMax}
		}
	}
}
