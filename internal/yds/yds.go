// Package yds implements Energy-OPT (Yao–Demers–Shenker speed scaling,
// §III-A of the paper): given jobs that must all be completed inside their
// [release, deadline] windows on one DVFS core, it finds the schedule that
// minimizes energy under any convex power function by repeatedly locating
// the critical interval — the interval of maximum intensity
//
//	g(I) = sum of demands of jobs whose window lies inside I / |I|
//
// scheduling its job group at exactly that speed, excising the interval, and
// recursing on the rest. Speeds never need to exceed the first critical
// speed, and the per-core power profile is non-increasing when all jobs
// share a release time — the property DES's step 2 relies on (§IV-D).
//
// Two entry points are provided: Offline handles arbitrary release times
// (the paper assumes agreeable deadlines; this implementation requires them
// too), and SameRelease is the O(n²) specialization used by Online-QE where
// every ready job is (re)released at the invocation instant.
package yds

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dessched/internal/job"
	"dessched/internal/power"
)

// Task is one unit of mandatory work for Energy-OPT: Volume processing
// units that must execute within [Release, Deadline].
type Task struct {
	ID       job.ID
	Release  float64
	Deadline float64
	Volume   float64
}

// Segment is a contiguous run of one task at a constant speed.
type Segment struct {
	ID    job.ID
	Start float64
	End   float64
	Speed float64 // GHz
}

// Volume returns the work processed in the segment, in units.
func (s Segment) Volume() float64 { return (s.End - s.Start) * power.Rate(s.Speed) }

// Schedule is an ordered, non-overlapping sequence of segments on one core.
type Schedule struct {
	Segments []Segment
}

// Energy returns the dynamic energy (J) the schedule consumes under the
// given power model.
func (s Schedule) Energy(m power.Model) float64 {
	e := 0.0
	for _, seg := range s.Segments {
		e += m.DynamicPower(seg.Speed) * (seg.End - seg.Start)
	}
	return e
}

// MaxSpeed returns the highest speed used anywhere in the schedule, or 0
// for an empty schedule.
func (s Schedule) MaxSpeed() float64 {
	m := 0.0
	for _, seg := range s.Segments {
		if seg.Speed > m {
			m = seg.Speed
		}
	}
	return m
}

// SpeedAt returns the speed in effect at time t (0 when idle). Boundaries
// belong to the segment starting at t.
func (s Schedule) SpeedAt(t float64) float64 {
	for _, seg := range s.Segments {
		if t >= seg.Start && t < seg.End {
			return seg.Speed
		}
	}
	return 0
}

// End returns the completion time of the last segment, or 0 when empty.
func (s Schedule) End() float64 {
	if len(s.Segments) == 0 {
		return 0
	}
	return s.Segments[len(s.Segments)-1].End
}

// VolumeOf returns the total work the schedule gives task id.
func (s Schedule) VolumeOf(id job.ID) float64 {
	v := 0.0
	for _, seg := range s.Segments {
		if seg.ID == id {
			v += seg.Volume()
		}
	}
	return v
}

// Validate checks the schedule against the tasks: segments are ordered and
// non-overlapping, each task executes inside its window, and each task
// receives its full volume within tolerance.
func (s Schedule) Validate(tasks []Task) error {
	const tol = 1e-6
	for i := 1; i < len(s.Segments); i++ {
		if s.Segments[i].Start < s.Segments[i-1].End-tol {
			return fmt.Errorf("yds: segments %d and %d overlap", i-1, i)
		}
	}
	byID := map[job.ID]Task{}
	for _, t := range tasks {
		byID[t.ID] = t
	}
	got := map[job.ID]float64{}
	for _, seg := range s.Segments {
		t, ok := byID[seg.ID]
		if !ok {
			return fmt.Errorf("yds: segment for unknown task %d", seg.ID)
		}
		if seg.Start < t.Release-tol || seg.End > t.Deadline+tol {
			return fmt.Errorf("yds: task %d runs [%g, %g] outside window [%g, %g]",
				seg.ID, seg.Start, seg.End, t.Release, t.Deadline)
		}
		if seg.Speed < 0 {
			return fmt.Errorf("yds: negative speed in segment for task %d", seg.ID)
		}
		got[seg.ID] += seg.Volume()
	}
	for _, t := range tasks {
		if t.Volume <= 0 {
			continue
		}
		if math.Abs(got[t.ID]-t.Volume) > tol*math.Max(1, t.Volume) {
			return fmt.Errorf("yds: task %d got volume %g, want %g", t.ID, got[t.ID], t.Volume)
		}
	}
	return nil
}

// Scratch holds reusable buffers for the allocation-free SameRelease
// variants. One Scratch may be reused across any number of calls from a
// single goroutine; the zero value is ready to use.
type Scratch struct {
	work []Task
}

// prepSameRelease filters out non-positive volumes, validates deadlines and
// returns the tasks sorted by (deadline, ID) — into the scratch buffer when
// one is supplied, freshly allocated otherwise.
func prepSameRelease(now float64, tasks []Task, s *Scratch) ([]Task, error) {
	var work []Task
	if s != nil {
		work = s.work[:0]
	} else {
		work = make([]Task, 0, len(tasks))
	}
	for _, t := range tasks {
		if t.Volume <= 0 {
			continue
		}
		if t.Deadline <= now {
			return nil, fmt.Errorf("yds: task %d has deadline %g at or before now %g", t.ID, t.Deadline, now)
		}
		work = append(work, t)
	}
	slices.SortFunc(work, func(a, b Task) int {
		if c := cmp.Compare(a.Deadline, b.Deadline); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if s != nil {
		s.work = work[:len(work)] // keep grown capacity for reuse
	}
	return work, nil
}

// SameRelease computes the Energy-OPT schedule when every task is released
// at now. Tasks with non-positive volume are skipped. The returned segment
// speeds form a non-increasing staircase, tasks run non-preemptively in
// deadline order, and all tasks complete by their deadlines. It returns an
// error when a positive-volume task has Deadline <= now (no time to run).
func SameRelease(now float64, tasks []Task) (Schedule, error) {
	segs, err := SameReleaseInto(nil, now, tasks, nil)
	if err != nil {
		return Schedule{}, err
	}
	return Schedule{Segments: segs}, nil
}

// SameReleaseInto is SameRelease appending segments into dst[:0] (which may
// be nil) and reusing scratch buffers (which may also be nil). The returned
// slice aliases dst's backing array when capacity suffices; results are
// identical to SameRelease. This is the form the per-event scheduling path
// uses to stay allocation-free.
func SameReleaseInto(dst []Segment, now float64, tasks []Task, scratch *Scratch) ([]Segment, error) {
	work, err := prepSameRelease(now, tasks, scratch)
	if err != nil {
		return nil, err
	}
	return scheduleSorted(dst, now, work)
}

// SameReleasePrepared is SameReleaseInto over the tasks that the scratch's
// last SameReleaseRequest call, made at the same now, filtered and sorted:
// it skips preparing them a second time. The result is the one
// SameReleaseInto returns for those tasks.
func SameReleasePrepared(dst []Segment, now float64, scratch *Scratch) ([]Segment, error) {
	return scheduleSorted(dst, now, scratch.work)
}

// scheduleSorted builds the Energy-OPT schedule of prepared tasks (positive
// volumes, deadlines after now, sorted by (deadline, ID)) into dst[:0]. It
// reads work without writing it.
func scheduleSorted(dst []Segment, now float64, work []Task) ([]Segment, error) {
	out := dst[:0]
	cur := now
	for len(work) > 0 {
		// Find the prefix (ending at a distinct deadline) of maximum
		// intensity; ties prefer the longer prefix so equal-speed groups
		// merge.
		bestK, bestG, err := criticalPrefix(cur, work)
		if err != nil {
			return nil, err
		}
		speed := power.SpeedForRate(bestG)
		groupEnd := work[bestK].Deadline
		t := cur
		for i := 0; i <= bestK; i++ {
			dur := work[i].Volume / bestG
			end := t + dur
			if i == bestK {
				end = groupEnd // absorb floating-point drift
			}
			out = append(out, Segment{ID: work[i].ID, Start: t, End: end, Speed: speed})
			t = end
		}
		cur = groupEnd
		work = work[bestK+1:]
	}
	return out, nil
}

// criticalPrefix finds the prefix (ending at a distinct deadline) of maximum
// intensity; ties prefer the longer prefix so equal-speed groups merge.
func criticalPrefix(cur float64, work []Task) (bestK int, bestG float64, err error) {
	bestK, bestG = -1, -1.0
	vol := 0.0
	for k := 0; k < len(work); k++ {
		vol += work[k].Volume
		if k+1 < len(work) && work[k+1].Deadline == work[k].Deadline {
			continue // prefix must end at a distinct deadline boundary
		}
		span := work[k].Deadline - cur
		if span <= 0 {
			return 0, 0, fmt.Errorf("yds: zero-length window at deadline %g (now %g)", work[k].Deadline, cur)
		}
		if g := vol / span; g > bestG+1e-15 || (g >= bestG-1e-15 && k > bestK) {
			bestK, bestG = k, g
		}
	}
	return bestK, bestG, nil
}

// SameReleaseRequest returns only the speed of the first segment of the
// SameRelease schedule — the core's requested operating point in DES's
// budget-free step (§IV-D step 2) — without materializing any segments. It
// runs the identical critical-prefix selection, so the returned speed is
// bit-for-bit the speed SameRelease would place on its first segment; with
// no positive-volume tasks it returns 0, exactly like an empty schedule.
func SameReleaseRequest(now float64, tasks []Task, scratch *Scratch) (float64, error) {
	work, err := prepSameRelease(now, tasks, scratch)
	if err != nil {
		return 0, err
	}
	if len(work) == 0 {
		return 0, nil
	}
	_, bestG, err := criticalPrefix(now, work)
	if err != nil {
		return 0, err
	}
	return power.SpeedForRate(bestG), nil
}

// RequiredPower returns the dynamic power the schedule draws at its first
// segment (the peak for a same-release schedule, whose speeds are
// non-increasing). An empty schedule draws nothing.
func (s Schedule) RequiredPower(m power.Model) float64 {
	if len(s.Segments) == 0 {
		return 0
	}
	return m.DynamicPower(s.Segments[0].Speed)
}
