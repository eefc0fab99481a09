package yds

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dessched/internal/job"
	"dessched/internal/power"
)

func TestSameReleaseSingleTask(t *testing.T) {
	tasks := []Task{{ID: 1, Deadline: 2, Volume: 1000}}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 1 {
		t.Fatalf("segments = %v", s.Segments)
	}
	seg := s.Segments[0]
	// 1000 units over 2 s = 500 units/s = 0.5 GHz, running the whole window.
	if math.Abs(seg.Speed-0.5) > 1e-12 || seg.Start != 0 || seg.End != 2 {
		t.Errorf("segment = %+v", seg)
	}
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
}

func TestSameReleaseStaircase(t *testing.T) {
	// Critical prefix: {1} at 1 GHz on [0,1]; then {2} at 0.5 GHz on [1,2].
	tasks := []Task{
		{ID: 1, Deadline: 1, Volume: 1000},
		{ID: 2, Deadline: 2, Volume: 500},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 2 {
		t.Fatalf("segments = %v", s.Segments)
	}
	if math.Abs(s.Segments[0].Speed-1.0) > 1e-12 || math.Abs(s.Segments[1].Speed-0.5) > 1e-12 {
		t.Errorf("speeds = %v, %v; want 1, 0.5", s.Segments[0].Speed, s.Segments[1].Speed)
	}
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
}

func TestSameReleaseMergesEqualIntensity(t *testing.T) {
	// Both prefixes have intensity 500 units/s: one merged group.
	tasks := []Task{
		{ID: 1, Deadline: 1, Volume: 500},
		{ID: 2, Deadline: 2, Volume: 500},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range s.Segments {
		if math.Abs(seg.Speed-0.5) > 1e-12 {
			t.Errorf("speed = %v, want 0.5", seg.Speed)
		}
	}
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
}

func TestSameReleaseLaterTaskDominates(t *testing.T) {
	// The longer prefix is the critical one: both run at 0.75 GHz.
	tasks := []Task{
		{ID: 1, Deadline: 1, Volume: 500},
		{ID: 2, Deadline: 2, Volume: 1000},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 2 {
		t.Fatalf("segments = %+v", s.Segments)
	}
	for _, seg := range s.Segments {
		if math.Abs(seg.Speed-0.75) > 1e-12 {
			t.Errorf("speed = %v, want 0.75", seg.Speed)
		}
	}
	// Task 1 finishes at 500/750 s, well before its deadline.
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
}

func TestSameReleaseNonIncreasingSpeeds(t *testing.T) {
	tasks := []Task{
		{ID: 1, Deadline: 0.05, Volume: 300},
		{ID: 2, Deadline: 0.010, Volume: 50},
		{ID: 3, Deadline: 0.15, Volume: 120},
		{ID: 4, Deadline: 0.12, Volume: 400},
		{ID: 5, Deadline: 0.15, Volume: 10},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Segments); i++ {
		if s.Segments[i].Speed > s.Segments[i-1].Speed+1e-9 {
			t.Fatalf("speeds increase at segment %d: %v", i, s.Segments)
		}
	}
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
}

func TestSameReleaseSkipsZeroVolume(t *testing.T) {
	tasks := []Task{
		{ID: 1, Deadline: 1, Volume: 0},
		{ID: 2, Deadline: 1, Volume: -5},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Segments) != 0 {
		t.Errorf("segments = %v, want none", s.Segments)
	}
	if s.RequiredPower(power.Default) != 0 {
		t.Error("empty schedule should need no power")
	}
}

func TestSameReleaseExpiredDeadline(t *testing.T) {
	tasks := []Task{{ID: 1, Deadline: 1, Volume: 10}}
	if _, err := SameRelease(2, tasks); err == nil {
		t.Error("accepted task with expired deadline")
	}
}

func TestSameReleaseEqualDeadlines(t *testing.T) {
	tasks := []Task{
		{ID: 1, Deadline: 1, Volume: 300},
		{ID: 2, Deadline: 1, Volume: 700},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(tasks); err != nil {
		t.Error(err)
	}
	if math.Abs(s.MaxSpeed()-1.0) > 1e-12 {
		t.Errorf("MaxSpeed = %v, want 1", s.MaxSpeed())
	}
}

// YDS at the critical speed is never beaten by any two-phase constant-speed
// alternative (grid search over the split point).
func TestSameReleaseEnergyOptimalTwoTasks(t *testing.T) {
	tasks := []Task{
		{ID: 1, Deadline: 0.8, Volume: 900},
		{ID: 2, Deadline: 2.0, Volume: 400},
	}
	s, err := SameRelease(0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	best := s.Energy(power.Default)
	// Alternative: task 1 on [0, t1] then task 2 on [t1, t2].
	for t1 := 0.05; t1 <= 0.8; t1 += 0.005 {
		for t2 := t1 + 0.05; t2 <= 2.0; t2 += 0.005 {
			s1 := power.SpeedForRate(900 / t1)
			s2 := power.SpeedForRate(400 / (t2 - t1))
			e := power.Default.DynamicPower(s1)*t1 + power.Default.DynamicPower(s2)*(t2-t1)
			if e < best-1e-6 {
				t.Fatalf("alternative (t1=%v t2=%v) has energy %v < YDS %v", t1, t2, e, best)
			}
		}
	}
}

func TestScheduleHelpers(t *testing.T) {
	s := Schedule{Segments: []Segment{
		{ID: 1, Start: 0, End: 1, Speed: 2},
		{ID: 2, Start: 1, End: 3, Speed: 1},
	}}
	if got := s.VolumeOf(1); math.Abs(got-2000) > 1e-9 {
		t.Errorf("VolumeOf(1) = %v", got)
	}
	if got := s.SpeedAt(0.5); got != 2 {
		t.Errorf("SpeedAt(0.5) = %v", got)
	}
	if got := s.SpeedAt(2.999); got != 1 {
		t.Errorf("SpeedAt(2.999) = %v", got)
	}
	if got := s.SpeedAt(5); got != 0 {
		t.Errorf("SpeedAt(5) = %v", got)
	}
	if got := s.End(); got != 3 {
		t.Errorf("End = %v", got)
	}
	if got := s.Energy(power.Default); math.Abs(got-(20*1+5*2)) > 1e-9 {
		t.Errorf("Energy = %v, want 30", got)
	}
	if got := s.RequiredPower(power.Default); got != 20 {
		t.Errorf("RequiredPower = %v, want 20", got)
	}
	var empty Schedule
	if empty.End() != 0 || empty.MaxSpeed() != 0 {
		t.Error("empty schedule helpers wrong")
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	tasks := []Task{{ID: 1, Release: 0, Deadline: 1, Volume: 1000}}
	overlap := Schedule{Segments: []Segment{
		{ID: 1, Start: 0, End: 0.6, Speed: 1},
		{ID: 1, Start: 0.5, End: 1, Speed: 1},
	}}
	if overlap.Validate(tasks) == nil {
		t.Error("Validate accepted overlapping segments")
	}
	outside := Schedule{Segments: []Segment{{ID: 1, Start: 0.5, End: 1.5, Speed: 1}}}
	if outside.Validate(tasks) == nil {
		t.Error("Validate accepted out-of-window segment")
	}
	short := Schedule{Segments: []Segment{{ID: 1, Start: 0, End: 0.5, Speed: 1}}}
	if short.Validate(tasks) == nil {
		t.Error("Validate accepted under-delivered volume")
	}
	unknown := Schedule{Segments: []Segment{{ID: 9, Start: 0, End: 0.5, Speed: 1}}}
	if unknown.Validate(tasks) == nil {
		t.Error("Validate accepted unknown task")
	}
}

// Property: for random same-release agreeable sets, the schedule validates,
// speeds are non-increasing, and energy never exceeds the constant-speed
// upper bound at the first critical speed.
func TestSameReleaseProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		n := len(raw) / 2
		if n == 0 || n > 12 {
			return true
		}
		tasks := make([]Task, n)
		total := 0.0
		for i := 0; i < n; i++ {
			tasks[i] = Task{
				ID:       job.ID(i),
				Deadline: 0.01 + float64(raw[2*i])/65535*2,
				Volume:   1 + float64(raw[2*i+1])/65535*1000,
			}
			total += tasks[i].Volume
		}
		s, err := SameRelease(0, tasks)
		if err != nil {
			return false
		}
		if s.Validate(tasks) != nil {
			return false
		}
		for i := 1; i < len(s.Segments); i++ {
			if s.Segments[i].Speed > s.Segments[i-1].Speed+1e-9 {
				return false
			}
		}
		sMax := s.MaxSpeed()
		bound := power.Default.DynamicPower(sMax) * (total / power.Rate(sMax))
		return s.Energy(power.Default) <= bound+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// SameReleasePrepared schedules the tasks a SameReleaseRequest call left
// in its scratch exactly as SameReleaseInto schedules the raw tasks, and
// the request is that schedule's first speed; the scratch is reused
// across sets of every size, unsorted, with ties and zero volumes.
func TestSameReleasePreparedMatchesInto(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var scr Scratch
	var buf []Segment
	for trial := range 500 {
		now := rng.Float64()
		tasks := make([]Task, rng.IntN(10))
		for i := range tasks {
			tasks[i] = Task{
				ID:       job.ID(rng.IntN(1000)),
				Release:  now,
				Deadline: now + 0.01 + float64(rng.IntN(5))*0.05,
				Volume:   float64(rng.IntN(4)) * 100 * rng.Float64(),
			}
		}
		speed, err := SameReleaseRequest(now, tasks, &scr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SameReleasePrepared(buf, now, &scr)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		want, err := SameReleaseInto(nil, now, tasks, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d segments, SameReleaseInto gives %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Start) != math.Float64bits(want[i].Start) ||
				math.Float64bits(got[i].End) != math.Float64bits(want[i].End) ||
				math.Float64bits(got[i].Speed) != math.Float64bits(want[i].Speed) {
				t.Fatalf("trial %d segment %d: %+v, SameReleaseInto gives %+v", trial, i, got[i], want[i])
			}
		}
		first := 0.0
		if len(want) > 0 {
			first = want[0].Speed
		}
		if math.Float64bits(speed) != math.Float64bits(first) {
			t.Fatalf("trial %d: request %v, schedule's first speed %v", trial, speed, first)
		}
	}
}
