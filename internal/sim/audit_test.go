package sim

import (
	"math"
	"testing"

	"dessched/internal/power"
	"dessched/internal/yds"
)

// gappyPolicy binds waiting jobs round-robin and plans each core's jobs
// back to back, leaving a gap before every segment and alternating two
// speeds. Its power therefore steps at segment starts that no event marks,
// and its plans ignore the budget.
type gappyPolicy struct{ next int }

func (p *gappyPolicy) Name() string { return "test-gappy" }

func (p *gappyPolicy) Plan(now float64, s *State) {
	for _, js := range s.DrainQueue() {
		s.Bind(js, p.next%len(s.Cores))
		p.next++
	}
	for i, c := range s.Cores {
		var segs []yds.Segment
		cur := now
		for k, r := range c.ReadyJobs(now) {
			speed := 1.5 + float64(k%2)
			start := cur + 0.002
			end := math.Min(start+r.Remaining()/power.Rate(speed), r.Deadline)
			if end <= start {
				continue
			}
			segs = append(segs, yds.Segment{ID: r.ID, Start: start, End: end, Speed: speed})
			cur = end
		}
		s.SetPlan(i, segs)
	}
}

// directDraw is the audit's total computed from scratch at now, the way
// the audit summed it at every event before it was memoized.
func directDraw(e *engine, now float64) float64 {
	total := 0.0
	for _, c := range e.cores {
		s := c.SpeedAt(now)
		if s == 0 {
			total += e.cfg.Power.DynamicPower(e.cfg.IdleBurnSpeed)
			continue
		}
		total += e.cfg.Power.DynamicPower(s)
	}
	return total
}

// After every event, the memoized draw and budget threshold must equal
// their direct computation bit for bit — across plan installs, gaps inside
// plans, an outage evacuation, a throttled core and overlapping budget
// windows.
func TestAuditMemoMatchesDirectComputation(t *testing.T) {
	cfg := testCfg(3)
	cfg.Budget = 25
	cfg.Faults = []Fault{
		{Core: 1, Start: 0.3, End: 0.6, SpeedFactor: 0},
		{Core: 2, Start: 0.2, End: 0.9, SpeedFactor: 0.5},
	}
	cfg.BudgetFaults = []BudgetFault{{Start: 0.4, End: 0.8, Fraction: 0.5}, {Start: 0.7, End: 1.2, Fraction: 0.8}}
	st, err := Start(cfg, benchJobs(400), &gappyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	e := st.e
	audits := 0
	for {
		it, ok := e.nextEvent(math.Inf(1))
		if !ok {
			break
		}
		stop, err := e.processEvent(it)
		if err != nil {
			t.Fatal(err)
		}
		now := it.Time
		if want := directDraw(e, now); math.Float64bits(e.drawTotal) != math.Float64bits(want) {
			t.Fatalf("event %d at %g: memoized draw %v, direct %v", e.eventsProcessed, now, e.drawTotal, want)
		}
		if want := e.cfg.BudgetAt(now)*(1+1e-6) + 1e-9; math.Float64bits(e.budgetLimit) != math.Float64bits(want) {
			t.Fatalf("event %d at %g: memoized budget threshold %v, direct %v", e.eventsProcessed, now, e.budgetLimit, want)
		}
		audits++
		if stop {
			break
		}
	}
	if audits < 1000 {
		t.Fatalf("only %d audits", audits)
	}
	if e.budgetViolations == 0 {
		t.Error("no budget violation: the scenario no longer reaches the violation count")
	}
}
