// Fault injection: the typed fault-event model the robustness evaluation
// runs on. Three fault shapes are simulatable, covering the perturbations
// §IV's dynamic redistribution is claimed to absorb:
//
//   - Fault (core speed fault): one core throttles (SpeedFactor in (0,1))
//     or dies outright (SpeedFactor 0) during a window. Outaged cores are
//     evacuated — their resident jobs return to the waiting queue at the
//     fault edge so the policy's C-RR redistributes them — instead of
//     silently stalling.
//   - BudgetFault: the global dynamic power budget drops to a fraction of
//     its nominal value during a window (PSU derating, cap lowered by a
//     cluster manager), forcing WF to redistribute a smaller pool.
//   - Arrival bursts are a workload-time fault (see workload.Burst): a rate
//     multiplier over a window, applied when the stream is generated.
//
// The policy is re-invoked at every fault boundary so it can re-balance
// work and power; see ChaosConfig for sampling random fault schedules.
package sim

import (
	"math"

	"dessched/internal/cfgerr"
)

// Fault models a degradation of one core during a time window — a thermal
// throttling episode (SpeedFactor in (0,1)) or an outage (SpeedFactor 0).
// While faulted, the core completes only SpeedFactor of the work its plan
// calls for but still draws the planned power (throttled cycles are
// wasted). An outaged core is additionally evacuated at the fault edge:
// its undeparted jobs are re-queued for redistribution and its plan is
// cleared, so it draws no power while dead.
type Fault struct {
	Core        int
	Start, End  float64
	SpeedFactor float64 // effective fraction of planned speed, in [0, 1]
}

// Outage reports whether the fault kills the core outright.
func (f Fault) Outage() bool { return f.SpeedFactor == 0 }

// Validate reports parameter errors; the core count is checked by the
// engine against the configuration.
func (f Fault) Validate(cores int) error {
	if f.Core < 0 || f.Core >= cores {
		return cfgerr.New("sim", "faults", "sim: fault core %d out of range [0, %d)", f.Core, cores)
	}
	if f.Start < 0 || math.IsNaN(f.Start) || math.IsInf(f.Start, 0) {
		return cfgerr.New("sim", "faults", "sim: fault start %g must be non-negative and finite", f.Start)
	}
	// End = Forever (+Inf) is a valid open-ended fault: the core stays
	// degraded until a RepairModel closes the window or the run ends.
	if f.End <= f.Start || math.IsNaN(f.End) {
		return cfgerr.New("sim", "faults", "sim: fault window [%g, %g] empty", f.Start, f.End)
	}
	if f.SpeedFactor < 0 || f.SpeedFactor > 1 {
		return cfgerr.New("sim", "faults", "sim: fault speed factor %g outside [0, 1]", f.SpeedFactor)
	}
	return nil
}

// BudgetFault drops the global power budget to Fraction of its nominal
// value during [Start, End). Overlapping budget faults compound
// multiplicatively, mirroring core speed faults.
type BudgetFault struct {
	Start, End float64
	Fraction   float64 // effective budget multiplier, in [0, 1]
}

// Validate reports parameter errors.
func (f BudgetFault) Validate() error {
	if f.Start < 0 {
		return cfgerr.New("sim", "budget_faults", "sim: budget fault start %g is negative", f.Start)
	}
	if f.End <= f.Start {
		return cfgerr.New("sim", "budget_faults", "sim: budget fault window [%g, %g] empty", f.Start, f.End)
	}
	if f.Fraction < 0 || f.Fraction > 1 {
		return cfgerr.New("sim", "budget_faults", "sim: budget fraction %g outside [0, 1]", f.Fraction)
	}
	return nil
}

// BudgetAt returns the effective power budget at time t: the nominal
// budget scaled by every budget fault active at t.
func (c *Config) BudgetAt(t float64) float64 {
	b := c.Budget
	for _, f := range c.BudgetFaults {
		if t >= f.Start && t < f.End {
			b *= f.Fraction
		}
	}
	return b
}

// nextBudgetChange returns the earliest window edge after t — the next
// instant BudgetAt may change — or +Inf when none remains.
func (c *Config) nextBudgetChange(t float64) float64 {
	next := math.Inf(1)
	for _, f := range c.BudgetFaults {
		if f.Start > t && f.Start < next {
			next = f.Start
		}
		if f.End > t && f.End < next {
			next = f.End
		}
	}
	return next
}

// speedFactor returns the effective speed multiplier of a core at time t.
// Overlapping faults compound multiplicatively.
func (e *engine) speedFactor(core int, t float64) float64 {
	f := 1.0
	for _, fl := range e.cfg.Faults {
		if fl.Core == core && t >= fl.Start && t < fl.End {
			f *= fl.SpeedFactor
		}
	}
	return f
}
