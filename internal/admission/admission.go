// Package admission is the load-shedding stage in front of the scheduler.
// Under overload the waiting queue grows without bound and every policy
// eventually collapses: deadlines expire faster than cores can drain work,
// and (for non-partial jobs) quality falls off a cliff. Admission control
// bounds the queue and chooses which jobs to turn away so that overload
// degrades quality gracefully instead.
//
// Four policies are provided:
//
//   - None: admit everything (the paper's setting).
//   - TailDrop: when the queue is over its limit, drop the newest arrival —
//     the classic router discipline, oblivious to job value.
//   - QualityAware: drop the queued job with the lowest marginal quality
//     per unit of demand, q(demand)/demand. Under a concave quality
//     function this sheds the large jobs whose completion buys the least
//     quality per cycle, preserving throughput of high-value work.
//   - Priority: drop from the lowest SLO priority tier first
//     (sim.Config.ClassPriority; higher value = more important), choosing
//     the lowest-marginal-quality job within that tier. A higher tier is
//     never shed while a lower tier is queued, so overload degrades the
//     least important classes first.
//
// The stage runs inside the simulator on every arrival (sim.Config.Admission)
// and mirrors the admission gate a production server would place before its
// scheduler.
package admission

import (
	"fmt"

	"dessched/internal/names"
)

// Policy selects the shedding discipline.
type Policy int

// Shedding disciplines.
const (
	None Policy = iota
	TailDrop
	QualityAware
	Priority
)

// Policies is the name table of the shedding disciplines: ParsePolicy,
// String and the policy registry all read it.
var Policies = names.Table[Policy]{
	Domain: "admission", Field: "policy", Noun: "policy",
	Rows: []names.Row[Policy]{
		{Name: "none", Summary: "admit everything (the paper's setting)", Value: None},
		{Name: "tail-drop", Aliases: []string{"taildrop"}, Summary: "shed the newest arrival once the queue exceeds its limit", Value: TailDrop},
		{Name: "quality-aware", Aliases: []string{"qualityaware", "quality"}, Summary: "shed the queued job with the lowest marginal quality per unit demand", Value: QualityAware},
		{Name: "priority", Aliases: []string{"prio"}, Summary: "shed the lowest class-priority tier first, lowest marginal quality within it", Value: Priority},
	},
}

// String returns the policy's canonical name in Policies.
func (p Policy) String() string { return names.NameOf(&Policies, p) }

// ParsePolicy resolves a policy name or alias through Policies; the empty
// string is None. Unknown names are a *cfgerr.Error.
func ParsePolicy(s string) (Policy, error) {
	r, err := Policies.Lookup(s)
	return r.Value, err
}

// Config is the admission stage's configuration. The zero value admits
// everything.
type Config struct {
	Policy   Policy
	MaxQueue int // shed whenever more than MaxQueue jobs wait; required when Policy != None
}

// Enabled reports whether the stage sheds at all.
func (c Config) Enabled() bool { return c.Policy != None }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Policy < None || c.Policy > Priority {
		return fmt.Errorf("admission: unknown policy %d", int(c.Policy))
	}
	if c.Policy != None && c.MaxQueue <= 0 {
		return fmt.Errorf("admission: policy %s needs MaxQueue > 0, got %d", c.Policy, c.MaxQueue)
	}
	return nil
}
