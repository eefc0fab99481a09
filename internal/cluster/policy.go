package cluster

import (
	"dessched/internal/baseline"
	"dessched/internal/core"
	"dessched/internal/names"
	"dessched/internal/sim"
)

// PolicySpec is a parsed scheduling-policy specification: a factory that
// builds a fresh, unshared policy instance per server (policies carry
// cumulative C-RR state, so instances must never be shared across
// concurrent engines) plus the config adjustment the spec implies
// (architecture idle burn, baseline triggers). Name is the canonical name
// in Policies.
type PolicySpec struct {
	Name      string
	New       func() sim.Policy
	Configure func(*sim.Config)
}

// Policies is the name table of the scheduling policies, shared by the
// single-server runs, the cluster layer, the sweep executor and the HTTP
// API: ParsePolicy, flag help and the policy registry all read it. Each
// row's spec carries its constructor and config hook; ParsePolicy fills in
// the Name.
var Policies = names.Table[PolicySpec]{
	Domain: "cluster", Field: "policy", Noun: "policy",
	Rows: []names.Row[PolicySpec]{
		{Name: "des", Aliases: []string{"des-c"}, Summary: "DES with core-level DVFS: C-RR job distribution + water-filling power + Online-QE", Value: desSpec(core.CDVFS, core.New)},
		{Name: "des-s", Summary: "DES on system-level DVFS (all cores share one speed)", Value: desSpec(core.SDVFS, core.New)},
		{Name: "des-no", Summary: "DES on a fixed-speed processor without DVFS", Value: desSpec(core.NoDVFS, core.New)},
		{Name: "des-static", Summary: "DES with static equal power split (water-filling ablation)", Value: desSpec(core.CDVFS, core.NewStaticPower)},
		{Name: "fcfs", Summary: "greedy first-come-first-served baseline, static power split", Value: greedySpec(baseline.FCFS, false)},
		{Name: "ljf", Summary: "greedy longest-job-first baseline", Value: greedySpec(baseline.LJF, false)},
		{Name: "sjf", Summary: "greedy shortest-job-first baseline", Value: greedySpec(baseline.SJF, false)},
		{Name: "edf", Summary: "greedy earliest-deadline-first baseline", Value: greedySpec(baseline.EDF, false)},
		{Name: "prio-sjf", Aliases: []string{"priosjf"}, Summary: "greedy class-priority hybrid: highest tier first, SJF within the tier", Value: greedySpec(baseline.PrioSJF, false)},
		{Name: "prio-edf", Aliases: []string{"prioedf"}, Summary: "greedy class-priority hybrid: highest tier first, EDF within the tier", Value: greedySpec(baseline.PrioEDF, false)},
		{Name: "fcfs-wf", Summary: "FCFS with dynamic water-filling power", Value: greedySpec(baseline.FCFS, true)},
		{Name: "ljf-wf", Summary: "LJF with dynamic water-filling power", Value: greedySpec(baseline.LJF, true)},
		{Name: "sjf-wf", Summary: "SJF with dynamic water-filling power", Value: greedySpec(baseline.SJF, true)},
		{Name: "edf-wf", Summary: "EDF with dynamic water-filling power", Value: greedySpec(baseline.EDF, true)},
		{Name: "prio-sjf-wf", Aliases: []string{"priosjf-wf"}, Summary: "priority-SJF hybrid with water-filling power", Value: greedySpec(baseline.PrioSJF, true)},
		{Name: "prio-edf-wf", Aliases: []string{"prioedf-wf"}, Summary: "priority-EDF hybrid with water-filling power", Value: greedySpec(baseline.PrioEDF, true)},
	},
}

// desSpec runs a DES variant on one DVFS architecture.
func desSpec(arch core.Arch, newDES func(core.Arch) *core.DES) PolicySpec {
	return PolicySpec{
		New:       func() sim.Policy { return newDES(arch) },
		Configure: func(cfg *sim.Config) { core.ApplyArch(cfg, arch) },
	}
}

// greedySpec runs a greedy baseline, which schedules on idle cores only
// (§V-A).
func greedySpec(order baseline.Order, wf bool) PolicySpec {
	return PolicySpec{
		New:       func() sim.Policy { return baseline.New(order, wf) },
		Configure: func(cfg *sim.Config) { cfg.Triggers = sim.Triggers{IdleCore: true} },
	}
}

// ParsePolicy resolves a scheduling-policy name or alias through Policies
// ("" is "des"); the spec's Name is the canonical name. Unknown names are
// a *cfgerr.Error.
func ParsePolicy(name string) (PolicySpec, error) {
	r, err := Policies.Lookup(name)
	if err != nil {
		return PolicySpec{}, err
	}
	spec := r.Value
	spec.Name = r.Name
	return spec, nil
}

// PolicySpec resolves the policy the fleet's servers run: a NewPolicy
// factory as "custom", else Policy through ParsePolicy. Its Name is the
// canonical name fingerprints and run ledgers record.
func (c Config) PolicySpec() (PolicySpec, error) {
	if c.NewPolicy != nil {
		return PolicySpec{Name: "custom", New: c.NewPolicy}, nil
	}
	return ParsePolicy(c.Policy)
}
