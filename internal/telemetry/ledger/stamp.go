package ledger

import (
	"fmt"

	"dessched/internal/cluster"
	"dessched/internal/sim"
	"dessched/internal/sweep"
)

// Every entry a run records is built by one of the three builders below,
// on the CLI and over HTTP alike, so one run gets one stamp on every
// surface. The stamp rule:
//
//   - Fingerprint is the one the run's snapshot carries. For one server
//     that is sim.FingerprintConfig of the engine config under the policy
//     instance's name (sim.Result.Policy), which is what RestoreStream
//     checks; for a fleet it is cluster.FingerprintConfig. A sweep runs
//     many configurations; it carries sweep.FingerprintGrid, the identity
//     of its grid.
//   - Policy (and each of Policies) is the registry's canonical name:
//     "des", never an alias or the instance's "DES/C-DVFS".
//
// The builders also fill the run shape and the outcome and class fields.
// The caller sets only what it alone knows: Cmd, Seed, Workload and
// WorkloadHash, DurationS (except for sweeps, whose grid holds it), Note
// and FlightDumps.

// ServerEntry stamps a single-server run: cfg is the exact engine config
// the run used (faults applied) and policy the canonical name it was
// asked for.
func ServerEntry(cfg *sim.Config, policy string, res sim.Result) Entry {
	return Entry{
		Fingerprint: Fingerprint(sim.FingerprintConfig(cfg, res.Policy)),
		Policy:      policy,
		Servers:     1,
		Cores:       cfg.Cores,
		BudgetW:     cfg.Budget,
		Jobs:        res.Arrived,
		Quality:     res.Quality,
		NormQuality: res.NormQuality,
		EnergyJ:     res.Energy,
		Completed:   res.Completed,
		Deadlined:   res.Deadlined,
		Shed:        res.Shed,
		Classes:     classMetrics(res.Classes),
	}
}

// FleetEntry stamps a fleet run of cfg. BudgetW is the global budget, or
// the servers' summed nominal budgets when the fleet has no hierarchy.
func FleetEntry(cfg cluster.Config, res cluster.Result) Entry {
	spec, _ := cfg.PolicySpec()
	budget := cfg.GlobalBudget
	if budget <= 0 {
		budget = cfg.Server.Budget * float64(cfg.Servers)
	}
	return Entry{
		Fingerprint: Fingerprint(cluster.FingerprintConfig(cfg)),
		Policy:      spec.Name,
		Servers:     cfg.Servers,
		Cores:       cfg.Server.Cores,
		BudgetW:     budget,
		Jobs:        res.Arrived,
		Quality:     res.Quality,
		NormQuality: res.NormQuality,
		EnergyJ:     res.Energy,
		Completed:   res.Completed,
		Deadlined:   res.Deadlined,
		Shed:        res.Shed,
		Classes:     classMetrics(res.Classes),
	}
}

// SweepEntry stamps a sweep with one manifest for the grid the report ran
// (defaults filled in): the grid's fingerprint, every policy and seed, the
// arrivals summed over all cells, and the headline numbers of the best
// cell — the first with the highest normalized quality — which the note
// names.
func SweepEntry(rep sweep.Report) Entry {
	g := rep.Grid
	e := Entry{Fingerprint: Fingerprint(sweep.FingerprintGrid(g)), Seeds: g.Seeds, Servers: g.Servers, DurationS: g.Duration}
	for _, p := range g.Policies {
		e.Policies = append(e.Policies, canonicalPolicy(p))
	}
	if len(rep.Cells) == 0 {
		return e
	}
	best := rep.Cells[0]
	for _, c := range rep.Cells {
		e.Jobs += c.Arrived
		if c.NormQuality > best.NormQuality {
			best = c
		}
	}
	e.NormQuality = best.NormQuality
	e.EnergyJ = best.Energy
	e.Note = fmt.Sprintf("sweep: %d cells; best cell policy=%s rate=%g cores=%d budget=%g seed=%d",
		len(rep.Cells), canonicalPolicy(best.Policy), best.Rate, best.Cores, best.Budget, best.Seed)
	return e
}

// canonicalPolicy is name's registry name; a name the registry does not
// know (no run accepts one) passes through.
func canonicalPolicy(name string) string {
	if spec, err := cluster.ParsePolicy(name); err == nil {
		return spec.Name
	}
	return name
}

func classMetrics(classes []sim.ClassResult) []ClassMetric {
	var out []ClassMetric
	for _, c := range classes {
		out = append(out, ClassMetric{
			Class:       c.Class,
			NormQuality: c.NormQuality,
			Completed:   c.Completed,
			Deadlined:   c.Deadlined,
			Shed:        c.Shed,
		})
	}
	return out
}
