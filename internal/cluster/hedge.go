package cluster

import (
	"math"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
)

// HedgeConfig enables hedged dispatch: jobs whose deadline window is tight
// are duplicated to a second server at dispatch time, and the first replica
// to complete wins — the classic tail-latency hedge, adapted to the
// best-effort setting where a "loss" can still carry partial quality.
//
// Semantics:
//
//   - a job is hedged when its deadline window (Deadline − Release) is at
//     most Window seconds — those are the requests with the least slack to
//     absorb an outage, a queue spike, or a budget throttle on one server;
//   - the secondary replica goes to the next up server after the primary in
//     index order (never the primary itself); with one server, or with every
//     other server down at release, the job is not hedged;
//   - at aggregation the two replicas are resolved first-completion-wins:
//     the earlier completed replica wins; if only one completed it wins; if
//     neither completed the higher-quality replica wins; all ties break to
//     the primary. The losing replica's quality, arrival, and outcome are
//     subtracted from the aggregate so the cluster result counts every
//     logical job exactly once;
//   - the energy both replicas burned stays counted — hedging buys response
//     quality with duplicated work, and the cluster result must show that
//     cost, not hide it.
//
// The hedging pass and its resolution are sequential pure functions of the
// configuration, so hedged runs stay bit-identical for any Workers count.
// Jobs are matched across servers by ID: a stream with duplicate IDs only
// hedges the first occurrence of each.
type HedgeConfig struct {
	// Window is the deadline-slack threshold in seconds: jobs with
	// Deadline − Release ≤ Window are hedged. Zero disables hedging.
	Window float64

	// Limit caps how many jobs are hedged over the whole run (0 = no cap),
	// bounding the duplicated work under pathological workloads.
	Limit int
}

// Enabled reports whether hedged dispatch is active.
func (h HedgeConfig) Enabled() bool { return h.Window > 0 }

// Validate reports configuration errors as typed *cfgerr.Error values.
func (h HedgeConfig) Validate() error {
	if h.Window < 0 || math.IsNaN(h.Window) || math.IsInf(h.Window, 0) {
		return cfgerr.New("cluster", "hedge_window", "cluster: hedge window must be non-negative and finite, got %g", h.Window)
	}
	if h.Limit < 0 {
		return cfgerr.New("cluster", "hedge_limit", "cluster: hedge limit must be non-negative, got %d", h.Limit)
	}
	return nil
}

// hedgePair records one duplicated dispatch for aggregation-time
// resolution.
type hedgePair struct {
	id        job.ID
	demand    float64
	class     string
	primary   int
	secondary int
}

// secondaryWins resolves one hedge pair: first completion wins, then
// quality, with every tie breaking to the primary.
func secondaryWins(po, so sim.JobOutcome) bool {
	pc, sc := po.Reason == sim.Completed, so.Reason == sim.Completed
	switch {
	case pc && sc:
		return so.DepartAt < po.DepartAt
	case sc:
		return true
	case pc:
		return false
	default:
		return so.Quality > po.Quality
	}
}

// resolveHedges folds the hedge pairs into the aggregate: for every pair the
// losing replica's quality, arrival, and outcome are subtracted (qmax
// evaluates the job class's quality function at a job's full demand, for
// the MaxQuality normalizer) — from the fleet totals and from the job's
// per-class entry alike — and the hedge counters are filled in. captured
// holds, per server, the replica outcomes the engine observers recorded at
// departure. Pairs are resolved in dispatch order, so the subtraction
// sequence — and with it the float result — is deterministic.
func resolveHedges(res *Result, pairs []hedgePair, captured []map[job.ID]sim.JobOutcome, qmax func(string, float64) float64) {
	if len(pairs) == 0 {
		return
	}
	classEntry := func(name string) *sim.ClassResult {
		for i := range res.Classes {
			if res.Classes[i].Class == name {
				return &res.Classes[i]
			}
		}
		return nil
	}
	for _, p := range pairs {
		po, okP := captured[p.primary][p.id]
		so, okS := captured[p.secondary][p.id]
		if !okP || !okS {
			continue
		}
		win := secondaryWins(po, so)
		loser := so
		if win {
			loser = po
			res.HedgeWins++
			res.HedgeQuality += so.Quality - po.Quality
		}
		res.Hedged++
		res.Quality -= loser.Quality
		res.MaxQuality -= qmax(p.class, p.demand)
		res.Arrived--
		switch loser.Reason {
		case sim.Completed:
			res.Completed--
		case sim.DeadlineHit:
			res.Deadlined--
		case sim.PolicyDiscard:
			res.Discarded--
		case sim.Shed:
			res.Shed--
		case sim.Abandoned:
			res.Abandoned--
		}
		if cr := classEntry(p.class); cr != nil {
			cr.Quality -= loser.Quality
			cr.MaxQuality -= qmax(p.class, p.demand)
			cr.Arrived--
			switch loser.Reason {
			case sim.Completed:
				cr.Completed--
			case sim.DeadlineHit:
				cr.Deadlined--
			case sim.PolicyDiscard:
				cr.Discarded--
			case sim.Shed:
				cr.Shed--
			case sim.Abandoned:
				cr.Abandoned--
			}
		}
	}
}
