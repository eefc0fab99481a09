package cluster

import (
	"dessched/internal/dist"
	"dessched/internal/power"
	"dessched/internal/sim"
	"dessched/internal/stats"
)

// epochFiller partitions the global power budget into per-server budgets
// one dispatch epoch at a time — the paper's water-filling policy lifted
// one level up the hierarchy (§IV-C distributes a server's budget over
// cores; this distributes the datacenter's budget over servers):
//
//  1. Each server requests the power it needs to clear the demand
//     dispatched to it during the epoch (equal-split across its available
//     cores, converted through the convex power model, scaled by the
//     Headroom margin), capped by its availability-scaled nominal budget —
//     a server whose cores are dark cannot spend power on them, so its
//     effective budget shrinks with its availability.
//  2. dist.Filler water-fills the global budget over those requests:
//     servers asking less than the fair share get exactly what they ask,
//     the surplus is shared equally among the rest.
//  3. Leftover global budget (epochs where total demand is light) is
//     water-filled a second time from the assigned floors up to the
//     availability caps, so a lightly loaded datacenter still lets every
//     healthy server burst to its nominal budget.
//
// The coordinator hands each assignment to its server's engine as a budget
// fraction (assigned/nominal, see sim.Stream.ExtendBudget) — the fault
// layer's budget machinery doubles as the hierarchy's enforcement
// mechanism. The filler carries the running per-server watt-second totals
// across calls; the computation is sequential float arithmetic in fixed
// order, so the same inputs always yield the same budgets bit for bit.
type epochFiller struct {
	servers  int
	server   sim.Config
	nominal  float64
	global   float64
	epochLen float64
	headroom float64
	outages  [][][]interval

	filler   dist.Filler
	scratch  []float64
	requests []float64
	caps     []float64
	assigned []float64
	extra    []float64

	shares []float64 // running watt-seconds per server
}

// newEpochFiller prepares a filler for a fleet.
func newEpochFiller(servers int, server sim.Config, global, epochLen, headroom float64, outages [][][]interval) *epochFiller {
	return &epochFiller{
		servers:  servers,
		server:   server,
		nominal:  server.Budget,
		global:   global,
		epochLen: epochLen,
		headroom: headroom,
		outages:  outages,
		requests: make([]float64, servers),
		caps:     make([]float64, servers),
		shares:   make([]float64, servers),
	}
}

// fill water-fills epoch e (demand holds each server's dispatched demand in
// the epoch, in processing units) and returns the assigned watts per
// server. The returned slice is the filler's scratch buffer — valid until
// the next call.
func (f *epochFiller) fill(e int, demand []float64) []float64 {
	epochLen := f.epochLen
	t0 := float64(e) * epochLen
	t1 := t0 + epochLen
	cores := float64(f.server.Cores)
	for s := 0; s < f.servers; s++ {
		availSec := cores * epochLen
		if outs := f.outages[s]; outs != nil {
			for c := 0; c < f.server.Cores; c++ {
				availSec -= overlap(outs[c], t0, t1)
			}
		}
		availFrac := availSec / (cores * epochLen)
		f.caps[s] = f.nominal * availFrac
		if availSec <= 0 {
			f.requests[s] = 0
			f.caps[s] = 0
			continue
		}
		// Power to process this epoch's demand with the available
		// cores sharing it equally — equal split minimizes power for
		// a convex model, mirroring the paper's equal-sharing insight.
		rate := demand[s] * f.headroom / epochLen // units/s
		k := availSec / epochLen                  // effective cores
		speed := rate / k / power.UnitsPerGHzSecond
		req := k * f.server.Power.DynamicPower(speed)
		if req > f.caps[s] {
			req = f.caps[s]
		}
		f.requests[s] = req
	}

	// Stage one: demand-driven water-fill of the global budget.
	f.assigned = f.filler.WaterFill(f.assigned, f.global, f.requests)
	used := 0.0
	for _, a := range f.assigned {
		used += a
	}
	// Stage two: share the leftover up to the availability caps.
	if leftover := f.global - used; leftover > 0 {
		f.extra = stats.WaterSharesInto(f.extra, leftover, f.assigned, f.caps, &f.scratch)
		for s := range f.assigned {
			f.assigned[s] += f.extra[s]
		}
	}

	for s := 0; s < f.servers; s++ {
		f.shares[s] += f.assigned[s] * epochLen
	}
	return f.assigned
}

// finishShares converts the accumulated watt-seconds into the time-averaged
// effective budget per server over n epochs, returning the shares slice.
func (f *epochFiller) finishShares(n int) []float64 {
	end := float64(n) * f.epochLen
	for s := range f.shares {
		f.shares[s] /= end
	}
	return f.shares
}

// budgetFrac clamps an assigned-watts/nominal ratio into the [0, 1] budget
// fraction the per-server engines consume.
func budgetFrac(assignedW, nominal float64) float64 {
	frac := assignedW / nominal
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	return frac
}
