package cluster

import (
	"dessched/internal/hashing"
	"dessched/internal/job"
	"dessched/internal/names"
	"dessched/internal/sim"
)

// Dispatch selects how the front-end spreads the request stream across the
// cluster's servers. Every policy is availability-aware: a server whose
// cores are all outaged at a job's release time receives no new work until
// the outage window closes (its in-flight jobs are evacuated by the
// per-server engine as usual).
type Dispatch int

// Dispatch policies.
const (
	// RoundRobin spreads arrivals cumulatively across available servers —
	// the fleet-level analogue of the paper's C-RR job distribution: the
	// cursor carries over between arrivals, so the assignment stays
	// balanced over the whole run, not per burst.
	RoundRobin Dispatch = iota
	// LeastLoaded routes each arrival to the available server with the
	// least outstanding dispatched demand (demand whose deadline has not
	// yet passed). Ties break toward the lowest server index.
	LeastLoaded
	// Hash routes by a stateless hash of the job ID (splitmix64), probing
	// linearly past unavailable servers — sticky routing for caches and
	// session affinity.
	Hash
	// ByClass pins each SLO class to its own contiguous partition of the
	// fleet (equal shares in Config.Classes order) and round-robins within
	// the partition, so one class's overload cannot queue behind another's.
	// Jobs of an unlisted (or empty) class, and jobs whose entire partition
	// is outaged, spill to a global round-robin cursor over all servers.
	ByClass
)

// Dispatches is the name table of the dispatch policies: ParseDispatch,
// String and the policy registry all read it.
var Dispatches = names.Table[Dispatch]{
	Domain: "cluster", Field: "dispatch", Noun: "dispatch policy",
	Rows: []names.Row[Dispatch]{
		{Name: "round-robin", Aliases: []string{"rr", "roundrobin"}, Summary: "cumulative round-robin across available servers", Value: RoundRobin},
		{Name: "least-loaded", Aliases: []string{"ll", "leastloaded"}, Summary: "route to the server with the least outstanding dispatched demand", Value: LeastLoaded},
		{Name: "hash", Summary: "sticky routing by a stateless hash of the job ID", Value: Hash},
		{Name: "by-class", Aliases: []string{"byclass", "class"}, Summary: "pin each SLO class to its own server partition, round-robin within it", Value: ByClass},
	},
}

// String returns the policy's canonical name in Dispatches.
func (d Dispatch) String() string { return names.NameOf(&Dispatches, d) }

// ParseDispatch resolves a dispatch name or alias through Dispatches; the
// empty string is RoundRobin. Unknown names are a *cfgerr.Error.
func ParseDispatch(s string) (Dispatch, error) {
	r, err := Dispatches.Lookup(s)
	return r.Value, err
}

// interval is one half-open time window [start, end).
type interval struct{ start, end float64 }

// mergedOutages returns, per core, the merged windows during which the
// core is fully outaged (effective speed factor zero). Throttle faults
// never produce an outage on their own; any covering zero-factor fault
// does, regardless of what it compounds with.
func mergedOutages(cores int, faults []sim.Fault) [][]interval {
	if len(faults) == 0 {
		return nil
	}
	per := make([][]interval, cores)
	for _, f := range faults {
		if f.SpeedFactor != 0 || f.Core < 0 || f.Core >= cores {
			continue
		}
		per[f.Core] = append(per[f.Core], interval{f.Start, f.End})
	}
	for c, ivs := range per {
		per[c] = mergeIntervals(ivs)
	}
	return per
}

// mergeIntervals coalesces overlapping/adjacent windows, in place-ish.
// Input order does not matter; output is sorted by start.
func mergeIntervals(ivs []interval) []interval {
	if len(ivs) <= 1 {
		return ivs
	}
	// Insertion sort: fault lists are tiny.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].start < ivs[j-1].start; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.start <= last.end {
			if iv.end > last.end {
				last.end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered reports whether t lies inside any window.
func covered(ivs []interval, t float64) bool {
	for _, iv := range ivs {
		if t >= iv.start && t < iv.end {
			return true
		}
	}
	return false
}

// overlap returns the total length of windows intersected with [a, b).
func overlap(ivs []interval, a, b float64) float64 {
	total := 0.0
	for _, iv := range ivs {
		lo, hi := iv.start, iv.end
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// serverUp reports whether at least one core of the server is not outaged
// at time t. outages is the server's per-core merged outage table (nil
// when the server has no faults).
func serverUp(cores int, outages [][]interval, t float64) bool {
	if outages == nil {
		return true
	}
	for c := 0; c < cores; c++ {
		if !covered(outages[c], t) {
			return true
		}
	}
	return false
}

// pending is one dispatched job's load accounting entry for LeastLoaded.
type pending struct{ deadline, demand float64 }

// dispatcher routes one arrival at a time, carrying the routing state —
// RoundRobin's cumulative cursor, LeastLoaded's outstanding-demand
// accounting — across calls. Routing is sequential and pure: the same
// arrival sequence always produces the same assignment — cluster
// determinism starts here.
type dispatcher struct {
	d       Dispatch
	servers int
	cores   int
	outages [][][]interval

	// LeastLoaded state: outstanding dispatched demand per server, with a
	// FIFO of (deadline, demand) to retire entries whose deadline passed.
	// Agreeable deadlines make the FIFO pop in deadline order.
	outstanding []float64
	queues      [][]pending
	heads       []int

	// ByClass state: the class → partition index map and one cumulative
	// round-robin cursor per partition (relative to the partition start).
	classIdx    map[string]int
	classCursor []int

	cursor int // RoundRobin's cumulative cursor (ByClass's spill cursor)
}

// newDispatcher builds a dispatcher for a fleet. outages has one per-core
// merged outage table per server (entries may be nil). classes is the
// ByClass partition order (ignored by the other policies).
func newDispatcher(d Dispatch, servers, cores int, outages [][][]interval, classes []string) *dispatcher {
	dp := &dispatcher{d: d, servers: servers, cores: cores, outages: outages}
	if d == LeastLoaded {
		dp.outstanding = make([]float64, servers)
		dp.queues = make([][]pending, servers)
		dp.heads = make([]int, servers)
	}
	if d == ByClass {
		dp.classIdx = make(map[string]int, len(classes))
		for i, c := range classes {
			dp.classIdx[c] = i
		}
		dp.classCursor = make([]int, len(classes))
	}
	return dp
}

// partition returns the half-open server range [lo, hi) owned by partition
// p of n: contiguous, near-equal shares covering the whole fleet.
func (dp *dispatcher) partition(p, n int) (lo, hi int) {
	return p * dp.servers / n, (p + 1) * dp.servers / n
}

func (dp *dispatcher) up(s int, t float64) bool { return serverUp(dp.cores, dp.outages[s], t) }

func (dp *dispatcher) anyUp(t float64) bool {
	for s := 0; s < dp.servers; s++ {
		if dp.up(s, t) {
			return true
		}
	}
	return false
}

// route assigns the next arrival to a server and reports whether the
// assignment was a reroute — the policy's first-choice server was outaged
// and the job landed elsewhere. Arrivals must come in release order (ID
// tie-break).
func (dp *dispatcher) route(j job.Job) (server int, rerouted bool) {
	t := j.Release
	allDown := !dp.anyUp(t)
	var s int
	var moved bool
	switch dp.d {
	case LeastLoaded:
		for q := 0; q < dp.servers; q++ {
			for dp.heads[q] < len(dp.queues[q]) && dp.queues[q][dp.heads[q]].deadline <= t {
				dp.outstanding[q] -= dp.queues[q][dp.heads[q]].demand
				dp.heads[q]++
			}
			// Compact the retired FIFO prefix so a long stream's routing
			// state stays O(jobs in flight), not O(jobs routed).
			if h := dp.heads[q]; h >= 256 && 2*h >= len(dp.queues[q]) {
				n := copy(dp.queues[q], dp.queues[q][h:])
				dp.queues[q] = dp.queues[q][:n]
				dp.heads[q] = 0
			}
		}
		s = -1
		down := -1 // least-loaded excluded (outaged) server
		for q := 0; q < dp.servers; q++ {
			if !allDown && !dp.up(q, t) {
				if down < 0 || dp.outstanding[q] < dp.outstanding[down] {
					down = q
				}
				continue
			}
			if s < 0 || dp.outstanding[q] < dp.outstanding[s] {
				s = q
			}
		}
		// A reroute: an outaged server would have won the selection.
		moved = down >= 0 && (dp.outstanding[down] < dp.outstanding[s] ||
			(dp.outstanding[down] == dp.outstanding[s] && down < s))
		dp.queues[s] = append(dp.queues[s], pending{j.Deadline, j.Demand})
		dp.outstanding[s] += j.Demand
	case Hash:
		s = int(hashing.SplitMix64(uint64(j.ID)) % uint64(dp.servers))
		if !allDown {
			for !dp.up(s, t) {
				s = (s + 1) % dp.servers
				moved = true
			}
		}
	case ByClass:
		p, ok := dp.classIdx[j.Class]
		if ok {
			n := len(dp.classCursor)
			lo, hi := dp.partition(p, n)
			width := hi - lo
			if width > 0 {
				// Round-robin inside the partition, probing past outaged
				// servers; give up after one full lap.
				for probe := 0; probe < width; probe++ {
					cand := lo + dp.classCursor[p]
					dp.classCursor[p] = (dp.classCursor[p] + 1) % width
					if allDown || dp.up(cand, t) {
						return cand, moved
					}
					moved = true
				}
			}
			// The whole partition is dark (or empty): spill globally.
			moved = true
		}
		// Unlisted/empty class, or spill: the global round-robin cursor.
		if !allDown {
			for !dp.up(dp.cursor, t) {
				dp.cursor = (dp.cursor + 1) % dp.servers
				moved = true
			}
		}
		s = dp.cursor
		dp.cursor = (dp.cursor + 1) % dp.servers
	default: // RoundRobin
		if !allDown {
			for !dp.up(dp.cursor, t) {
				dp.cursor = (dp.cursor + 1) % dp.servers
				moved = true
			}
		}
		s = dp.cursor
		dp.cursor = (dp.cursor + 1) % dp.servers
	}
	return s, moved
}
