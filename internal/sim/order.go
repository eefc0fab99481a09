package sim

import (
	"sort"

	"dessched/internal/names"
)

// QueueOrder selects the ready-queue discipline: the order in which the
// engine presents waiting jobs to the policy at every invocation. The
// policy sees the ordered queue through State.Queue and State.DrainQueue,
// so the discipline shapes every downstream decision — the DES policy's
// C-RR distribution walks the queue front to back, and the greedy
// baselines' FCFS pick takes the queue head.
//
// OrderFCFS (the zero value) keeps the queue in arrival order and skips
// the sort entirely, so runs with the default discipline stay bit-identical
// to runs predating the knob. Every other discipline is a stable sort:
// jobs that compare equal keep their arrival order, preserving determinism.
type QueueOrder int

// Ready-queue disciplines.
const (
	// OrderFCFS presents jobs in arrival order — the default, no sort.
	OrderFCFS QueueOrder = iota
	// OrderSJF presents jobs by ascending remaining demand.
	OrderSJF
	// OrderEDF presents jobs by ascending deadline.
	OrderEDF
	// OrderPrioSJF presents jobs by descending class priority
	// (Config.ClassPriority; higher value = more important), then by
	// ascending remaining demand within a tier.
	OrderPrioSJF
	// OrderPrioEDF presents jobs by descending class priority, then by
	// ascending deadline within a tier.
	OrderPrioEDF
)

// QueueOrders is the name table of the ready-queue disciplines:
// ParseQueueOrder, String and the policy registry all read it.
var QueueOrders = names.Table[QueueOrder]{
	Domain: "sim", Field: "queue_order", Noun: "queue order",
	Rows: []names.Row[QueueOrder]{
		{Name: "fcfs", Summary: "arrival order (default; bit-identical to runs predating the knob)", Value: OrderFCFS},
		{Name: "sjf", Summary: "ascending remaining demand", Value: OrderSJF},
		{Name: "edf", Summary: "ascending deadline", Value: OrderEDF},
		{Name: "prio-sjf", Aliases: []string{"priosjf"}, Summary: "descending class priority, then ascending remaining demand", Value: OrderPrioSJF},
		{Name: "prio-edf", Aliases: []string{"prioedf"}, Summary: "descending class priority, then ascending deadline", Value: OrderPrioEDF},
	},
}

// String returns the discipline's canonical name in QueueOrders.
func (o QueueOrder) String() string { return names.NameOf(&QueueOrders, o) }

// ParseQueueOrder resolves a discipline name or alias through QueueOrders;
// the empty string is OrderFCFS. Unknown names are a *cfgerr.Error.
func ParseQueueOrder(s string) (QueueOrder, error) {
	r, err := QueueOrders.Lookup(s)
	return r.Value, err
}

// orderQueue applies the configured ready-queue discipline to the waiting
// queue in place. Called once per invocation, before the policy sees the
// queue; OrderFCFS never reaches here.
func (e *engine) orderQueue() {
	q := e.queue
	if len(q) < 2 {
		return
	}
	switch e.cfg.QueueOrder {
	case OrderSJF:
		sort.SliceStable(q, func(a, b int) bool {
			return q[a].Remaining() < q[b].Remaining()
		})
	case OrderEDF:
		sort.SliceStable(q, func(a, b int) bool {
			return q[a].Job.Deadline < q[b].Job.Deadline
		})
	case OrderPrioSJF:
		sort.SliceStable(q, func(a, b int) bool {
			pa, pb := e.cfg.PriorityFor(q[a].Job.Class), e.cfg.PriorityFor(q[b].Job.Class)
			if pa != pb {
				return pa > pb
			}
			return q[a].Remaining() < q[b].Remaining()
		})
	case OrderPrioEDF:
		sort.SliceStable(q, func(a, b int) bool {
			pa, pb := e.cfg.PriorityFor(q[a].Job.Class), e.cfg.PriorityFor(q[b].Job.Class)
			if pa != pb {
				return pa > pb
			}
			return q[a].Job.Deadline < q[b].Job.Deadline
		})
	}
}
