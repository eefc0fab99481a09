// Package registry is the unified policy catalogue: every named policy the
// simulator accepts — scheduling policies, ready-queue disciplines,
// admission policies, and cluster dispatch policies — with its canonical
// name, accepted aliases, and a one-line summary.
//
// The catalogue is read from the name table each kind's owning package
// keeps (cluster.Policies, sim.QueueOrders, admission.Policies,
// cluster.Dispatches). Callers parse names with the owners' parsers
// (cluster.ParsePolicy, sim.ParseQueueOrder, admission.ParsePolicy,
// cluster.ParseDispatch), which read the same tables, so every layer
// accepts the same names and rejects unknown ones with a typed
// *cfgerr.Error. Parsing any name or alias yields a value whose String()
// (or spec Name) is the canonical name.
package registry

import (
	"slices"
	"sort"

	"dessched/internal/admission"
	"dessched/internal/cluster"
	"dessched/internal/names"
	"dessched/internal/sim"
)

// Kind classifies a registry entry by the configuration slot it fills.
type Kind string

// Registry kinds.
const (
	// KindScheduler is a per-server scheduling policy spec
	// (cluster.ParsePolicy / ClusterConfig.Policy / sweep policies).
	KindScheduler Kind = "scheduler"
	// KindQueueOrder is a ready-queue discipline (sim.Config.QueueOrder).
	KindQueueOrder Kind = "queue_order"
	// KindAdmission is a load-shedding policy (AdmissionConfig.Policy).
	KindAdmission Kind = "admission"
	// KindDispatch is a cluster front-end routing policy
	// (ClusterConfig.Dispatch).
	KindDispatch Kind = "dispatch"
)

// Entry describes one registered policy.
type Entry struct {
	// Kind is the configuration slot the policy fills.
	Kind Kind
	// Name is the canonical name; parsing it round-trips through the
	// value's String() (or policy-spec Name).
	Name string
	// Aliases are additional accepted spellings.
	Aliases []string
	// Summary is a one-line description.
	Summary string
}

// All returns every registered policy, sorted by kind then canonical name,
// read from the name table of each kind's owning package. The returned
// slice is a copy; callers may reorder it freely.
func All() []Entry {
	out := rows(nil, KindScheduler, &cluster.Policies)
	out = rows(out, KindQueueOrder, &sim.QueueOrders)
	out = rows(out, KindAdmission, &admission.Policies)
	out = rows(out, KindDispatch, &cluster.Dispatches)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Kind != out[b].Kind {
			return out[a].Kind < out[b].Kind
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// rows appends one name table's rows as entries of kind k.
func rows[T any](out []Entry, k Kind, t *names.Table[T]) []Entry {
	for _, r := range t.Rows {
		out = append(out, Entry{k, r.Name, slices.Clone(r.Aliases), r.Summary})
	}
	return out
}

// ByKind returns the registered policies of one kind, sorted by name.
func ByKind(k Kind) []Entry {
	var out []Entry
	for _, e := range All() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Names returns the canonical names of one kind, sorted.
func Names(k Kind) []string {
	var out []string
	for _, e := range ByKind(k) {
		out = append(out, e.Name)
	}
	return out
}
