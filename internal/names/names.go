// Package names is the row type and lookup behind the policy name tables.
// Each policy kind keeps one Table in the package that owns its type —
// cluster.Policies (schedulers), sim.QueueOrders, admission.Policies and
// cluster.Dispatches — and that kind's parser, String method, flag help,
// error text and registry catalogue all read it, so every surface accepts
// the same names.
package names

import (
	"slices"
	"strings"

	"dessched/internal/cfgerr"
)

// Row is one named value of a kind: its canonical name, the other
// spellings parsing accepts, and a one-line summary for the catalogue.
type Row[T any] struct {
	Name    string
	Aliases []string
	Summary string
	Value   T
}

// Table is one policy kind's names. The first row is the default that an
// empty name selects.
type Table[T any] struct {
	// Domain and Field type the unknown-name error (see cfgerr.Error);
	// Noun names the kind in its message.
	Domain, Field, Noun string
	Rows                []Row[T]
}

// Lookup resolves a name or alias, ignoring case and surrounding space;
// "" selects the first row. An unknown name is a *cfgerr.Error listing
// the canonical names.
func (t *Table[T]) Lookup(name string) (Row[T], error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return t.Rows[0], nil
	}
	for _, r := range t.Rows {
		if r.Name == key || slices.Contains(r.Aliases, key) {
			return r, nil
		}
	}
	return Row[T]{}, cfgerr.New(t.Domain, t.Field, "%s: unknown %s %q (want one of %s)",
		t.Domain, t.Noun, name, strings.Join(t.Names(), ", "))
}

// Names returns the canonical names in table order.
func (t *Table[T]) Names() []string {
	out := make([]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r.Name
	}
	return out
}

// Help lists the canonical names for flag help: "a | b | c".
func (t *Table[T]) Help() string { return strings.Join(t.Names(), " | ") }

// NameOf returns the canonical name of v, or "unknown" when no row
// holds it.
func NameOf[T comparable](t *Table[T], v T) string {
	for _, r := range t.Rows {
		if r.Value == v {
			return r.Name
		}
	}
	return "unknown"
}
