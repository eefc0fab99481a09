package registry

import (
	"fmt"
	"sort"
	"testing"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/sim"
)

// parse resolves a name through its kind's owning parser and returns the
// canonical name of the parsed value.
func parse(k Kind, name string) (string, error) {
	switch k {
	case KindScheduler:
		s, err := cluster.ParsePolicy(name)
		return s.Name, err
	case KindQueueOrder:
		v, err := sim.ParseQueueOrder(name)
		return v.String(), err
	case KindAdmission:
		v, err := admission.ParsePolicy(name)
		return v.String(), err
	case KindDispatch:
		v, err := cluster.ParseDispatch(name)
		return v.String(), err
	}
	return "", fmt.Errorf("unknown kind %q", k)
}

// Every canonical name and every alias must resolve through its kind's
// parser and canonicalize: parsing yields a value that stringifies to the
// entry's canonical name.
func TestCatalogueRoundTrips(t *testing.T) {
	for _, e := range All() {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			got, err := parse(e.Kind, name)
			if err != nil {
				t.Errorf("%s %q (via %q): %v", e.Kind, e.Name, name, err)
				continue
			}
			if got != e.Name {
				t.Errorf("%s %q: parsing %q round-tripped to %q", e.Kind, e.Name, name, got)
			}
		}
	}
}

func TestUnknownNamesAreTypedErrors(t *testing.T) {
	for _, k := range []Kind{KindScheduler, KindQueueOrder, KindAdmission, KindDispatch} {
		_, err := parse(k, "no-such-policy")
		if err == nil {
			t.Errorf("%s: unknown name accepted", k)
			continue
		}
		if _, ok := cfgerr.As(err); !ok {
			t.Errorf("%s: unknown-name error is not a *cfgerr.Error: %v", k, err)
		}
	}
}

func TestAllSortedAndComplete(t *testing.T) {
	all := All()
	if !sort.SliceIsSorted(all, func(a, b int) bool {
		if all[a].Kind != all[b].Kind {
			return all[a].Kind < all[b].Kind
		}
		return all[a].Name < all[b].Name
	}) {
		t.Error("All() is not sorted by kind then name")
	}
	counts := map[Kind]int{}
	for _, e := range all {
		counts[e.Kind]++
		if e.Summary == "" {
			t.Errorf("%s %q has no summary", e.Kind, e.Name)
		}
	}
	want := map[Kind]int{KindScheduler: 16, KindQueueOrder: 5, KindAdmission: 4, KindDispatch: 4}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("kind %s has %d entries, want %d", k, counts[k], n)
		}
		if got := Names(k); len(got) != n || !sort.StringsAreSorted(got) {
			t.Errorf("Names(%s) = %v: want %d sorted names", k, got, n)
		}
	}
}
