package dessched

import "testing"

func TestPoliciesCatalogue(t *testing.T) {
	all := Policies()
	if len(all) == 0 {
		t.Fatal("empty policy catalogue")
	}
	kinds := map[PolicyKind]bool{}
	for _, e := range all {
		kinds[e.Kind] = true
	}
	for _, k := range []PolicyKind{PolicyScheduler, PolicyQueueOrder, PolicyAdmission, PolicyDispatch} {
		if !kinds[k] {
			t.Errorf("catalogue lacks kind %s", k)
		}
		if len(PolicyNames(k)) == 0 {
			t.Errorf("PolicyNames(%s) is empty", k)
		}
	}
}

func TestFacadeParsersAgree(t *testing.T) {
	// Every catalogued name and alias must resolve through its kind's
	// facade parser to the canonical name; unknown names are typed errors.
	parse := func(k PolicyKind, name string) (string, error) {
		switch k {
		case PolicyScheduler:
			s, err := ParseSchedulerPolicy(name)
			return s.Name, err
		case PolicyQueueOrder:
			v, err := ParseQueueOrder(name)
			return v.String(), err
		case PolicyAdmission:
			v, err := ParseAdmission(name)
			return v.String(), err
		default:
			v, err := ParseDispatch(name)
			return v.String(), err
		}
	}
	for _, e := range Policies() {
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			if got, err := parse(e.Kind, name); err != nil || got != e.Name {
				t.Errorf("%s %q: parsed to %q, %v; want %q", e.Kind, name, got, err, e.Name)
			}
		}
	}
	for _, k := range []PolicyKind{PolicyScheduler, PolicyQueueOrder, PolicyAdmission, PolicyDispatch} {
		if _, err := parse(k, "teleport"); err == nil {
			t.Errorf("%s: teleport accepted", k)
		} else if _, ok := AsConfigError(err); !ok {
			t.Errorf("%s: unknown name is not a *ConfigError: %v", k, err)
		}
	}
	if o, err := ParseQueueOrder("prio-sjf"); err != nil || o != OrderPrioSJF {
		t.Errorf("ParseQueueOrder(prio-sjf) = %v, %v", o, err)
	}
}
