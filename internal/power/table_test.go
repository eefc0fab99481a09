package power

import (
	"math"
	"testing"
)

// Table lookups must be bit-identical to the model they memoize: the golden
// equivalence test of the engine relies on memoization never changing a
// single bit of any planned speed or accounted energy.
func TestTableBitIdenticalToModel(t *testing.T) {
	for _, m := range []Model{Default, Opteron} {
		for _, l := range []Ladder{DefaultLadder, OpteronLadder} {
			tab := NewTable(m, l)
			for _, s := range l {
				got := tab.DynamicPower(s)
				want := m.DynamicPower(s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("model %+v ladder speed %g: table %x, model %x",
						m, s, math.Float64bits(got), math.Float64bits(want))
				}
			}
			// Off-ladder speeds fall back to the model, also bit-identical.
			for _, s := range []float64{0.1, 0.77, 1.23456, 2.71828, 9.9} {
				got, want := tab.DynamicPower(s), m.DynamicPower(s)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("fallback speed %g: table %x, model %x",
						s, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

func TestTableMaxAffordable(t *testing.T) {
	m := Default
	tab := NewTable(m, DefaultLadder)
	cases := []struct {
		budget float64
		want   float64
		ok     bool
	}{
		{0, 0, false},
		{1.24, 0, false},                 // below the 0.5 GHz level (1.25 W)
		{1.25, 0.5, true},                // exactly the bottom level
		{20, 2.0, true},                  // the paper's 20 W equal share → 2 GHz
		{44.9, 2.5, true},                // just under 3 GHz (45 W)
		{45, 3.0, true},                  // exactly the top level
		{1e9, 3.0, true},                 // saturated at the top
		{m.DynamicPower(1.5), 1.5, true}, // knife-edge equality includes the level
	}
	for _, c := range cases {
		got, ok := tab.MaxAffordable(c.budget)
		if got != c.want || ok != c.ok {
			t.Errorf("MaxAffordable(%g) = (%g, %v), want (%g, %v)", c.budget, got, ok, c.want, c.ok)
		}
	}
	// MaxAffordable agrees with the non-memoized SpeedFor+RoundDown route on
	// the ladder grid and generic budgets.
	for _, b := range []float64{1, 2, 5, 10, 15, 20, 25, 31.25, 40, 44, 45, 50} {
		want, wantOK := DefaultLadder.RoundDown(m.SpeedFor(b))
		got, ok := tab.MaxAffordable(b)
		if got != want || ok != wantOK {
			t.Errorf("budget %g: MaxAffordable (%g,%v) vs RoundDown∘SpeedFor (%g,%v)",
				b, got, ok, want, wantOK)
		}
	}
}

func TestTableContinuousFallsBack(t *testing.T) {
	tab := NewTable(Default, nil)
	if tab.Len() != 0 {
		t.Fatalf("continuous table has %d levels", tab.Len())
	}
	if _, ok := tab.MaxAffordable(100); ok {
		t.Error("continuous table must report no affordable ladder level")
	}
	if got, want := tab.DynamicPower(1.7), Default.DynamicPower(1.7); got != want {
		t.Errorf("continuous DynamicPower %g, want %g", got, want)
	}
}

func TestSpeedCache(t *testing.T) {
	var c SpeedCache
	m := Default
	for _, s := range []float64{2, 2, 2, 1.5, 1.5, 0, 2} {
		got, want := c.DynamicPower(m, s), m.DynamicPower(s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cache DynamicPower(%g) = %g, model %g", s, got, want)
		}
	}
	c.Reset()
	if got := c.DynamicPower(Opteron, 2); got != Opteron.DynamicPower(2) {
		t.Fatalf("after Reset: %g, want %g", got, Opteron.DynamicPower(2))
	}
}

// The whole point: ladder lookups must not call math.Pow or allocate.
func TestTableLookupZeroAlloc(t *testing.T) {
	tab := NewTable(Default, DefaultLadder)
	allocs := testing.AllocsPerRun(1000, func() {
		tab.DynamicPower(2.0)
		tab.MaxAffordable(20)
	})
	if allocs != 0 {
		t.Fatalf("table lookup allocates %.1f objects", allocs)
	}
}

func BenchmarkModelDynamicPower(b *testing.B) {
	for _, bm := range []struct {
		name string
		m    Model
	}{{"paper", Default}, {"opteron", Opteron}} {
		b.Run(bm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = bm.m.DynamicPower(2.0)
			}
		})
	}
}

var sink float64 // keeps benchmarked results live

func BenchmarkTableDynamicPower(b *testing.B) {
	tab := NewTable(Default, DefaultLadder)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.DynamicPower(2.0)
	}
}

func BenchmarkSpeedCacheDynamicPower(b *testing.B) {
	var c SpeedCache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DynamicPower(Default, 2.0)
	}
}
