package power

// Table memoizes the speed⇄power conversion of a discrete ladder under one
// power model. Under the paper's β = 2, Model.DynamicPower is one multiply
// and a lookup saves little; under any other exponent (the Opteron model's
// 1.791) every conversion is a math.Pow, which the table keeps off the
// per-event scheduling path for ladder speeds, and MaxAffordable replaces
// the math.Pow inversion at every exponent. Every stored value is computed
// once with exactly the same Model methods the non-memoized path uses, so
// lookups are bit-identical to recomputation — the property the engine's
// golden equivalence test pins.
//
// The zero value is an empty table (continuous ladder): every method falls
// back to the model.
type Table struct {
	m      Model
	levels Ladder    // sorted ladder speeds
	powers []float64 // DynamicPower of each level, same order
}

// NewTable precomputes the dynamic power of every ladder level. For a
// continuous (empty) ladder the table is empty and all methods delegate to
// the model.
func NewTable(m Model, l Ladder) Table {
	t := Table{m: m, levels: l}
	if len(l) > 0 {
		t.powers = make([]float64, len(l))
		for i, s := range l {
			t.powers[i] = m.DynamicPower(s)
		}
	}
	return t
}

// Model returns the underlying power model.
func (t Table) Model() Model { return t.m }

// DynamicPower returns A·s^Beta, serving exact ladder speeds from the
// precomputed table and anything else from the model.
func (t Table) DynamicPower(s float64) float64 {
	// Ladders are tiny (4-6 levels); a linear scan beats binary search,
	// and math.Pow (β ≠ 2) by an order of magnitude.
	for i, level := range t.levels {
		if level == s {
			return t.powers[i]
		}
		if level > s {
			break
		}
	}
	return t.m.DynamicPower(s)
}

// MaxAffordable returns the fastest ladder speed whose dynamic power fits
// within the allowance p, or ok=false when even the lowest level is too
// expensive (or the table is continuous). Unlike SpeedFor+RoundDown it
// compares precomputed level powers against p directly, avoiding the
// math.Pow inversion.
func (t Table) MaxAffordable(p float64) (speed float64, ok bool) {
	for i := len(t.powers) - 1; i >= 0; i-- {
		if t.powers[i] <= p {
			return t.levels[i], true
		}
	}
	return 0, false
}

// PowerAt returns the precomputed dynamic power of ladder level i.
func (t Table) PowerAt(i int) float64 { return t.powers[i] }

// Len returns the number of ladder levels (0 for a continuous table).
func (t Table) Len() int { return len(t.levels) }

// SpeedCache is a one-entry speed→dynamic-power memo. Schedules hold each
// speed constant across many consecutive events (a segment spans several
// event pops), so a single-slot cache per core removes nearly every
// conversion from the simulator's per-event settle and audit while
// returning bit-identical values (the cached number is the model's own
// output). Under β = 2 a conversion is one multiply; under any other
// exponent it is a math.Pow, which is what the cache saves.
type SpeedCache struct {
	speed float64
	power float64
	valid bool
}

// DynamicPower returns m.DynamicPower(s), memoizing the last distinct speed.
func (c *SpeedCache) DynamicPower(m Model, s float64) float64 {
	if s <= 0 {
		return 0
	}
	if c.valid && c.speed == s {
		return c.power
	}
	c.speed, c.power, c.valid = s, m.DynamicPower(s), true
	return c.power
}

// Reset invalidates the cache (for reuse under a different model).
func (c *SpeedCache) Reset() { c.valid = false }
