// Package power models the CPU power consumption of DVFS-capable cores.
//
// The paper (§II-B) uses P = P_dynamic + P_static with the convex dynamic
// model P_dynamic = a * s^β (a > 0, β > 1) over the core speed s (GHz) and a
// constant static term b. Simulation defaults are a = 5, β = 2, b = 0 (static
// power is a common offset across all scheduling policies and is ignored when
// comparing them); the real-system validation (§V-G) uses the regression fit
// a = 2.6075, β = 1.791, b = 9.2562 obtained from measured (speed, power)
// pairs of an AMD Opteron 2380, which Fit reproduces.
package power

import (
	"fmt"
	"math"
	"sort"
)

// UnitsPerGHzSecond is the paper's calibration: a core running at 1 GHz
// completes 1000 processing units per second (§V-B).
const UnitsPerGHzSecond = 1000.0

// Model is the polynomial core power model P(s) = A*s^Beta + B where s is
// the core speed in GHz and P is in watts.
type Model struct {
	A    float64 // dynamic scaling factor, > 0
	Beta float64 // convexity exponent, > 1
	B    float64 // static power, >= 0
}

// Default is the paper's simulation model: P = 5 * s^2 with no static term.
// With a 320 W budget over 16 cores each core's equal share of 20 W yields
// the 2 GHz average speed quoted in §V-B.
var Default = Model{A: 5, Beta: 2, B: 0}

// Opteron is the regression model of the validation cluster (§V-G):
// P = 2.6075 * s^1.791 + 9.2562.
var Opteron = Model{A: 2.6075, Beta: 1.791, B: 9.2562}

// Validate returns an error when the model parameters violate the paper's
// assumptions (a > 0, β > 1, b >= 0) or are not finite. NaN compares false
// against every bound, so each check is written to fail on it.
func (m Model) Validate() error {
	if !(m.A > 0) || math.IsInf(m.A, 0) {
		return fmt.Errorf("power: scaling factor A must be positive and finite, got %g", m.A)
	}
	if !(m.Beta > 1) || math.IsInf(m.Beta, 0) {
		return fmt.Errorf("power: exponent Beta must exceed 1 and be finite, got %g", m.Beta)
	}
	if !(m.B >= 0) || math.IsInf(m.B, 0) {
		return fmt.Errorf("power: static power B must be non-negative and finite, got %g", m.B)
	}
	return nil
}

// Power returns the total power (W) drawn at speed s (GHz). Speeds at or
// below zero draw only static power.
func (m Model) Power(s float64) float64 {
	if s <= 0 {
		return m.B
	}
	return m.A*math.Pow(s, m.Beta) + m.B
}

// DynamicPower returns only the dynamic component A*s^Beta.
//
// For the paper's β = 2 it multiplies instead of calling math.Pow, with the
// same bits: Pow(s, 2) squares Frexp's mantissa and rescales by a power of
// two, which rounds exactly like s*s while the square is a normal float. A
// subnormal square is rounded twice by Pow (mantissa, then Ldexp), so it
// and every other exponent keep math.Pow.
func (m Model) DynamicPower(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if m.Beta == 2 {
		if sq := s * s; sq >= 0x1p-1022 {
			return m.A * sq
		}
	}
	return m.A * math.Pow(s, m.Beta)
}

// SpeedFor returns the maximum speed (GHz) sustainable within a dynamic
// power allowance p (W), i.e. the inverse of DynamicPower. Non-positive
// allowances yield speed 0.
func (m Model) SpeedFor(p float64) float64 {
	if p <= 0 {
		return 0
	}
	return math.Pow(p/m.A, 1/m.Beta)
}

// Rate converts a speed in GHz to a processing rate in units per second.
func Rate(speedGHz float64) float64 { return speedGHz * UnitsPerGHzSecond }

// SpeedForRate converts a processing rate (units/s) to a speed in GHz.
func SpeedForRate(rate float64) float64 { return rate / UnitsPerGHzSecond }

// Ladder is a discrete speed-scaling ladder: the sorted set of speeds (GHz)
// a core may run at. An empty ladder means continuous scaling.
type Ladder []float64

// NewLadder returns a sorted, deduplicated copy of the given speeds with
// non-positive entries dropped.
func NewLadder(speeds ...float64) Ladder {
	l := make(Ladder, 0, len(speeds))
	for _, s := range speeds {
		if s > 0 {
			l = append(l, s)
		}
	}
	sort.Float64s(l)
	out := l[:0]
	for i, s := range l {
		if i == 0 || s != l[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// DefaultLadder is the discrete ladder used for the paper's §V-F discrete
// speed-scaling sensitivity study. The paper does not publish its ladder;
// this is a conventional six-level 0.5 GHz grid around the 2 GHz average
// (documented in DESIGN.md).
var DefaultLadder = NewLadder(0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

// OpteronLadder is the validation cluster's ladder (§V-G): each AMD Opteron
// 2380 core can be set independently to one of these frequencies.
var OpteronLadder = NewLadder(0.8, 1.3, 1.8, 2.5)

// Continuous reports whether the ladder allows arbitrary speeds.
func (l Ladder) Continuous() bool { return len(l) == 0 }

// Max returns the highest speed on the ladder, or +Inf for a continuous
// ladder.
func (l Ladder) Max() float64 {
	if len(l) == 0 {
		return math.Inf(1)
	}
	return l[len(l)-1]
}

// Min returns the lowest speed on the ladder, or 0 for a continuous ladder.
func (l Ladder) Min() float64 {
	if len(l) == 0 {
		return 0
	}
	return l[0]
}

// RoundUp returns the smallest ladder speed >= s, or (0, false) when s
// exceeds the top speed. For a continuous ladder it returns (s, true).
func (l Ladder) RoundUp(s float64) (float64, bool) {
	if len(l) == 0 {
		return s, true
	}
	i := sort.SearchFloat64s(l, s)
	if i == len(l) {
		return 0, false
	}
	return l[i], true
}

// RoundDown returns the largest ladder speed <= s, or (0, false) when s is
// below the bottom speed. For a continuous ladder it returns (s, true).
func (l Ladder) RoundDown(s float64) (float64, bool) {
	if len(l) == 0 {
		return s, true
	}
	// First index with l[i] > s.
	i := sort.Search(len(l), func(i int) bool { return l[i] > s })
	if i == 0 {
		return 0, false
	}
	return l[i-1], true
}

// Clamp returns s unchanged for continuous ladders; otherwise the nearest
// ladder speed preferring round-up per the paper's §V-F rectification rule
// ("closest to but not less than the continuous one"), falling back to the
// next lower level when s exceeds the top speed.
func (l Ladder) Clamp(s float64) float64 {
	if len(l) == 0 {
		return s
	}
	if up, ok := l.RoundUp(s); ok {
		return up
	}
	return l.Max()
}
