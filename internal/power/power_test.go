package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModel(t *testing.T) {
	if err := Default.Validate(); err != nil {
		t.Fatalf("Default invalid: %v", err)
	}
	// P(2 GHz) = 5 * 4 = 20 W: 16 cores * 20 W = 320 W budget (§V-B).
	if got := Default.Power(2); got != 20 {
		t.Errorf("Power(2) = %v, want 20", got)
	}
	if got := Default.SpeedFor(20); math.Abs(got-2) > 1e-12 {
		t.Errorf("SpeedFor(20) = %v, want 2", got)
	}
}

func TestModelValidate(t *testing.T) {
	bad := []Model{
		{A: 0, Beta: 2},
		{A: -1, Beta: 2},
		{A: 1, Beta: 1},
		{A: 1, Beta: 0.5},
		{A: 1, Beta: 2, B: -1},
		{A: math.NaN(), Beta: 2},
		{A: math.Inf(1), Beta: 2},
		{A: 1, Beta: math.NaN()},
		{A: 1, Beta: math.Inf(1)},
		{A: 1, Beta: 2, B: math.NaN()},
		{A: 1, Beta: 2, B: math.Inf(1)},
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("Validate accepted %+v", m)
		}
	}
	if err := Opteron.Validate(); err != nil {
		t.Errorf("Opteron invalid: %v", err)
	}
}

func TestPowerEdgeCases(t *testing.T) {
	m := Model{A: 5, Beta: 2, B: 3}
	if got := m.Power(0); got != 3 {
		t.Errorf("Power(0) = %v, want static 3", got)
	}
	if got := m.Power(-1); got != 3 {
		t.Errorf("Power(-1) = %v, want static 3", got)
	}
	if got := m.DynamicPower(0); got != 0 {
		t.Errorf("DynamicPower(0) = %v, want 0", got)
	}
	if got := m.SpeedFor(0); got != 0 {
		t.Errorf("SpeedFor(0) = %v, want 0", got)
	}
	if got := m.SpeedFor(-5); got != 0 {
		t.Errorf("SpeedFor(-5) = %v, want 0", got)
	}
}

// Property: SpeedFor inverts DynamicPower for positive speeds.
func TestSpeedPowerRoundTripProperty(t *testing.T) {
	prop := func(si, ai, bi uint16) bool {
		s := 0.01 + float64(si)/65535*10
		m := Model{A: 0.1 + float64(ai)/65535*10, Beta: 1.1 + float64(bi)/65535*2}
		back := m.SpeedFor(m.DynamicPower(s))
		return math.Abs(back-s) < 1e-9*math.Max(1, s)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property (convexity): equal power sharing maximizes total speed across two
// cores — the key insight behind the WF policy (§IV-C).
func TestEqualShareMaximizesSpeedProperty(t *testing.T) {
	prop := func(hi, xi uint16) bool {
		h := 1 + float64(hi)/65535*100    // total power
		x := float64(xi) / 65535 * h      // uneven split
		even := 2 * Default.SpeedFor(h/2) // equal share
		uneven := Default.SpeedFor(x) + Default.SpeedFor(h-x)
		return uneven <= even+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRateConversions(t *testing.T) {
	if got := Rate(2); got != 2000 {
		t.Errorf("Rate(2) = %v, want 2000", got)
	}
	if got := SpeedForRate(1500); got != 1.5 {
		t.Errorf("SpeedForRate(1500) = %v, want 1.5", got)
	}
}

func TestNewLadder(t *testing.T) {
	l := NewLadder(2.0, 0.5, -1, 1.0, 2.0, 0)
	want := Ladder{0.5, 1.0, 2.0}
	if len(l) != len(want) {
		t.Fatalf("NewLadder = %v, want %v", l, want)
	}
	for i := range l {
		if l[i] != want[i] {
			t.Fatalf("NewLadder = %v, want %v", l, want)
		}
	}
}

func TestLadderContinuous(t *testing.T) {
	var l Ladder
	if !l.Continuous() {
		t.Error("nil ladder should be continuous")
	}
	if !math.IsInf(l.Max(), 1) || l.Min() != 0 {
		t.Error("continuous ladder bounds wrong")
	}
	if s, ok := l.RoundUp(1.234); !ok || s != 1.234 {
		t.Error("continuous RoundUp should be identity")
	}
	if s, ok := l.RoundDown(1.234); !ok || s != 1.234 {
		t.Error("continuous RoundDown should be identity")
	}
	if l.Clamp(9.9) != 9.9 {
		t.Error("continuous Clamp should be identity")
	}
}

func TestLadderRounding(t *testing.T) {
	l := DefaultLadder // 0.5 .. 3.0 step 0.5
	cases := []struct {
		s       float64
		up      float64
		upOK    bool
		down    float64
		downOK  bool
		clamped float64
	}{
		{0.2, 0.5, true, 0, false, 0.5},
		{0.5, 0.5, true, 0.5, true, 0.5},
		{0.7, 1.0, true, 0.5, true, 1.0},
		{2.0, 2.0, true, 2.0, true, 2.0},
		{2.9, 3.0, true, 2.5, true, 3.0},
		{3.0, 3.0, true, 3.0, true, 3.0},
		{3.5, 0, false, 3.0, true, 3.0},
	}
	for _, c := range cases {
		up, ok := l.RoundUp(c.s)
		if up != c.up || ok != c.upOK {
			t.Errorf("RoundUp(%g) = (%g, %v), want (%g, %v)", c.s, up, ok, c.up, c.upOK)
		}
		down, ok := l.RoundDown(c.s)
		if down != c.down || ok != c.downOK {
			t.Errorf("RoundDown(%g) = (%g, %v), want (%g, %v)", c.s, down, ok, c.down, c.downOK)
		}
		if got := l.Clamp(c.s); got != c.clamped {
			t.Errorf("Clamp(%g) = %g, want %g", c.s, got, c.clamped)
		}
	}
}

func TestOpteronLadder(t *testing.T) {
	if OpteronLadder.Min() != 0.8 || OpteronLadder.Max() != 2.5 {
		t.Errorf("OpteronLadder = %v", OpteronLadder)
	}
}

// Property: RoundUp(s) >= s >= RoundDown(s) whenever both succeed.
func TestLadderRoundingProperty(t *testing.T) {
	prop := func(si uint16) bool {
		s := float64(si) / 65535 * 4
		up, okUp := DefaultLadder.RoundUp(s)
		down, okDown := DefaultLadder.RoundDown(s)
		if okUp && up < s {
			return false
		}
		if okDown && down > s {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFitRecoversPaperConstants(t *testing.T) {
	m, err := Fit(OpteronSamples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// §V-G: a = 2.6075, β = 1.791, b = 9.2562. Allow small slack: the paper's
	// regression may have used a slightly different optimizer.
	if math.Abs(m.A-2.6075) > 0.05 {
		t.Errorf("fitted A = %v, want ~2.6075", m.A)
	}
	if math.Abs(m.Beta-1.791) > 0.02 {
		t.Errorf("fitted Beta = %v, want ~1.791", m.Beta)
	}
	if math.Abs(m.B-9.2562) > 0.1 {
		t.Errorf("fitted B = %v, want ~9.2562", m.B)
	}
	// The four measured points do not lie exactly on any P=a*s^β+b curve;
	// the best fit leaves ~0.1 W of residual.
	if r := RMSE(m, OpteronSamples); r > 0.2 {
		t.Errorf("RMSE = %v, want < 0.2 W", r)
	}
}

func TestFitExactSynthetic(t *testing.T) {
	truth := Model{A: 3.5, Beta: 2.2, B: 4.0}
	var samples []Sample
	for _, s := range []float64{0.5, 1, 1.5, 2, 2.5, 3} {
		samples = append(samples, Sample{s, truth.Power(s)})
	}
	m, err := Fit(samples)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if math.Abs(m.A-truth.A) > 1e-3 || math.Abs(m.Beta-truth.Beta) > 1e-3 || math.Abs(m.B-truth.B) > 1e-3 {
		t.Errorf("Fit = %+v, want %+v", m, truth)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(OpteronSamples[:2]); err == nil {
		t.Error("Fit accepted 2 samples")
	}
	dup := []Sample{{1, 5}, {1, 5}, {1, 5}, {2, 9}}
	if _, err := Fit(dup); err == nil {
		t.Error("Fit accepted < 3 distinct speeds")
	}
	neg := []Sample{{-1, 5}, {1, 5}, {2, 9}}
	if _, err := Fit(neg); err == nil {
		t.Error("Fit accepted negative speed")
	}
}

// Property: fitting exact synthetic data from a random valid model recovers it.
func TestFitRoundTripProperty(t *testing.T) {
	prop := func(ai, bi, ci uint8) bool {
		truth := Model{
			A:    0.5 + float64(ai)/255*5,
			Beta: 1.3 + float64(bi)/255*1.5,
			B:    float64(ci) / 255 * 10,
		}
		var samples []Sample
		for _, s := range []float64{0.6, 1.0, 1.4, 1.9, 2.4, 3.0} {
			samples = append(samples, Sample{s, truth.Power(s)})
		}
		m, err := Fit(samples)
		if err != nil {
			return false
		}
		return math.Abs(m.A-truth.A) < 0.02 &&
			math.Abs(m.Beta-truth.Beta) < 0.02 &&
			math.Abs(m.B-truth.B) < 0.05
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestFitPinsNegativeStaticToZero(t *testing.T) {
	// Samples from a zero-static model with the low-speed points nudged
	// down: the unconstrained least squares wants b < 0, so Fit must refit
	// with b pinned to zero and still return a valid model.
	truth := Model{A: 4, Beta: 2}
	samples := []Sample{
		{0.5, truth.Power(0.5) - 0.4},
		{1.0, truth.Power(1.0) - 0.3},
		{1.5, truth.Power(1.5)},
		{2.0, truth.Power(2.0)},
		{2.5, truth.Power(2.5) + 0.2},
	}
	m, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if m.B != 0 {
		t.Errorf("B = %v, want pinned 0", m.B)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("pinned fit invalid: %v", err)
	}
	if math.Abs(m.A-truth.A) > 0.5 || math.Abs(m.Beta-truth.Beta) > 0.2 {
		t.Errorf("pinned fit far from truth: %+v", m)
	}
}

func TestRMSEEmpty(t *testing.T) {
	if RMSE(Default, nil) != 0 {
		t.Error("RMSE(empty) != 0")
	}
}
