package power

import (
	"math"
	"math/rand/v2"
	"testing"
)

// powDynamic is DynamicPower as math.Pow computes it: the reference the
// β = 2 multiply must equal bit for bit.
func powDynamic(m Model, s float64) float64 {
	if s <= 0 {
		return 0
	}
	return m.A * math.Pow(s, m.Beta)
}

// squareEdges are the inputs where a squaring kernel can part from
// math.Pow: signed zeros, negatives, NaN and infinities, the speeds whose
// square crosses into the subnormals (0x1p-511 and its neighbours), and
// the largest speeds whose square still fits or overflows.
func squareEdges() []float64 {
	tiny := 0x1p-511
	big := math.Sqrt(math.MaxFloat64)
	return []float64{
		0, math.Copysign(0, -1), -1, -2.5, -math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-537, 0x1p-538,
		math.Nextafter(tiny, 0), tiny, math.Nextafter(tiny, 1),
		big, math.Nextafter(big, math.Inf(1)), math.MaxFloat64,
		1, 2, 0.5, 3.0000000000000004,
	}
}

// The β = 2 kernel returns math.Pow's bits for every float64: random bit
// patterns across the whole exponent range, dense speeds in [0, 10), and
// the edges.
func TestDynamicPowerSquareMatchesPow(t *testing.T) {
	check := func(s float64) {
		t.Helper()
		got, want := Default.DynamicPower(s), powDynamic(Default, s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DynamicPower(%b) = %b, math.Pow gives %b", s, got, want)
		}
	}
	for _, s := range squareEdges() {
		check(s)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 20
	guarded := 0
	for range n {
		s := math.Float64frombits(rng.Uint64())
		if s > 0 && s*s < 0x1p-1022 {
			guarded++
		}
		check(s)
	}
	if guarded == 0 {
		t.Fatal("no random speed had a subnormal square: the guard went unexercised")
	}
	for range n {
		check(rng.Float64() * 10)
	}

	// Any other exponent keeps math.Pow.
	for _, s := range append(squareEdges(), 0.8, 1.3, 1.8, 2.5) {
		got, want := Opteron.DynamicPower(s), powDynamic(Opteron, s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Opteron.DynamicPower(%v) = %v, want %v", s, got, want)
		}
	}
}

// FuzzDynamicPower holds the β = 2 kernel to math.Pow for any scale and
// speed.
func FuzzDynamicPower(f *testing.F) {
	for _, s := range squareEdges() {
		f.Add(5.0, s)
	}
	f.Add(2.6075, 1.791)
	f.Fuzz(func(t *testing.T, a, s float64) {
		m := Model{A: a, Beta: 2}
		got, want := m.DynamicPower(s), powDynamic(m, s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Model{A: %b}.DynamicPower(%b) = %b, math.Pow gives %b", a, s, got, want)
		}
	})
}
