package workload

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dessched/internal/job"
	"dessched/internal/stats"
)

func TestBoundedParetoValidate(t *testing.T) {
	if err := DefaultDemand.Validate(); err != nil {
		t.Fatalf("default demand invalid: %v", err)
	}
	bad := []BoundedPareto{
		{Alpha: 0, Xmin: 1, Xmax: 2},
		{Alpha: -1, Xmin: 1, Xmax: 2},
		{Alpha: 3, Xmin: 0, Xmax: 2},
		{Alpha: 3, Xmin: 2, Xmax: 2},
		{Alpha: 3, Xmin: 3, Xmax: 2},
	}
	for _, b := range bad {
		if b.Validate() == nil {
			t.Errorf("Validate accepted %+v", b)
		}
	}
}

func TestBoundedParetoMeanMatchesPaper(t *testing.T) {
	// §V-B: "the mean service demand of a request can then be calculated to
	// be 192 processing units."
	m := DefaultDemand.Mean()
	if math.Abs(m-192) > 0.5 {
		t.Errorf("analytic mean = %v, want ~192", m)
	}
}

func TestBoundedParetoSampleBoundsAndMean(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var xs []float64
	for i := 0; i < 200000; i++ {
		x := DefaultDemand.Sample(rng)
		if x < DefaultDemand.Xmin || x > DefaultDemand.Xmax {
			t.Fatalf("sample %v outside [%v, %v]", x, DefaultDemand.Xmin, DefaultDemand.Xmax)
		}
		xs = append(xs, x)
	}
	if m := stats.Mean(xs); math.Abs(m-DefaultDemand.Mean()) > 1.5 {
		t.Errorf("empirical mean %v far from analytic %v", m, DefaultDemand.Mean())
	}
}

// TestSamplerMatchesSample: the prepared sampler draws Sample's bits, and
// those of the formula with both constants computed per draw, draw for
// draw over 10⁵ draws from one seed — for the paper's distribution (which
// the bimodal spec's bounded-Pareto class also uses) and shapes either
// side of it.
func TestSamplerMatchesSample(t *testing.T) {
	perDraw := func(b BoundedPareto, rng *rand.Rand) float64 {
		u := rng.Float64()
		x := b.Xmin / math.Pow(1-u*(1-math.Pow(b.Xmin/b.Xmax, b.Alpha)), 1/b.Alpha)
		return min(max(x, b.Xmin), b.Xmax)
	}
	for name, b := range map[string]BoundedPareto{
		"paper":   DefaultDemand,
		"alpha=1": {Alpha: 1, Xmin: 1, Xmax: math.E},
		"heavy":   {Alpha: 0.5, Xmin: 1, Xmax: 1e6},
		"narrow":  {Alpha: 7.5, Xmin: 10, Xmax: 11},
	} {
		prepared := b.Sampler()
		r1, r2, r3 := rand.New(rand.NewPCG(11, 12)), rand.New(rand.NewPCG(11, 12)), rand.New(rand.NewPCG(11, 12))
		for i := 0; i < 100000; i++ {
			got, sample, ref := prepared(r1), b.Sample(r2), perDraw(b, r3)
			if math.Float64bits(got) != math.Float64bits(sample) || math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("%s: draw %d: prepared %v, Sample %v, per-draw formula %v", name, i, got, sample, ref)
			}
		}
	}
}

func TestBoundedParetoMeanAlphaOne(t *testing.T) {
	b := BoundedPareto{Alpha: 1, Xmin: 1, Xmax: math.E}
	// mean = xmin*ln(xmax/xmin)/(1-xmin/xmax) = 1/(1-1/e).
	want := 1 / (1 - 1/math.E)
	if got := b.Mean(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean(alpha=1) = %v, want %v", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(100).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(100)
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.Rate = 0 }),
		mod(func(c *Config) { c.Duration = -1 }),
		mod(func(c *Config) { c.Deadline = 0 }),
		mod(func(c *Config) { c.PartialFraction = -0.1 }),
		mod(func(c *Config) { c.PartialFraction = 1.1 }),
		mod(func(c *Config) { c.Demand.Xmin = 0 }),
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	c := DefaultConfig(100)
	c.Duration = 50
	jobs, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~5000 arrivals; allow generous slack.
	if len(jobs) < 4000 || len(jobs) > 6000 {
		t.Fatalf("generated %d jobs, want ~5000", len(jobs))
	}
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatalf("invalid jobs: %v", err)
	}
	for i, j := range jobs {
		if j.ID != job.ID(i) {
			t.Fatalf("IDs not dense: jobs[%d].ID = %d", i, j.ID)
		}
		if i > 0 && j.Release < jobs[i-1].Release {
			t.Fatal("releases not sorted")
		}
		if math.Abs(j.Deadline-j.Release-0.15) > 1e-12 {
			t.Fatalf("deadline window wrong for %v", j)
		}
		if !j.Partial {
			t.Fatalf("PartialFraction=1 but job %d not partial", i)
		}
		if j.Release >= c.Duration {
			t.Fatalf("release %v beyond duration", j.Release)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := DefaultConfig(150)
	c.Duration = 20
	a, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c2 := c
	c2.Seed = 2
	other, _ := Generate(c2)
	same := len(other) == len(a)
	if same {
		diff := false
		for i := range a {
			if a[i] != other[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratePartialFraction(t *testing.T) {
	c := DefaultConfig(200)
	c.Duration = 100
	c.PartialFraction = 0.5
	jobs, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, j := range jobs {
		if j.Partial {
			n++
		}
	}
	frac := float64(n) / float64(len(jobs))
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("partial fraction = %v, want ~0.5", frac)
	}

	c.PartialFraction = 0
	jobs, _ = Generate(c)
	for _, j := range jobs {
		if j.Partial {
			t.Fatal("PartialFraction=0 produced a partial job")
		}
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	c := DefaultConfig(0)
	if _, err := Generate(c); err == nil {
		t.Error("Generate accepted invalid config")
	}
}

func TestPoissonInterarrivals(t *testing.T) {
	c := DefaultConfig(120)
	c.Duration = 400
	jobs, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(jobs); i++ {
		gaps = append(gaps, jobs[i].Release-jobs[i-1].Release)
	}
	mean := stats.Mean(gaps)
	if math.Abs(mean-1.0/120) > 0.0005 {
		t.Errorf("mean interarrival = %v, want ~%v", mean, 1.0/120)
	}
	// Exponential: std ≈ mean.
	if sd := stats.StdDev(gaps); math.Abs(sd-mean)/mean > 0.06 {
		t.Errorf("interarrival std %v should be close to mean %v", sd, mean)
	}
}

func TestOfferedLoad(t *testing.T) {
	c := DefaultConfig(120)
	// 120 * ~192 ≈ 23052 units/s; 16 cores at 2 GHz = 32000 units/s → ρ ≈ 0.72,
	// the paper's "light load" boundary.
	rho := c.OfferedLoad() / 32000
	if math.Abs(rho-0.72) > 0.01 {
		t.Errorf("utilization at rate 120 = %v, want ~0.72 (§V-B)", rho)
	}
}

// Property: generation never violates bounds or agreeability for random
// small configs.
func TestGenerateProperty(t *testing.T) {
	prop := func(rateI, seedI uint8) bool {
		c := Config{
			Rate:            1 + float64(rateI),
			Duration:        5,
			Deadline:        0.15,
			Demand:          DefaultDemand,
			PartialFraction: 1,
			Seed:            uint64(seedI),
		}
		jobs, err := Generate(c)
		if err != nil {
			return false
		}
		if job.ValidateAll(jobs) != nil {
			return false
		}
		for _, j := range jobs {
			if j.Demand < 130 || j.Demand > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
