package workload

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/stats"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c := DefaultConfig(80)
	c.Duration = 5
	c.PartialFraction = 0.5
	jobs, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveJobs(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadJobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(jobs) {
		t.Fatalf("round trip: %d != %d jobs", len(back), len(jobs))
	}
	for i := range jobs {
		if jobs[i] != back[i] {
			t.Fatalf("job %d: %v != %v", i, jobs[i], back[i])
		}
	}
}

func TestLoadJobsErrors(t *testing.T) {
	cases := []string{
		"1,0,0.15\n",                           // short row
		"x,0,0.15,100,true\n",                  // bad id
		"1,zz,0.15,100,true\n",                 // bad float
		"1,0,0.15,100,maybe\n",                 // bad bool
		"1,0,0.15,-5,true\n",                   // invalid job (negative demand)
		"1,0,0.5,10,true\n2,0.1,0.2,10,true\n", // non-agreeable deadlines
	}
	for i, in := range cases {
		if _, err := LoadJobs(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted: %q", i, in)
		}
	}
	// Header-only file is an empty, valid stream.
	jobs, err := LoadJobs(strings.NewReader("id,release,deadline,demand,partial\n"))
	if err != nil || len(jobs) != 0 {
		t.Errorf("header-only: %v, %v", jobs, err)
	}
}

func TestDiurnalValidate(t *testing.T) {
	if err := DefaultDiurnal(100).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mod := func(f func(*DiurnalConfig)) DiurnalConfig {
		c := DefaultDiurnal(100)
		f(&c)
		return c
	}
	bad := []DiurnalConfig{
		mod(func(c *DiurnalConfig) { c.BaseRate = 0 }),
		mod(func(c *DiurnalConfig) { c.Amplitude = -0.1 }),
		mod(func(c *DiurnalConfig) { c.Amplitude = 1 }),
		mod(func(c *DiurnalConfig) { c.Period = 0 }),
		mod(func(c *DiurnalConfig) { c.Duration = 0 }),
		mod(func(c *DiurnalConfig) { c.PartialFraction = 2 }),
		mod(func(c *DiurnalConfig) { c.Demand.Alpha = 0 }),
		mod(func(c *DiurnalConfig) { c.BaseRate = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.Amplitude = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.Period = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.Duration = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.Deadline = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.PartialFraction = math.NaN() }),
		mod(func(c *DiurnalConfig) { c.BaseRate = math.Inf(1) }),
		mod(func(c *DiurnalConfig) { c.Period = math.Inf(1) }),
		mod(func(c *DiurnalConfig) { c.Duration = math.Inf(1) }),
		mod(func(c *DiurnalConfig) { c.Deadline = math.Inf(1) }),
	}
	for i, c := range bad {
		var ce *cfgerr.Error
		if err := c.Validate(); !errors.As(err, &ce) {
			t.Errorf("case %d: Validate returned %v, want a *cfgerr.Error", i, err)
		}
	}
}

func TestDiurnalRateProfile(t *testing.T) {
	c := DefaultDiurnal(100)
	if math.Abs(c.Rate(0)-100) > 1e-9 {
		t.Errorf("Rate(0) = %v, want 100", c.Rate(0))
	}
	if math.Abs(c.Rate(c.Period/4)-150) > 1e-9 {
		t.Errorf("peak rate = %v, want 150", c.Rate(c.Period/4))
	}
	if math.Abs(c.Rate(3*c.Period/4)-50) > 1e-9 {
		t.Errorf("trough rate = %v, want 50", c.Rate(3*c.Period/4))
	}
}

func TestGenerateDiurnalFollowsProfile(t *testing.T) {
	c := DefaultDiurnal(120)
	c.Duration = 600 // two full cycles
	jobs, err := GenerateDiurnal(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.ValidateAll(jobs); err != nil {
		t.Fatal(err)
	}
	// Total count ≈ base rate × duration (the sinusoid integrates to zero
	// over whole cycles).
	want := c.BaseRate * c.Duration
	if math.Abs(float64(len(jobs))-want) > 0.05*want {
		t.Errorf("generated %d jobs, want ~%v", len(jobs), want)
	}
	// Peak quarter-cycle sees more arrivals than trough quarter-cycle.
	count := func(lo, hi float64) int {
		n := 0
		for _, j := range jobs {
			if j.Release >= lo && j.Release < hi {
				n++
			}
		}
		return n
	}
	peak := count(c.Period/8, 3*c.Period/8)     // around t = P/4
	trough := count(5*c.Period/8, 7*c.Period/8) // around t = 3P/4
	if float64(peak) < 2*float64(trough) {
		t.Errorf("peak window %d arrivals vs trough %d: profile not followed", peak, trough)
	}
}

func TestGenerateDiurnalDeterministic(t *testing.T) {
	c := DefaultDiurnal(60)
	c.Duration = 50
	a, err := GenerateDiurnal(c)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateDiurnal(c)
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different stream")
		}
	}
}

func TestGenerateDiurnalInvalid(t *testing.T) {
	c := DefaultDiurnal(0)
	if _, err := GenerateDiurnal(c); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestDiurnalInterarrivalSanity(t *testing.T) {
	// With zero amplitude the diurnal generator degenerates to homogeneous
	// Poisson: mean interarrival ≈ 1/rate.
	c := DefaultDiurnal(150)
	c.Amplitude = 0
	c.Duration = 200
	jobs, err := GenerateDiurnal(c)
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for i := 1; i < len(jobs); i++ {
		gaps = append(gaps, jobs[i].Release-jobs[i-1].Release)
	}
	if m := stats.Mean(gaps); math.Abs(m-1.0/150) > 0.0006 {
		t.Errorf("mean gap = %v, want ~%v", m, 1.0/150)
	}
}
