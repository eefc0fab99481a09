package workload

import (
	"reflect"
	"testing"

	"dessched/internal/job"
)

func TestBurstValidate(t *testing.T) {
	if err := (Burst{Start: 1, End: 2, Multiplier: 2}).Validate(); err != nil {
		t.Errorf("valid burst rejected: %v", err)
	}
	bad := []Burst{
		{Start: -1, End: 2, Multiplier: 2},
		{Start: 2, End: 2, Multiplier: 2},
		{Start: 1, End: 2, Multiplier: 0},
		{Start: 1, End: 2, Multiplier: -1},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Errorf("case %d: invalid burst accepted", i)
		}
	}
	c := DefaultConfig(100)
	c.Bursts = []Burst{bad[0]}
	if c.Validate() == nil {
		t.Error("config with invalid burst accepted")
	}
}

func TestRateAtCompounds(t *testing.T) {
	c := DefaultConfig(100)
	c.Bursts = []Burst{
		{Start: 10, End: 30, Multiplier: 2},
		{Start: 20, End: 40, Multiplier: 3},
	}
	for _, tc := range []struct{ t, want float64 }{
		{5, 100}, {15, 200}, {25, 600}, {35, 300}, {45, 100},
	} {
		if got := c.RateAt(tc.t); got != tc.want {
			t.Errorf("RateAt(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestGenerateWithoutBurstsUnchanged(t *testing.T) {
	// The burst-free path must stay bit-identical to the homogeneous
	// generator: replay files and seeded experiments depend on it.
	c := DefaultConfig(120)
	c.Duration = 5
	plain, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	c.Bursts = nil
	again, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Error("burst-free generation not reproducible")
	}
}

func TestGenerateBurstsDeterministicAndElevated(t *testing.T) {
	c := DefaultConfig(100)
	c.Duration = 30
	c.Bursts = []Burst{{Start: 10, End: 20, Multiplier: 2}}
	a, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("burst generation not deterministic per seed")
	}
	var in, out int
	for _, j := range a {
		if j.Release >= 10 && j.Release < 20 {
			in++
		} else {
			out++
		}
	}
	// The burst window is 10 of 30 s at twice the rate: expect ~2000 jobs
	// inside vs ~2000 outside; demand the doubled density within a loose
	// statistical margin.
	inRate := float64(in) / 10
	outRate := float64(out) / 20
	if inRate < 1.7*outRate || inRate > 2.3*outRate {
		t.Errorf("burst window rate %.1f/s vs %.1f/s outside, want ~2x", inRate, outRate)
	}
	// IDs stay dense and releases sorted (agreeable deadlines).
	for i, j := range a {
		if int(j.ID) != i {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
		if i > 0 && j.Release < a[i-1].Release {
			t.Fatal("releases not sorted")
		}
	}
}

func TestGenerateDroughtThins(t *testing.T) {
	c := DefaultConfig(100)
	c.Duration = 20
	c.Bursts = []Burst{{Start: 0, End: 10, Multiplier: 0.25}}
	jobs, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	var in, out int
	for _, j := range jobs {
		if j.Release < 10 {
			in++
		} else {
			out++
		}
	}
	if in*2 >= out {
		t.Errorf("drought window kept %d of %d jobs, want about a quarter of the base rate", in, out)
	}
}

// TestBurstEnvelopeCoversEndEdges: a drought [0,10)×0.5 that ends inside a
// flash crowd [5,20)×3 lifts the rate to 3λ at its end edge, above the rate
// at any start edge. The thinning envelope must cover it in the batch and
// the lazy generator alike.
func TestBurstEnvelopeCoversEndEdges(t *testing.T) {
	c := DefaultConfig(100)
	c.Duration, c.Seed = 30, 3
	c.Bursts = []Burst{{Start: 0, End: 10, Multiplier: 0.5}, {Start: 5, End: 20, Multiplier: 3}}
	batch, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(c)
	if err != nil {
		t.Fatal(err)
	}
	for name, jobs := range map[string][]job.Job{"Generate": batch, "NewStream": drain(t, s, 1)} {
		var n int
		for _, j := range jobs {
			if j.Release >= 10 && j.Release < 20 {
				n++
			}
		}
		// 300 req/s over 10 s: about 3,000 arrivals.
		if n < 2700 {
			t.Errorf("%s: %d arrivals in [10, 20), want about 3000", name, n)
		}
	}
}
