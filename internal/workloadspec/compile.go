package workloadspec

import (
	"math"
	"math/rand/v2"

	"dessched/internal/job"
	"dessched/internal/workload"
)

// seedMix is workload.Generate's PCG stream constant; compiled classes use
// the same mix so a single-class paper-default spec draws workload.Generate's
// stream exactly.
const seedMix = 0x9e3779b97f4a7c15

// Compile deterministically expands the spec into a job stream: Stream
// drained in one window. Each class generates independently from its own
// seeded RNG, the class streams merge by release time (ties broken by
// deadline, then class declaration order), and IDs run densely from 0 in
// the merged order. Equal specs always compile to equal streams, and the
// paper-default spec reproduces workload.Generate bit-identically.
func Compile(s *Spec) ([]job.Job, error) {
	st, err := NewStream(s)
	if err != nil {
		return nil, err
	}
	return st.Next(math.Inf(1)), nil
}

// classSeed resolves the RNG seed of class index ci: the class's pinned
// seed when set, otherwise spec seed + index — which makes a single-class
// spec use the spec seed verbatim, as workload.Generate does.
func classSeed(s *Spec, ci int) uint64 {
	if c := &s.Classes[ci]; c.Seed != nil {
		return *c.Seed
	}
	return s.Seed + uint64(ci)
}

// process returns class ci's arrival process. A class whose rate varies
// (periods, a diurnal profile, or bursts at either level) thins under
// peakRate; a plain one draws at its constant rate without thinning, as
// workload.Generate does for a burst-free config.
func process(s *Spec, ci int) workload.Process {
	c := &s.Classes[ci]
	p := workload.Process{Horizon: s.Duration, Deadline: c.Deadline, Peak: c.Rate, Demand: demandSampler(c.Demand), PartialFraction: 1, Class: c.Name}
	if c.PartialFraction != nil {
		p.PartialFraction = *c.PartialFraction
	}
	if len(c.Periods) > 0 || c.Diurnal != nil || len(c.Bursts) > 0 || len(s.Bursts) > 0 {
		p.Peak = peakRate(s, c)
		p.RateAt = func(t float64) float64 { return rateAt(s, c, t) }
	}
	return p
}

// rateAt returns the class's instantaneous arrival rate at t: the base rate
// (the class rate, replaced inside any period window), modulated by the
// diurnal profile, scaled by every active class- and spec-level burst.
func rateAt(s *Spec, c *ClassSpec, t float64) float64 {
	r := c.Rate
	for _, p := range c.Periods {
		if t >= p.Start && t < p.End {
			r = p.Rate
			break // periods are disjoint
		}
	}
	if d := c.Diurnal; d != nil {
		r *= 1 + d.Amplitude*math.Sin(2*math.Pi*t/d.Period)
	}
	for _, b := range c.Bursts {
		if t >= b.Start && t < b.End {
			r *= b.Multiplier
		}
	}
	for _, b := range s.Bursts {
		if t >= b.Start && t < b.End {
			r *= b.Multiplier
		}
	}
	return r
}

// peakRate returns an upper bound on rateAt over [0, duration), the
// Lewis-Shedler thinning envelope. The piecewise-constant part (periods ×
// bursts) attains its maximum just after a window edge — a start edge when
// the window raises the rate, an end edge when it lowered it (a slow
// period ending, a drought burst lifting) — so evaluating both edge sets
// with the diurnal factor replaced by its peak 1+amplitude bounds the
// product.
func peakRate(s *Spec, c *ClassSpec) float64 {
	edges := []float64{0}
	for _, p := range c.Periods {
		edges = append(edges, p.Start, p.End)
	}
	for _, b := range c.Bursts {
		edges = append(edges, b.Start, b.End)
	}
	for _, b := range s.Bursts {
		edges = append(edges, b.Start, b.End)
	}
	amp := 0.0
	if c.Diurnal != nil {
		amp = c.Diurnal.Amplitude
	}
	peak := 0.0
	for _, t := range edges {
		r := c.Rate
		for _, p := range c.Periods {
			if t >= p.Start && t < p.End {
				r = p.Rate
				break
			}
		}
		for _, b := range c.Bursts {
			if t >= b.Start && t < b.End {
				r *= b.Multiplier
			}
		}
		for _, b := range s.Bursts {
			if t >= b.Start && t < b.End {
				r *= b.Multiplier
			}
		}
		r *= 1 + amp
		if r > peak {
			peak = r
		}
	}
	return peak
}

// demandSampler returns the class's service-demand sampler. Draw counts per
// accepted arrival are fixed per distribution (bounded-pareto and uniform
// consume one uniform variate, point consumes none) so streams stay
// reproducible.
func demandSampler(d DemandSpec) func(*rand.Rand) float64 {
	switch d.Dist {
	case "bounded-pareto":
		return workload.BoundedPareto{Alpha: d.Alpha, Xmin: d.Min, Xmax: d.Max}.Sampler()
	case "uniform":
		return func(rng *rand.Rand) float64 { return d.Min + rng.Float64()*(d.Max-d.Min) }
	default: // point
		return func(*rand.Rand) float64 { return d.Value }
	}
}

// OfferedLoad returns the long-run demand (units/s) the spec offers across
// all classes at their base rates: Σ rate × mean demand. Periods, diurnal
// profiles, and bursts shift the instantaneous load around this figure.
func (s *Spec) OfferedLoad() float64 {
	total := 0.0
	for i := range s.Classes {
		c := &s.Classes[i]
		total += c.Rate * c.Demand.Mean()
	}
	return total
}
