// Package workload generates the synthetic web-search request streams the
// paper evaluates on (§V-B): Poisson arrivals, bounded-Pareto service
// demands (α = 3, xmin = 130, xmax = 1000 processing units, mean ≈ 192), a
// rigid deadline of release + 150 ms, and a configurable fraction of jobs
// supporting partial evaluation. Generation is deterministic given a seed so
// every experiment is reproducible. Every stream here and in workloadspec
// draws through one sampler, Arrivals.
package workload

import (
	"math"
	"math/rand/v2"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// BoundedPareto is the bounded Pareto distribution with shape Alpha on
// [Xmin, Xmax].
type BoundedPareto struct {
	Alpha float64
	Xmin  float64
	Xmax  float64
}

// DefaultDemand is the paper's service-demand distribution.
var DefaultDemand = BoundedPareto{Alpha: 3, Xmin: 130, Xmax: 1000}

// Validate returns an error when the parameters are out of range. NaN
// parameters are rejected explicitly: NaN compares false against every
// threshold, so without the check a NaN shape would sail through and turn
// every sampled demand into NaN.
func (b BoundedPareto) Validate() error {
	if b.Alpha <= 0 || math.IsNaN(b.Alpha) {
		return cfgerr.New("workload", "alpha", "workload: alpha must be positive, got %g", b.Alpha)
	}
	if b.Xmin <= 0 || b.Xmax <= b.Xmin || math.IsNaN(b.Xmin) || math.IsNaN(b.Xmax) || math.IsInf(b.Xmax, 0) {
		return cfgerr.New("workload", "demand", "workload: need 0 < xmin < xmax finite, got [%g, %g]", b.Xmin, b.Xmax)
	}
	return nil
}

// Sample draws one variate by inverse-CDF sampling. It prepares the
// distribution's constants on every call; a stream that draws many
// variates takes Sampler instead.
func (b BoundedPareto) Sample(rng *rand.Rand) float64 { return b.prepare().sample(rng) }

// Sampler returns Sample with the distribution's constants computed once:
// the same expressions over the same operands, so the same bits per draw.
func (b BoundedPareto) Sampler() func(*rand.Rand) float64 { return b.prepare().sample }

// preparedPareto holds a BoundedPareto's per-draw constants: ratio =
// (Xmin/Xmax)^Alpha and 1/Alpha.
type preparedPareto struct {
	xmin, xmax, ratio, invAlpha float64
}

func (b BoundedPareto) prepare() preparedPareto {
	return preparedPareto{xmin: b.Xmin, xmax: b.Xmax, ratio: math.Pow(b.Xmin/b.Xmax, b.Alpha), invAlpha: 1 / b.Alpha}
}

func (p preparedPareto) sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	x := p.xmin / math.Pow(1-u*(1-p.ratio), p.invAlpha)
	// Guard against floating-point drift at the boundary.
	if x < p.xmin {
		x = p.xmin
	}
	if x > p.xmax {
		x = p.xmax
	}
	return x
}

// Mean returns the analytic mean of the distribution. For the paper's
// defaults this is ≈ 192.1 processing units.
func (b BoundedPareto) Mean() float64 {
	if b.Alpha == 1 {
		ratio := b.Xmin / b.Xmax
		return b.Xmin * math.Log(b.Xmax/b.Xmin) / (1 - ratio)
	}
	ratio := math.Pow(b.Xmin/b.Xmax, b.Alpha)
	num := b.Alpha * math.Pow(b.Xmin, b.Alpha) / (b.Alpha - 1) *
		(math.Pow(b.Xmin, 1-b.Alpha) - math.Pow(b.Xmax, 1-b.Alpha))
	return num / (1 - ratio)
}

// Burst is an arrival-rate fault: during [Start, End) the stream's rate is
// scaled by Multiplier (> 1 a flash crowd, < 1 a drought). Overlapping
// bursts compound multiplicatively. Bursts are applied at generation time,
// so a burst-faulted stream is deterministic per seed like any other.
type Burst struct {
	Start, End float64
	Multiplier float64
}

// Validate reports parameter errors.
func (b Burst) Validate() error {
	if b.Start < 0 || math.IsNaN(b.Start) {
		return cfgerr.New("workload", "bursts", "workload: burst start %g is negative", b.Start)
	}
	if b.End <= b.Start || math.IsNaN(b.End) {
		return cfgerr.New("workload", "bursts", "workload: burst window [%g, %g] empty", b.Start, b.End)
	}
	if b.Multiplier <= 0 || math.IsNaN(b.Multiplier) || math.IsInf(b.Multiplier, 0) {
		return cfgerr.New("workload", "bursts", "workload: burst multiplier must be positive and finite, got %g", b.Multiplier)
	}
	return nil
}

// Config describes one synthetic request stream.
type Config struct {
	Rate            float64       // mean arrival rate, requests per second (Poisson)
	Duration        float64       // stream length, seconds
	Deadline        float64       // response window: deadline = release + Deadline
	Demand          BoundedPareto // service-demand distribution
	PartialFraction float64       // fraction of jobs supporting partial evaluation, in [0, 1]
	Seed            uint64        // RNG seed; equal configs generate equal streams
	Bursts          []Burst       // arrival-burst faults; empty = homogeneous Poisson
}

// DefaultConfig returns the paper's simulation setup (§V-B) at the given
// arrival rate: 150 ms deadlines, bounded-Pareto demands, all jobs partial,
// 1800 s horizon.
func DefaultConfig(rate float64) Config {
	return Config{
		Rate:            rate,
		Duration:        1800,
		Deadline:        0.150,
		Demand:          DefaultDemand,
		PartialFraction: 1.0,
		Seed:            1,
	}
}

// Validate returns an error for out-of-range configuration. Failures are
// typed *cfgerr.Error values; NaN and infinite parameters are rejected
// (NaN compares false against every threshold, so it would otherwise
// produce an empty or never-terminating stream instead of an error).
func (c Config) Validate() error {
	if c.Rate <= 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return cfgerr.New("workload", "rate", "workload: rate must be positive and finite, got %g", c.Rate)
	}
	if c.Duration <= 0 || math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
		return cfgerr.New("workload", "duration", "workload: duration must be positive and finite, got %g", c.Duration)
	}
	if c.Deadline <= 0 || math.IsNaN(c.Deadline) || math.IsInf(c.Deadline, 0) {
		return cfgerr.New("workload", "deadline", "workload: deadline window must be positive and finite, got %g", c.Deadline)
	}
	if c.PartialFraction < 0 || c.PartialFraction > 1 || math.IsNaN(c.PartialFraction) {
		return cfgerr.New("workload", "partial_fraction", "workload: partial fraction must be in [0,1], got %g", c.PartialFraction)
	}
	for _, b := range c.Bursts {
		if err := b.Validate(); err != nil {
			return err
		}
	}
	return c.Demand.Validate()
}

// RateAt returns the instantaneous arrival rate at time t: the base rate
// scaled by every burst active at t.
func (c Config) RateAt(t float64) float64 {
	r := c.Rate
	for _, b := range c.Bursts {
		if t >= b.Start && t < b.End {
			r *= b.Multiplier
		}
	}
	return r
}

// peakRate returns an upper bound on RateAt over the whole horizon, the
// thinning envelope for burst-faulted generation. The rate is piecewise
// constant, so its maximum is attained just after some burst edge: a start
// edge where a crowd begins, or an end edge where a drought lifts.
func (c Config) peakRate() float64 {
	peak := c.Rate
	for _, b := range c.Bursts {
		peak = max(peak, c.RateAt(b.Start), c.RateAt(b.End))
	}
	return peak
}

// Generate produces the full request stream for the configuration: jobs
// sorted by release time with dense IDs from 0, Stream drained in one
// window. Deadlines are agreeable by construction (constant response
// window). An invalid config returns an error. Without bursts the stream is
// homogeneous Poisson; with bursts it is non-homogeneous Poisson sampled by
// Lewis–Shedler thinning, still deterministic per seed.
func Generate(c Config) ([]job.Job, error) {
	s, err := NewStream(c)
	if err != nil {
		return nil, err
	}
	return s.Next(math.Inf(1)), nil
}

// OfferedLoad returns the long-run demand (units/s) the config offers:
// rate × mean demand. Dividing by a server's aggregate capacity gives its
// utilization; the paper calls ρ < 0.72 "light" and ρ > 1.08 "heavy" for the
// 16-core 320 W default (rates 120 and 180).
func (c Config) OfferedLoad() float64 { return c.Rate * c.Demand.Mean() }
