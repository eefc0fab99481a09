package workload

import (
	"math"
	"math/rand/v2"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
)

// DiurnalConfig generates a non-homogeneous Poisson request stream whose
// rate follows a sinusoidal day/night profile:
//
//	rate(t) = BaseRate * (1 + Amplitude * sin(2π t / Period))
//
// Real interactive services see exactly this pattern; the paper's fixed-rate
// sweep samples its operating points, while a diurnal stream exercises the
// transitions between light and heavy load within one run (the regime where
// DES's dynamic power redistribution matters most). Sampling uses Lewis &
// Shedler thinning, so the stream is exact and deterministic per seed.
type DiurnalConfig struct {
	BaseRate        float64 // mean arrival rate, req/s
	Amplitude       float64 // relative swing, in [0, 1)
	Period          float64 // seconds per cycle
	Duration        float64
	Deadline        float64
	Demand          BoundedPareto
	PartialFraction float64
	Seed            uint64
}

// DefaultDiurnal returns a profile oscillating ±50% around the base rate
// with a (scaled-down) 300 s "day".
func DefaultDiurnal(baseRate float64) DiurnalConfig {
	return DiurnalConfig{
		BaseRate:        baseRate,
		Amplitude:       0.5,
		Period:          300,
		Duration:        600,
		Deadline:        0.150,
		Demand:          DefaultDemand,
		PartialFraction: 1.0,
		Seed:            1,
	}
}

// Validate reports configuration errors as typed *cfgerr.Error values. NaN
// and infinite parameters are rejected: NaN compares false against every
// threshold, and a NaN or infinite rate or horizon never ends the stream.
func (c DiurnalConfig) Validate() error {
	if !(c.BaseRate > 0) || math.IsInf(c.BaseRate, 0) {
		return cfgerr.New("workload", "base_rate", "workload: base rate must be positive and finite, got %g", c.BaseRate)
	}
	if !(c.Amplitude >= 0 && c.Amplitude < 1) {
		return cfgerr.New("workload", "amplitude", "workload: amplitude must be in [0, 1), got %g", c.Amplitude)
	}
	if !(c.Period > 0) || math.IsInf(c.Period, 0) {
		return cfgerr.New("workload", "period", "workload: period must be positive and finite, got %g", c.Period)
	}
	if !(c.Duration > 0) || math.IsInf(c.Duration, 0) {
		return cfgerr.New("workload", "duration", "workload: duration must be positive and finite, got %g", c.Duration)
	}
	if !(c.Deadline > 0) || math.IsInf(c.Deadline, 0) {
		return cfgerr.New("workload", "deadline", "workload: deadline window must be positive and finite, got %g", c.Deadline)
	}
	if !(c.PartialFraction >= 0 && c.PartialFraction <= 1) {
		return cfgerr.New("workload", "partial_fraction", "workload: partial fraction must be in [0,1], got %g", c.PartialFraction)
	}
	return c.Demand.Validate()
}

// Rate returns the instantaneous arrival rate at time t.
func (c DiurnalConfig) Rate(t float64) float64 {
	return c.BaseRate * (1 + c.Amplitude*math.Sin(2*math.Pi*t/c.Period))
}

// GenerateDiurnal produces the request stream by thinning a homogeneous
// Poisson process at the peak rate BaseRate·(1+Amplitude).
func GenerateDiurnal(c DiurnalConfig) ([]job.Job, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := Process{Horizon: c.Duration, Deadline: c.Deadline, Peak: c.BaseRate * (1 + c.Amplitude), RateAt: c.Rate, Demand: c.Demand.Sampler(), PartialFraction: c.PartialFraction}
	s := &Stream{arr: NewArrivals(p, rand.New(rand.NewPCG(c.Seed, c.Seed^0xbf58476d1ce4e5b9)))}
	return s.Next(math.Inf(1)), nil
}
