package workload

import (
	"math"
	"math/rand/v2"

	"dessched/internal/job"
)

// Process describes one class of arrivals: a Poisson process over
// [0, Horizon) whose rate at t is RateAt(t), sampled by Lewis–Shedler
// thinning. Candidates arrive at rate Peak and each survives with
// probability RateAt(t)/Peak, so Peak must bound RateAt everywhere. A nil
// RateAt is the constant rate Peak, drawn without thinning.
type Process struct {
	Horizon         float64                  // arrivals stop at it, seconds
	Deadline        float64                  // response window: deadline = release + Deadline
	Peak            float64                  // candidate rate, requests per second
	RateAt          func(t float64) float64  // instantaneous rate; nil = constant Peak
	Demand          func(*rand.Rand) float64 // service-demand sampler
	PartialFraction float64                  // fraction of jobs supporting partial evaluation
	Class           string                   // job.Job.Class of every arrival
}

// Arrivals draws a Process's jobs in release order from a caller-seeded RNG.
// It is the one arrival sampler behind Generate, GenerateDiurnal and every
// workloadspec class, so a stream's bits depend only on its process and
// seed. Per candidate it draws one exponential gap at the peak rate and,
// only when the rate varies, one thinning uniform; an accepted arrival then
// draws its demand before its partial flag. Arrivals resolves one accepted
// job ahead, so once Head reports none, no later job exists.
type Arrivals struct {
	p    Process
	rng  *rand.Rand
	t    float64 // time of the last candidate drawn
	head job.Job // the next accepted arrival, ID unset
	done bool
}

// NewArrivals returns the process positioned at its first arrival.
func NewArrivals(p Process, rng *rand.Rand) *Arrivals {
	a := &Arrivals{p: p, rng: rng}
	a.Pop() // draws the first arrival
	return a
}

// Pop consumes the head and draws candidates until one is accepted or the
// horizon is hit.
func (a *Arrivals) Pop() {
	for {
		a.t += a.rng.ExpFloat64() / a.p.Peak
		if a.t >= a.p.Horizon {
			a.done = true
			return
		}
		if a.p.RateAt != nil && a.rng.Float64() > a.p.RateAt(a.t)/a.p.Peak {
			continue // thinned out
		}
		a.head = job.Job{
			Release:  a.t,
			Deadline: a.t + a.p.Deadline,
			Demand:   a.p.Demand(a.rng),
			Partial:  a.rng.Float64() < a.p.PartialFraction,
			Class:    a.p.Class,
		}
		return
	}
}

// Head returns the next arrival, or nil once the process has passed its
// horizon. Pop overwrites it.
func (a *Arrivals) Head() *job.Job {
	if a.done {
		return nil
	}
	return &a.head
}

// Expected returns the expected number of candidates the process draws
// from its last one to min(until, Horizon): Peak × the window's length. A
// constant-rate process accepts every candidate, so this is its arrivals'
// Poisson mean; a thinned process accepts fewer, so for it Peak only
// bounds the count from above.
func (a *Arrivals) Expected(until float64) float64 {
	if a.done || until <= a.t {
		return 0
	}
	return a.p.Peak * (min(until, a.p.Horizon) - a.t)
}

// maxPresize caps WindowCap, so a huge but valid config grows its window
// buffer by append past the cap instead of failing in makeslice.
const maxPresize = 1 << 20

// WindowCap returns the capacity to reserve for the arrivals of procs
// before until. The constant-rate processes' Expected counts sum to a
// Poisson mean μ, and the capacity is μ + 4√μ, capped at maxPresize; a
// window of thousands of expected jobs exceeds it with probability about
// 3·10⁻⁵, and one that does grows by append. A thinned process
// adds nothing: its Expected count only bounds the arrivals (Peak × the
// horizon can be ten times the count under a short flash crowd), so
// reserving it could exceed the capacity append would reach, and its
// arrivals grow the buffer by append instead.
func WindowCap(until float64, procs ...*Arrivals) int {
	mean := 0.0
	for _, a := range procs {
		if a.p.RateAt == nil {
			mean += a.Expected(until)
		}
	}
	n := mean + 4*math.Sqrt(mean)
	if !(n < maxPresize) {
		return maxPresize
	}
	return int(math.Ceil(n))
}

// Stream is a job.Source over one arrival process that numbers its jobs
// densely from 0. For any non-decreasing sequence of until values,
// concatenating Next results gives the same jobs as Generate (or
// GenerateDiurnal) for the same config, and Done is exact.
type Stream struct {
	arr *Arrivals
	n   int // next dense ID
	buf []job.Job
}

// NewStream validates the config and returns a Stream positioned before the
// first arrival.
func NewStream(c Config) (*Stream, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := Process{Horizon: c.Duration, Deadline: c.Deadline, Peak: c.peakRate(), Demand: c.Demand.Sampler(), PartialFraction: c.PartialFraction}
	if len(c.Bursts) > 0 {
		p.RateAt = c.RateAt
	}
	return &Stream{arr: NewArrivals(p, rand.New(rand.NewPCG(c.Seed, c.Seed^0x9e3779b97f4a7c15)))}, nil
}

// Next returns the arrivals with Release < until, in release order. The
// returned slice is reused by the following Next call; the first call
// sizes it by WindowCap.
func (s *Stream) Next(until float64) []job.Job {
	if s.buf == nil {
		s.buf = make([]job.Job, 0, WindowCap(until, s.arr))
	}
	s.buf = s.buf[:0]
	for !s.arr.done && s.arr.head.Release < until {
		j := s.arr.head
		s.arr.Pop()
		j.ID = job.ID(s.n)
		s.n++
		s.buf = append(s.buf, j)
	}
	return s.buf
}

// Done reports whether the stream is exhausted.
func (s *Stream) Done() bool { return s.arr.done }

var _ job.Source = (*Stream)(nil)
