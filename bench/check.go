package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"dessched"
)

// outcome is the workload-independent view of one run's result: every
// simulated output the checks and the metrics read.
type outcome struct {
	Jobs        int // logical arrivals (a hedged job counts once)
	Events      int
	Invocations int

	Quality, MaxQuality, NormQuality, Energy float64

	Completed, Deadlined, Discarded, Shed, Abandoned int
	Requeued, Retried                                int
	BudgetViolations                                 int
	Hedged, HedgeWins                                int

	Classes []dessched.ClassResult
}

func simOutcome(r dessched.Result) outcome {
	return outcome{
		Jobs: r.Arrived, Events: r.Events, Invocations: r.Invocation,
		Quality: r.Quality, MaxQuality: r.MaxQuality, NormQuality: r.NormQuality, Energy: r.Energy,
		Completed: r.Completed, Deadlined: r.Deadlined, Discarded: r.Discarded, Shed: r.Shed, Abandoned: r.Abandoned,
		Requeued: r.Requeued, Retried: r.Retried, BudgetViolations: r.BudgetViolations,
		Classes: r.Classes,
	}
}

func clusterOutcome(r dessched.ClusterResult) outcome {
	return outcome{
		Jobs: r.Arrived, Events: r.Events, Invocations: r.Invocation,
		Quality: r.Quality, MaxQuality: r.MaxQuality, NormQuality: r.NormQuality, Energy: r.Energy,
		Completed: r.Completed, Deadlined: r.Deadlined, Discarded: r.Discarded, Shed: r.Shed, Abandoned: r.Abandoned,
		Requeued: r.Requeued, Retried: r.Retried, BudgetViolations: r.BudgetViolations,
		Hedged: r.Hedged, HedgeWins: r.HedgeWins,
		Classes: r.Classes,
	}
}

// fingerprint hashes the exact bits of every float output and every count,
// fleet-wide and per class. Two runs of one workload and seed must agree on
// it whatever the worker count, observers or tracing wrappers.
func (o *outcome) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	f := func(x float64) { put(math.Float64bits(x)) }
	n := func(xs ...int) {
		for _, x := range xs {
			put(uint64(x))
		}
	}
	f(o.Quality)
	f(o.MaxQuality)
	f(o.NormQuality)
	f(o.Energy)
	n(o.Jobs, o.Events, o.Invocations, o.Completed, o.Deadlined, o.Discarded, o.Shed, o.Abandoned,
		o.Requeued, o.Retried, o.BudgetViolations, o.Hedged, o.HedgeWins, len(o.Classes))
	for _, c := range o.Classes {
		h.Write([]byte(c.Class))
		f(c.Quality)
		f(c.MaxQuality)
		f(c.NormQuality)
		n(c.Arrived, c.Completed, c.Deadlined, c.Discarded, c.Shed, c.Abandoned)
	}
	return h.Sum64()
}

// validate checks one outcome on its own:
//
//   - every job leaves exactly once, fleet-wide and in every class:
//     Arrived = Completed + Deadlined + Discarded + Shed + Abandoned, with a
//     hedged job's losing replica already subtracted from both sides;
//   - the classes partition the arrivals;
//   - the power audit saw no budget violation.
func (o *outcome) validate() error {
	var errs []error
	if d := o.Completed + o.Deadlined + o.Discarded + o.Shed + o.Abandoned; d != o.Jobs {
		errs = append(errs, fmt.Errorf("accounting: %d arrived but %d departed", o.Jobs, d))
	}
	if len(o.Classes) > 0 {
		sum := 0
		for _, c := range o.Classes {
			sum += c.Arrived
			if d := c.Completed + c.Deadlined + c.Discarded + c.Shed + c.Abandoned; d != c.Arrived {
				errs = append(errs, fmt.Errorf("accounting: class %q: %d arrived but %d departed", c.Class, c.Arrived, d))
			}
		}
		if sum != o.Jobs {
			errs = append(errs, fmt.Errorf("accounting: classes hold %d of %d arrivals", sum, o.Jobs))
		}
	}
	if o.BudgetViolations != 0 {
		errs = append(errs, fmt.Errorf("power audit: %d budget violations", o.BudgetViolations))
	}
	if o.Jobs == 0 {
		errs = append(errs, errors.New("no jobs arrived"))
	}
	return errors.Join(errs...)
}

// checker holds a run's reference outcome: the first outcome seen, against
// which every later repeat's fingerprint is compared.
type checker struct {
	ref   *outcome
	refFP uint64
}

// check validates o and compares it with the reference, adopting o as the
// reference when there is none yet.
func (c *checker) check(o outcome, mode string) error {
	if err := o.validate(); err != nil {
		return fmt.Errorf("%s: %w", mode, err)
	}
	fp := o.fingerprint()
	if c.ref == nil {
		c.ref, c.refFP = &o, fp
		return nil
	}
	if fp != c.refFP {
		return fmt.Errorf("%s: result fingerprint %016x differs from the reference %016x (quality %v vs %v, events %d vs %d)",
			mode, fp, c.refFP, o.Quality, c.ref.Quality, o.Events, c.ref.Events)
	}
	return nil
}
