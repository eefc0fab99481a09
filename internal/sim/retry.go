// Retry: the recovery half of the fault story. PR 1's outage evacuation
// returns a stranded job to the waiting queue instantly, which models a
// perfectly clairvoyant re-dispatcher; real systems back off, bound their
// attempts, and give up on jobs that can no longer make their deadline.
// RetryPolicy makes that lifecycle explicit and typed:
//
//	pending → dispatched → evacuated → retried (after backoff) → …
//	                                 → abandoned (attempts or deadline exhausted)
//
// Backoff is deterministic exponential on the simulation clock — attempt k
// waits Backoff·Multiplier^(k-1), capped at MaxBackoff — so retry runs are
// exactly reproducible and bit-identical across worker counts.
package sim

import (
	"fmt"
	"math"

	"dessched/internal/cfgerr"
)

// Phase is a job's position in the dispatch/recovery lifecycle. It is
// orthogonal to DepartReason: Phase tracks how the job is moving through
// the system, Reason records why it finally left.
type Phase int

// Lifecycle phases.
const (
	PhasePending    Phase = iota // arrived, waiting in the queue
	PhaseDispatched              // bound to a core
	PhaseEvacuated               // pulled off an outaged core
	PhaseRetrying                // waiting out a retry backoff window
	PhaseDeparted                // left the system (see DepartReason)
)

// String returns the phase's lower-case name ("pending", "evacuated", …).
func (p Phase) String() string {
	switch p {
	case PhasePending:
		return "pending"
	case PhaseDispatched:
		return "dispatched"
	case PhaseEvacuated:
		return "evacuated"
	case PhaseRetrying:
		return "retrying"
	case PhaseDeparted:
		return "departed"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// RetryPolicy governs jobs evacuated from outaged cores. The zero value
// disables retries: evacuated jobs re-enter the waiting queue immediately
// (the pre-recovery behavior). With MaxAttempts > 0, an evacuated job
// instead waits out a deterministic exponential backoff before re-entering
// the queue, and is abandoned — departing with whatever partial quality it
// earned — when its attempts are exhausted or the backoff would land past
// its deadline.
type RetryPolicy struct {
	// MaxAttempts bounds how many evacuation→retry cycles a job may go
	// through; 0 disables the retry lifecycle entirely.
	MaxAttempts int

	// Backoff is the delay before the first retry, seconds of simulation
	// time. Required (> 0) when MaxAttempts > 0.
	Backoff float64

	// Multiplier grows the backoff exponentially per attempt; 0 defaults
	// to 2.
	Multiplier float64

	// MaxBackoff caps the per-attempt delay; 0 means uncapped.
	MaxBackoff float64

	// DeadlineSlack abandons a retry whose re-entry time would land within
	// this many seconds of the job's deadline (there would be no time left
	// to do useful work). 0 abandons only re-entries at or past the
	// deadline itself.
	DeadlineSlack float64
}

// Enabled reports whether the retry lifecycle is active.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 0 }

// Validate reports parameter errors as typed *cfgerr.Error values.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return cfgerr.New("sim", "retry", "sim: retry max attempts %d is negative", p.MaxAttempts)
	}
	if !p.Enabled() {
		return nil
	}
	if p.Backoff <= 0 || math.IsNaN(p.Backoff) || math.IsInf(p.Backoff, 0) {
		return cfgerr.New("sim", "retry", "sim: retry backoff must be positive and finite, got %g", p.Backoff)
	}
	if p.Multiplier < 0 || math.IsNaN(p.Multiplier) || math.IsInf(p.Multiplier, 0) {
		return cfgerr.New("sim", "retry", "sim: retry multiplier must be non-negative and finite, got %g", p.Multiplier)
	}
	if p.MaxBackoff < 0 || math.IsNaN(p.MaxBackoff) || math.IsInf(p.MaxBackoff, 0) {
		return cfgerr.New("sim", "retry", "sim: retry max backoff must be non-negative and finite, got %g", p.MaxBackoff)
	}
	if p.DeadlineSlack < 0 || math.IsNaN(p.DeadlineSlack) || math.IsInf(p.DeadlineSlack, 0) {
		return cfgerr.New("sim", "retry", "sim: retry deadline slack must be non-negative and finite, got %g", p.DeadlineSlack)
	}
	return nil
}

// Delay returns the backoff before retry attempt k (1-based): a
// deterministic exponential Backoff·Multiplier^(k-1), capped at MaxBackoff.
func (p RetryPolicy) Delay(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	mult := p.Multiplier
	if mult == 0 {
		mult = 2
	}
	d := p.Backoff * math.Pow(mult, float64(attempt-1))
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// scheduleRetry routes one just-evacuated job through the retry lifecycle:
// bump its attempt count, abandon it when attempts or deadline are
// exhausted, otherwise park it in the retrying phase until its backoff
// expires (evkRetry). Callers have already detached the job from its core.
func (e *engine) scheduleRetry(now float64, js *JobState) {
	js.Attempts++
	rp := e.cfg.Retry
	if js.Attempts > rp.MaxAttempts {
		e.depart(js, now, Abandoned)
		return
	}
	at := now + rp.Delay(js.Attempts)
	if at >= js.Job.Deadline-rp.DeadlineSlack {
		e.depart(js, now, Abandoned)
		return
	}
	js.Phase = PhaseRetrying
	e.events.Push(at, simEvent{kind: evkRetry, js: js})
}

// onRetry fires when a job's backoff expires: the job re-enters the waiting
// queue and the policy is triggered exactly as for a fresh arrival.
func (e *engine) onRetry(now float64, js *JobState) {
	if js.Departed() {
		return
	}
	js.Phase = PhasePending
	e.queue = append(e.queue, js)
	e.state.queue = e.queue
	e.retried++
	e.emit(Event{Time: now, Kind: EvRetry, Job: js.Job.ID, Core: -1})
	e.admit(now)

	t := e.cfg.Triggers
	switch {
	case t.OnArrival:
		e.invoke(now)
	case t.Counter > 0 && len(e.queue) >= t.Counter:
		e.invoke(now)
	case t.IdleCore && e.anyCoreIdle(now):
		e.invoke(now)
	}
}
