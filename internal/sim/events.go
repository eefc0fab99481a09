package sim

import (
	"fmt"

	"dessched/internal/job"
)

// EventKind classifies the notable occurrences of a simulation run.
type EventKind int

// Event kinds.
const (
	EvArrival   EventKind = iota // a job entered the waiting queue
	EvInvoke                     // the policy was invoked
	EvComplete                   // a job finished its full demand
	EvDeadline                   // a job's deadline expired with partial work
	EvDiscard                    // the policy dropped a job
	EvFaultEdge                  // a fault window opened or closed
	EvShed                       // the admission stage turned a job away
	EvRequeue                    // an outaged core's job returned to the queue
	EvRetry                      // an evacuated job re-entered the queue after backoff
	EvAbandon                    // the retry policy gave up on an evacuated job
)

// String returns the kind's lower-case name ("arrival", "fault-edge", …).
func (k EventKind) String() string {
	switch k {
	case EvArrival:
		return "arrival"
	case EvInvoke:
		return "invoke"
	case EvComplete:
		return "complete"
	case EvDeadline:
		return "deadline"
	case EvDiscard:
		return "discard"
	case EvFaultEdge:
		return "fault-edge"
	case EvShed:
		return "shed"
	case EvRequeue:
		return "requeue"
	case EvRetry:
		return "retry"
	case EvAbandon:
		return "abandon"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observed occurrence. Job is -1 for events without a job;
// Core is -1 for events without a core.
type Event struct {
	Time float64
	Kind EventKind
	Job  job.ID
	Core int

	// Queue is the waiting-queue length sampled at the instant the event
	// fired, before the event's own effect is applied (a shed job is still
	// counted in its own EvShed event).
	Queue int

	// Quality is the quality credited to the departing job; it is only
	// meaningful on departure events (complete, deadline, discard, shed)
	// and zero elsewhere.
	Quality float64

	// Class is the job's SLO class on job-carrying events ("" for
	// unclassed jobs and job-less events), letting observers break
	// telemetry out per class without a side lookup.
	Class string
}

// String renders the event as "time kind [job=N] [core=N]" for logs.
func (e Event) String() string {
	s := fmt.Sprintf("%.6f %s", e.Time, e.Kind)
	if e.Job >= 0 {
		s += fmt.Sprintf(" job=%d", e.Job)
	}
	if e.Core >= 0 {
		s += fmt.Sprintf(" core=%d", e.Core)
	}
	return s
}

// Observer receives events as they happen; set Config.Observer to enable.
// Calls are synchronous from the simulation loop, so observers must be
// fast and must not call back into the State API.
type Observer func(Event)

// EventCounter is a ready-made Observer tallying events by kind. Like
// every Observer it is invoked synchronously from the single goroutine
// that drives Run, so it needs no locking — but for the same reason one
// counter must not be shared by simulations running concurrently. To
// reuse a counter across sequential runs, call Reset between them.
type EventCounter struct {
	Counts map[EventKind]int
}

// NewEventCounter returns an empty counter.
func NewEventCounter() *EventCounter { return &EventCounter{Counts: map[EventKind]int{}} }

// Observe implements the Observer contract; pass counter.Observe.
func (c *EventCounter) Observe(e Event) { c.Counts[e.Kind]++ }

// Reset clears the tallies so the counter can be reused for another run.
func (c *EventCounter) Reset() { clear(c.Counts) }

// emit delivers an event to the configured observer. The nil check is the
// whole disabled-telemetry cost: when no Observer is set, simulation runs
// pay one branch per event and nothing else (benchmarked in
// observer_bench_test.go).
func (e *engine) emit(ev Event) {
	if e.cfg.Observer != nil {
		ev.Queue = len(e.queue)
		e.cfg.Observer(ev)
	}
}
