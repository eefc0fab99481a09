// Package job defines the request model of best-effort interactive services
// (§II-A): each job has a release time, a deadline, a service demand (CPU
// work in processing units), and a flag saying whether it supports partial
// evaluation. Deadlines are assumed agreeable — a job released later never
// has an earlier deadline — which holds for services whose requests share a
// common response-time requirement (e.g. release + 150 ms for web search).
package job

import (
	"fmt"
	"math"
	"sort"

	"dessched/internal/cfgerr"
)

// ID identifies a job within one workload. IDs are assigned densely from 0
// by the workload generator, so they can index slices.
type ID int64

// Job is an immutable description of one interactive request.
type Job struct {
	ID       ID
	Release  float64 // arrival time, seconds
	Deadline float64 // absolute deadline, seconds; processing beyond it is worthless
	Demand   float64 // full service demand, processing units
	Partial  bool    // true when partial execution yields partial quality

	// Class is the SLO job class the job belongs to ("" for unclassed
	// legacy streams). Classes carry their own deadline offsets and demand
	// distributions (see internal/workloadspec), so deadlines are only
	// guaranteed agreeable within one class, not across classes.
	Class string
}

// Window returns the length of the job's feasible execution window.
func (j Job) Window() float64 { return j.Deadline - j.Release }

// Validate returns an error when the job violates the model: non-positive,
// NaN, or infinite demand, NaN times, or an empty execution window. All
// failures are typed *cfgerr.Error values.
func (j Job) Validate() error {
	if j.Demand <= 0 || math.IsNaN(j.Demand) || math.IsInf(j.Demand, 0) {
		return cfgerr.New("job", "demand", "job %d: demand must be positive and finite, got %g", j.ID, j.Demand)
	}
	if math.IsNaN(j.Release) || math.IsNaN(j.Deadline) {
		return cfgerr.New("job", "window", "job %d: NaN release or deadline", j.ID)
	}
	if j.Deadline <= j.Release {
		return cfgerr.New("job", "window", "job %d: deadline %g not after release %g", j.ID, j.Deadline, j.Release)
	}
	return nil
}

// String renders the job compactly for logs and test failures.
func (j Job) String() string {
	if j.Class != "" {
		return fmt.Sprintf("J%d[r=%.4g d=%.4g w=%.4g partial=%t class=%s]", j.ID, j.Release, j.Deadline, j.Demand, j.Partial, j.Class)
	}
	return fmt.Sprintf("J%d[r=%.4g d=%.4g w=%.4g partial=%t]", j.ID, j.Release, j.Deadline, j.Demand, j.Partial)
}

// ValidateAll validates every job and checks pairwise agreeable deadlines.
func ValidateAll(jobs []Job) error {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	if !Agreeable(jobs) {
		return cfgerr.New("job", "deadlines", "job: deadlines are not agreeable")
	}
	return nil
}

// ValidateAllByClass validates every job and checks agreeable deadlines
// within each job class. Multi-class streams carry per-class deadline
// offsets, so agreeableness holds per class by construction but not across
// classes (a 1 s batch job released before a 150 ms interactive job has the
// later deadline). For all-unclassed streams this is exactly ValidateAll.
func ValidateAllByClass(jobs []Job) error {
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
	}
	classes := false
	for _, j := range jobs {
		if j.Class != "" {
			classes = true
			break
		}
	}
	if !classes {
		if !Agreeable(jobs) {
			return cfgerr.New("job", "deadlines", "job: deadlines are not agreeable")
		}
		return nil
	}
	byClass := map[string][]Job{}
	for _, j := range jobs {
		byClass[j.Class] = append(byClass[j.Class], j)
	}
	for class, cj := range byClass {
		if !Agreeable(cj) {
			return cfgerr.New("job", "deadlines", "job: deadlines of class %q are not agreeable", class)
		}
	}
	return nil
}

// Agreeable reports whether the deadlines are agreeable: for every pair,
// an earlier release implies a deadline no later than the other's (§II-A).
// Equal releases may carry deadlines in any order. The scheduling
// algorithms in this module rely on this property. Sorting by release with
// deadline tie-break makes a single linear scan sufficient: it is enough to
// track the maximum deadline seen among strictly earlier releases.
func Agreeable(jobs []Job) bool {
	s := append([]Job(nil), jobs...)
	SortByRelease(s)
	maxEarlier := 0.0 // max deadline among releases strictly before runStart
	runStart := 0     // first index of the current equal-release run
	for i := range s {
		if i > 0 && s[i].Release > s[runStart].Release {
			for _, prev := range s[runStart:i] {
				if prev.Deadline > maxEarlier {
					maxEarlier = prev.Deadline
				}
			}
			runStart = i
		}
		if i > 0 && s[i].Deadline < maxEarlier {
			return false
		}
	}
	return true
}

// SortByRelease sorts jobs by release time, breaking ties by deadline then ID.
func SortByRelease(jobs []Job) {
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		if jobs[a].Deadline != jobs[b].Deadline {
			return jobs[a].Deadline < jobs[b].Deadline
		}
		return jobs[a].ID < jobs[b].ID
	})
}

// SortByDeadline sorts jobs by deadline, breaking ties by release then ID.
// For agreeable job sets this equals EDF order and arrival order (§V-B fn.2).
func SortByDeadline(jobs []Job) {
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Deadline != jobs[b].Deadline {
			return jobs[a].Deadline < jobs[b].Deadline
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	})
}

// TotalDemand returns the sum of the jobs' service demands.
func TotalDemand(jobs []Job) float64 {
	s := 0.0
	for _, j := range jobs {
		s += j.Demand
	}
	return s
}

// Span returns the earliest release and the latest deadline of the set.
// It returns (0, 0) for an empty set.
func Span(jobs []Job) (first, last float64) {
	if len(jobs) == 0 {
		return 0, 0
	}
	first, last = jobs[0].Release, jobs[0].Deadline
	for _, j := range jobs[1:] {
		if j.Release < first {
			first = j.Release
		}
		if j.Deadline > last {
			last = j.Deadline
		}
	}
	return first, last
}

// Ready is a job together with its execution progress, as seen by an online
// scheduler at an invocation instant: Done units have already been processed
// on the job's core. Running marks the job currently executing on the core.
type Ready struct {
	Job
	Done    float64
	Running bool
}

// Remaining returns the outstanding demand of a ready job, never negative.
func (r Ready) Remaining() float64 {
	rem := r.Demand - r.Done
	if rem < 0 {
		return 0
	}
	return rem
}

// SortReadyByDeadline sorts ready jobs in EDF order (deadline, release, ID).
func SortReadyByDeadline(jobs []Ready) {
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].Deadline != jobs[b].Deadline {
			return jobs[a].Deadline < jobs[b].Deadline
		}
		if jobs[a].Release != jobs[b].Release {
			return jobs[a].Release < jobs[b].Release
		}
		return jobs[a].ID < jobs[b].ID
	})
}
