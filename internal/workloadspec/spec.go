// Package workloadspec is the declarative workload subsystem: a versioned,
// validated JSON format ("dessched-workload/v1") describing multi-class
// request streams, compiled deterministically into job.Job streams.
//
// A spec names one or more SLO job classes — each with its own arrival
// rate, deadline offset, service-demand distribution (bounded-Pareto,
// uniform, or point mass), quality-function selection, partial-evaluation
// fraction, and integer SLO priority — and layers piecewise multi-period
// rate windows, sinusoidal diurnal profiles, and arrival bursts on top of
// each class's base rate. Each class is one workload.Arrivals process, the
// sampler behind workload.Generate too. Compilation is seeded and
// merge-by-release with a stable tie-break, so equal specs always produce
// equal streams, and a single-class paper-default spec reproduces the
// workload.Generate(workload.DefaultConfig(rate)) stream bit-identically.
//
// Every decode or validation failure is a typed *cfgerr.Error — never a
// panic — so CLI, HTTP, and facade callers surface spec problems uniformly.
package workloadspec

import (
	"bytes"
	"encoding/json"
	"math"

	"dessched/internal/cfgerr"
	"dessched/internal/quality"
	"dessched/internal/workload"
)

// SchemaV1 is the format tag of version-1 workload specs. Decode rejects
// any other value.
const SchemaV1 = "dessched-workload/v1"

// maxClasses bounds a single spec; far above any realistic scenario, it
// keeps hostile specs from allocating unbounded per-class state.
const maxClasses = 256

// Spec is a complete dessched-workload/v1 document.
type Spec struct {
	// Schema must be "dessched-workload/v1".
	Schema string `json:"schema"`

	// Name is a free-form label for reports and describe output.
	Name string `json:"name,omitempty"`

	// Duration is the stream horizon in seconds; arrivals stop at it.
	Duration float64 `json:"duration_s"`

	// Seed is the base RNG seed. Class i draws from Seed + i unless the
	// class pins its own seed, so class streams are independent but the
	// whole spec stays reproducible from one number.
	Seed uint64 `json:"seed"`

	// Classes are the job classes, in declaration order (which is also the
	// merge tie-break order). At least one is required.
	Classes []ClassSpec `json:"classes"`

	// Bursts optionally scale every class's arrival rate during windows
	// (flash crowds or droughts shared by the whole service). Per-class
	// bursts compose multiplicatively with these.
	Bursts []BurstSpec `json:"bursts,omitempty"`
}

// ClassSpec is one named SLO job class.
type ClassSpec struct {
	// Name identifies the class; it flows into job.Job.Class and every
	// per-class result, sample, and metric label. Required, unique.
	Name string `json:"name"`

	// Rate is the class's base mean arrival rate, requests per second.
	// Periods override it inside their windows.
	Rate float64 `json:"rate"`

	// Deadline is the response window in seconds: deadline = release +
	// Deadline for every job of the class.
	Deadline float64 `json:"deadline_s"`

	// Demand is the service-demand distribution.
	Demand DemandSpec `json:"demand"`

	// Quality optionally selects a per-class quality function for quality
	// accounting (crediting, shedding, normalization). Absent means the
	// engine's configured function.
	Quality *QualitySpec `json:"quality,omitempty"`

	// PartialFraction is the fraction of the class's jobs supporting
	// partial evaluation, in [0, 1]. Absent defaults to 1 (the paper's
	// setting).
	PartialFraction *float64 `json:"partial_fraction,omitempty"`

	// Priority is the class's integer SLO priority (0 = default; higher =
	// more important). PriorityByClass feeds it into
	// sim.Config.ClassPriority, where the priority queue orders
	// (prio-sjf/prio-edf) and the priority admission policy act on it.
	Priority int `json:"priority,omitempty"`

	// Seed optionally pins the class's RNG seed (default: spec seed +
	// class index).
	Seed *uint64 `json:"seed,omitempty"`

	// Periods are piecewise rate windows: inside [Start, End) the class's
	// base rate is Rate (the period's), outside it falls back to the
	// class Rate. Periods must be disjoint.
	Periods []PeriodSpec `json:"periods,omitempty"`

	// Diurnal optionally modulates the (period-resolved) base rate with a
	// sinusoidal day/night profile.
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`

	// Bursts scale this class's rate during windows, compounding with any
	// spec-level bursts.
	Bursts []BurstSpec `json:"bursts,omitempty"`
}

// DemandSpec selects a service-demand distribution.
type DemandSpec struct {
	// Dist is "bounded-pareto", "uniform", or "point".
	Dist string `json:"dist"`

	// Alpha is the bounded-Pareto shape (bounded-pareto only).
	Alpha float64 `json:"alpha,omitempty"`

	// Min and Max bound the support (bounded-pareto, uniform).
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`

	// Value is the point-mass demand (point only).
	Value float64 `json:"value,omitempty"`
}

// QualitySpec selects a quality function by kind.
type QualitySpec struct {
	// Kind is "exp", "linear", "sqrt", or "piecewise".
	Kind string `json:"kind"`

	// C is the exponential concavity multiplier (exp only; default the
	// paper's 0.003).
	C float64 `json:"c,omitempty"`

	// Span is the demand at which linear/sqrt quality saturates at 1
	// (default 1000 units).
	Span float64 `json:"span,omitempty"`

	// Points are the breakpoints of a concave piecewise-linear function
	// (piecewise only).
	Points []QualityPointSpec `json:"points,omitempty"`
}

// QualityPointSpec is one piecewise-linear quality breakpoint.
type QualityPointSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// PeriodSpec is one piecewise rate window.
type PeriodSpec struct {
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	Rate  float64 `json:"rate"`
}

// DiurnalSpec modulates a class rate sinusoidally:
// factor(t) = 1 + Amplitude * sin(2π t / Period).
type DiurnalSpec struct {
	Amplitude float64 `json:"amplitude"` // relative swing, in [0, 1)
	Period    float64 `json:"period_s"`  // seconds per cycle
}

// BurstSpec scales the arrival rate by Multiplier during [Start, End).
type BurstSpec struct {
	Start      float64 `json:"start_s"`
	End        float64 `json:"end_s"`
	Multiplier float64 `json:"multiplier"`
}

// Decode parses and validates a dessched-workload/v1 document. Unknown
// fields, malformed JSON, and out-of-range parameters all yield typed
// *cfgerr.Error values — never a panic.
func Decode(b []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, cfgerr.New("workloadspec", "json", "workloadspec: decoding spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate reports every structural and range error as a typed
// *cfgerr.Error. NaN and infinite parameters are rejected explicitly (NaN
// compares false against every threshold, so it would otherwise slip into
// the generators and corrupt the stream instead of failing fast).
func (s *Spec) Validate() error {
	if s.Schema != SchemaV1 {
		return cfgerr.New("workloadspec", "schema", "workloadspec: schema %q, want %q", s.Schema, SchemaV1)
	}
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return cfgerr.New("workloadspec", "duration_s", "workloadspec: duration must be positive and finite, got %g", s.Duration)
	}
	if len(s.Classes) == 0 {
		return cfgerr.New("workloadspec", "classes", "workloadspec: at least one class is required")
	}
	if len(s.Classes) > maxClasses {
		return cfgerr.New("workloadspec", "classes", "workloadspec: %d classes, limit is %d", len(s.Classes), maxClasses)
	}
	for _, b := range s.Bursts {
		if err := b.validate("bursts"); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for i := range s.Classes {
		c := &s.Classes[i]
		if err := c.validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return cfgerr.New("workloadspec", "classes", "workloadspec: duplicate class name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

func (c *ClassSpec) validate() error {
	if c.Name == "" {
		return cfgerr.New("workloadspec", "class.name", "workloadspec: class name is required")
	}
	if !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
		return cfgerr.New("workloadspec", "class.rate", "workloadspec: class %q: rate must be positive and finite, got %g", c.Name, c.Rate)
	}
	if !(c.Deadline > 0) || math.IsInf(c.Deadline, 0) {
		return cfgerr.New("workloadspec", "class.deadline_s", "workloadspec: class %q: deadline must be positive and finite, got %g", c.Name, c.Deadline)
	}
	if c.PartialFraction != nil {
		pf := *c.PartialFraction
		if !(pf >= 0 && pf <= 1) { // NaN fails both bounds
			return cfgerr.New("workloadspec", "class.partial_fraction", "workloadspec: class %q: partial fraction must be in [0,1], got %g", c.Name, pf)
		}
	}
	if c.Priority < 0 {
		return cfgerr.New("workloadspec", "class.priority", "workloadspec: class %q: priority must be non-negative, got %d", c.Name, c.Priority)
	}
	if err := c.Demand.validate(c.Name); err != nil {
		return err
	}
	if c.Quality != nil {
		if _, err := c.Quality.Function(); err != nil {
			return err
		}
	}
	for i, p := range c.Periods {
		if !(p.Start >= 0) || math.IsNaN(p.Start) {
			return cfgerr.New("workloadspec", "class.periods", "workloadspec: class %q: period %d start %g is negative", c.Name, i, p.Start)
		}
		if !(p.End > p.Start) || math.IsInf(p.End, 0) {
			return cfgerr.New("workloadspec", "class.periods", "workloadspec: class %q: period %d window [%g, %g] empty", c.Name, i, p.Start, p.End)
		}
		if !(p.Rate > 0) || math.IsInf(p.Rate, 0) {
			return cfgerr.New("workloadspec", "class.periods", "workloadspec: class %q: period %d rate must be positive and finite, got %g", c.Name, i, p.Rate)
		}
		for j := 0; j < i; j++ {
			q := c.Periods[j]
			if p.Start < q.End && q.Start < p.End {
				return cfgerr.New("workloadspec", "class.periods", "workloadspec: class %q: periods %d and %d overlap", c.Name, j, i)
			}
		}
	}
	if d := c.Diurnal; d != nil {
		if !(d.Amplitude >= 0 && d.Amplitude < 1) {
			return cfgerr.New("workloadspec", "class.diurnal", "workloadspec: class %q: diurnal amplitude must be in [0, 1), got %g", c.Name, d.Amplitude)
		}
		if !(d.Period > 0) || math.IsInf(d.Period, 0) {
			return cfgerr.New("workloadspec", "class.diurnal", "workloadspec: class %q: diurnal period must be positive and finite, got %g", c.Name, d.Period)
		}
	}
	for _, b := range c.Bursts {
		if err := b.validate("class.bursts"); err != nil {
			return err
		}
	}
	return nil
}

func (b BurstSpec) validate(field string) error {
	w := workload.Burst{Start: b.Start, End: b.End, Multiplier: b.Multiplier}
	if err := w.Validate(); err != nil {
		return cfgerr.New("workloadspec", field, "workloadspec: %v", err)
	}
	return nil
}

func (d *DemandSpec) validate(class string) error {
	switch d.Dist {
	case "bounded-pareto":
		bp := workload.BoundedPareto{Alpha: d.Alpha, Xmin: d.Min, Xmax: d.Max}
		if err := bp.Validate(); err != nil {
			return cfgerr.New("workloadspec", "class.demand", "workloadspec: class %q: %v", class, err)
		}
	case "uniform":
		if !(d.Min > 0) || !(d.Max > d.Min) || math.IsInf(d.Max, 0) {
			return cfgerr.New("workloadspec", "class.demand", "workloadspec: class %q: uniform needs 0 < min < max finite, got [%g, %g]", class, d.Min, d.Max)
		}
	case "point":
		if !(d.Value > 0) || math.IsInf(d.Value, 0) {
			return cfgerr.New("workloadspec", "class.demand", "workloadspec: class %q: point demand must be positive and finite, got %g", class, d.Value)
		}
	default:
		return cfgerr.New("workloadspec", "class.demand", "workloadspec: class %q: unknown demand distribution %q (want bounded-pareto, uniform, or point)", class, d.Dist)
	}
	return nil
}

// Mean returns the distribution's analytic mean.
func (d *DemandSpec) Mean() float64 {
	switch d.Dist {
	case "bounded-pareto":
		return workload.BoundedPareto{Alpha: d.Alpha, Xmin: d.Min, Xmax: d.Max}.Mean()
	case "uniform":
		return (d.Min + d.Max) / 2
	default:
		return d.Value
	}
}

// Bounds returns the distribution's support [min, max]: the configured
// bounds for bounded-pareto and uniform, the point mass for point.
func (d *DemandSpec) Bounds() (min, max float64) {
	switch d.Dist {
	case "bounded-pareto", "uniform":
		return d.Min, d.Max
	default:
		return d.Value, d.Value
	}
}

// Function builds the selected quality function, defaulting unset
// parameters to the paper's (c = 0.003, span = 1000).
func (q *QualitySpec) Function() (quality.Function, error) {
	switch q.Kind {
	case "exp":
		c := q.C
		if c == 0 {
			c = quality.DefaultC
		}
		if !(c > 0) || math.IsInf(c, 0) {
			return nil, cfgerr.New("workloadspec", "class.quality", "workloadspec: exp quality multiplier must be positive and finite, got %g", q.C)
		}
		return quality.NewExponential(c), nil
	case "linear", "sqrt":
		span := q.Span
		if span == 0 {
			span = 1000
		}
		if !(span > 0) || math.IsInf(span, 0) {
			return nil, cfgerr.New("workloadspec", "class.quality", "workloadspec: %s quality span must be positive and finite, got %g", q.Kind, q.Span)
		}
		if q.Kind == "linear" {
			return quality.Linear{Span: span}, nil
		}
		return quality.Sqrt{Span: span}, nil
	case "piecewise":
		pts := make([]quality.Point, len(q.Points))
		for i, p := range q.Points {
			pts[i] = quality.Point{X: p.X, Y: p.Y}
		}
		pw, err := quality.NewPiecewise(pts...)
		if err != nil {
			return nil, cfgerr.New("workloadspec", "class.quality", "workloadspec: %v", err)
		}
		return pw, nil
	default:
		return nil, cfgerr.New("workloadspec", "class.quality", "workloadspec: unknown quality kind %q (want exp, linear, sqrt, or piecewise)", q.Kind)
	}
}

// QualityByClass builds the per-class quality-function map for
// sim.Config.ClassQuality: one entry per class that selects an explicit
// quality function, nil when no class does. The spec must be valid.
func (s *Spec) QualityByClass() (map[string]quality.Function, error) {
	var m map[string]quality.Function
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Quality == nil {
			continue
		}
		fn, err := c.Quality.Function()
		if err != nil {
			return nil, err
		}
		if m == nil {
			m = make(map[string]quality.Function)
		}
		m[c.Name] = fn
	}
	return m, nil
}

// PriorityByClass builds the per-class priority map for
// sim.Config.ClassPriority: one entry per class with a non-zero priority,
// nil when every class sits at the default tier. The spec must be valid.
func (s *Spec) PriorityByClass() map[string]int {
	var m map[string]int
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Priority == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int)
		}
		m[c.Name] = c.Priority
	}
	return m
}

// ClassNames returns the class names in declaration order — the partition
// order by-class cluster dispatch uses.
func (s *Spec) ClassNames() []string {
	names := make([]string, len(s.Classes))
	for i := range s.Classes {
		names[i] = s.Classes[i].Name
	}
	return names
}

// PaperDefault returns the spec equivalent of the legacy paper workload
// workload.DefaultConfig(rate): one class, 150 ms deadlines, bounded-Pareto
// demands, all jobs partial, 1800 s horizon, seed 1. Compiling it
// reproduces workload.Generate's stream bit-identically.
func PaperDefault(rate float64) *Spec {
	d := workload.DefaultConfig(rate)
	return &Spec{
		Schema:   SchemaV1,
		Name:     "paper-default",
		Duration: d.Duration,
		Seed:     d.Seed,
		Classes: []ClassSpec{{
			Name:     "search",
			Rate:     d.Rate,
			Deadline: d.Deadline,
			Demand:   DemandSpec{Dist: "bounded-pareto", Alpha: d.Demand.Alpha, Min: d.Demand.Xmin, Max: d.Demand.Xmax},
		}},
	}
}
