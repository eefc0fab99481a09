package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dessched/internal/admission"
	"dessched/internal/cfgerr"
	"dessched/internal/cluster"
	"dessched/internal/invariants"
	"dessched/internal/sim"
	"dessched/internal/workloadspec"
)

// Contender is one tournament entrant: a scheduling policy spec plus an
// optional ready-queue discipline layered on the engine's waiting queue.
// The textual form is "policy" or "policy@order" ("des@prio-sjf").
type Contender struct {
	// Policy is a scheduler name (see cluster.Policies).
	Policy string `json:"policy"`
	// Order is a queue-order name (see sim.QueueOrders); empty means fcfs
	// (no sort).
	Order string `json:"order,omitempty"`
}

// Name returns the contender's display name ("des@prio-sjf", "fcfs").
func (c Contender) Name() string {
	if c.Order != "" && c.Order != "fcfs" {
		return c.Policy + "@" + c.Order
	}
	return c.Policy
}

// ParseContender parses "policy" or "policy@order", validating both names
// against their name tables.
func ParseContender(s string) (Contender, error) {
	var c Contender
	c.Policy = strings.TrimSpace(s)
	if at := strings.IndexByte(c.Policy, '@'); at >= 0 {
		c.Order = c.Policy[at+1:]
		c.Policy = c.Policy[:at]
	}
	if _, err := cluster.ParsePolicy(c.Policy); err != nil {
		return Contender{}, err
	}
	if _, err := sim.ParseQueueOrder(c.Order); err != nil {
		return Contender{}, err
	}
	return c, nil
}

// TournamentConfig parameterizes a policy tournament: a policy ×
// seed grid over one declarative workload, with per-class dominance
// checks against a baseline and a below-saturation liveness pass.
type TournamentConfig struct {
	// Spec is the workload every contender races on. Required, valid.
	Spec *workloadspec.Spec

	// Contenders are the entrants; empty selects the default field:
	// fcfs, sjf, edf, prio-sjf, prio-edf, des, and des@prio-sjf.
	Contenders []Contender

	// Baseline is the dominance reference, by contender name; it must be
	// (or is added to) the entrant list. Default "fcfs".
	Baseline string

	// Seeds are the workload seeds of the grid; every contender runs every
	// seed. Default 1, 2, 3.
	Seeds []uint64

	// Cores and Budget override the paper server (16 cores, 320 W) when
	// positive.
	Cores  int
	Budget float64

	// Admission optionally sheds load in front of every cell's scheduler
	// queue — the same stage for every contender and seed, so verdicts
	// compare scheduling under identical shedding. Zero disables.
	Admission admission.Config

	// LivenessScale multiplies every class rate for the no-starvation
	// pass, keeping it well below saturation (transient Poisson bursts
	// near saturation legitimately starve long jobs under SJF-family
	// disciplines). Default 0.3; set negative to skip the pass.
	LivenessScale float64
}

func (c *TournamentConfig) withDefaults() error {
	if c.Spec == nil {
		return cfgerr.New("experiments", "tournament.spec", "experiments: tournament needs a workload spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if len(c.Contenders) == 0 {
		for _, s := range []string{"fcfs", "sjf", "edf", "prio-sjf", "prio-edf", "des", "des@prio-sjf"} {
			ct, _ := ParseContender(s)
			c.Contenders = append(c.Contenders, ct)
		}
	}
	if c.Baseline == "" {
		c.Baseline = "fcfs"
	}
	found := false
	for _, ct := range c.Contenders {
		if ct.Name() == c.Baseline {
			found = true
			break
		}
	}
	if !found {
		ct, err := ParseContender(c.Baseline)
		if err != nil {
			return err
		}
		c.Contenders = append([]Contender{ct}, c.Contenders...)
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2, 3}
	}
	if c.LivenessScale == 0 {
		c.LivenessScale = 0.3
	}
	return nil
}

// ClassMetric is one class's slice of a tournament cell or summary.
type ClassMetric struct {
	Class       string  `json:"class"`
	NormQuality float64 `json:"norm_quality"`
	// MeanWait is the mean response time of the class's completed jobs,
	// seconds (0 when none completed).
	MeanWait float64 `json:"mean_wait_s"`
	// MeanSlowdown is the mean of latency / deadline-window over the
	// class's completed jobs (0 when none completed).
	MeanSlowdown float64 `json:"mean_slowdown"`
	Arrived      int     `json:"arrived"`
	Completed    int     `json:"completed"`
	Deadlined    int     `json:"deadlined"`
	Shed         int     `json:"shed"`
}

// Cell is one (contender, seed) run of the grid.
type Cell struct {
	Contender   string        `json:"contender"`
	Seed        uint64        `json:"seed"`
	NormQuality float64       `json:"norm_quality"`
	Energy      float64       `json:"energy_j"`
	Completed   int           `json:"completed"`
	Deadlined   int           `json:"deadlined"`
	Shed        int           `json:"shed"`
	Classes     []ClassMetric `json:"classes,omitempty"`
}

// Summary is one contender's mean across seeds.
type Summary struct {
	Contender   string        `json:"contender"`
	NormQuality float64       `json:"norm_quality"`
	Energy      float64       `json:"energy_j"`
	Classes     []ClassMetric `json:"classes,omitempty"`
}

// Dominance is one per-class challenger-vs-baseline verdict: the
// challenger dominates when it is at least as good on every seed and
// strictly better on at least one (H1's SJF-dominance shape, applied
// per class).
type Dominance struct {
	Challenger string `json:"challenger"`
	Class      string `json:"class"`
	// Metric is "norm_quality" (higher is better) or "mean_wait_s"
	// (lower is better).
	Metric     string  `json:"metric"`
	Baseline   float64 `json:"baseline_mean"`
	Value      float64 `json:"challenger_mean"`
	Dominates  bool    `json:"dominates"`
	StrictWins int     `json:"strict_wins"` // seeds where the challenger is strictly better
}

// Liveness is one contender's no-starvation verdict on the rate-scaled
// (below-saturation) workload.
type Liveness struct {
	Contender  string  `json:"contender"`
	RateScale  float64 `json:"rate_scale"`
	Starvation int     `json:"starvation_violations"`
	Passed     bool    `json:"passed"`
}

// Report is a completed tournament.
type Report struct {
	Spec      string      `json:"spec"`
	Baseline  string      `json:"baseline"`
	Seeds     []uint64    `json:"seeds"`
	Cells     []Cell      `json:"cells"`
	Summaries []Summary   `json:"summaries"`
	Dominance []Dominance `json:"dominance"`
	Liveness  []Liveness  `json:"liveness,omitempty"`
}

// RunTournament races every contender over every seed of the workload,
// computes per-class means, checks per-class dominance against the
// baseline, and runs the no-starvation invariant on a rate-scaled copy
// of the spec. Fully deterministic: the grid is evaluated sequentially
// in declaration order.
func RunTournament(cfg TournamentConfig) (*Report, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	rep := &Report{
		Spec:     cfg.Spec.Name,
		Baseline: cfg.Baseline,
		Seeds:    cfg.Seeds,
	}

	// Grid: contender-major, seed-minor.
	perContender := make(map[string][]Cell, len(cfg.Contenders))
	for _, ct := range cfg.Contenders {
		for _, seed := range cfg.Seeds {
			res, err := runTournamentCell(cfg, ct, seed, 1.0, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: tournament %s seed %d: %w", ct.Name(), seed, err)
			}
			cell := Cell{
				Contender:   ct.Name(),
				Seed:        seed,
				NormQuality: res.NormQuality,
				Energy:      res.Energy,
				Completed:   res.Completed,
				Deadlined:   res.Deadlined,
				Shed:        res.Shed,
				Classes:     classMetrics(res),
			}
			rep.Cells = append(rep.Cells, cell)
			perContender[ct.Name()] = append(perContender[ct.Name()], cell)
		}
	}

	for _, ct := range cfg.Contenders {
		rep.Summaries = append(rep.Summaries, summarize(ct.Name(), perContender[ct.Name()]))
	}

	base := perContender[cfg.Baseline]
	for _, ct := range cfg.Contenders {
		if ct.Name() == cfg.Baseline {
			continue
		}
		rep.Dominance = append(rep.Dominance, dominanceRows(ct.Name(), perContender[ct.Name()], base)...)
	}

	if cfg.LivenessScale > 0 {
		for _, ct := range cfg.Contenders {
			var checker *invariants.Checker
			_, err := runTournamentCell(cfg, ct, cfg.Seeds[0], cfg.LivenessScale, &checker)
			if err != nil {
				return nil, fmt.Errorf("experiments: liveness %s: %w", ct.Name(), err)
			}
			n := checker.Count(invariants.Starvation)
			rep.Liveness = append(rep.Liveness, Liveness{
				Contender:  ct.Name(),
				RateScale:  cfg.LivenessScale,
				Starvation: n,
				Passed:     n == 0,
			})
		}
	}
	return rep, nil
}

// runTournamentCell simulates one contender on one seed. rateScale
// multiplies every class rate (liveness runs race a lighter copy);
// attach, when non-nil, receives an invariants checker with the
// no-starvation check armed.
func runTournamentCell(tc TournamentConfig, ct Contender, seed uint64, rateScale float64, attach **invariants.Checker) (sim.Result, error) {
	spec := *tc.Spec
	spec.Seed = seed
	if rateScale != 1.0 {
		spec.Classes = append([]workloadspec.ClassSpec(nil), spec.Classes...)
		for i := range spec.Classes {
			spec.Classes[i].Rate *= rateScale
			if len(spec.Classes[i].Periods) > 0 {
				spec.Classes[i].Periods = append([]workloadspec.PeriodSpec(nil), spec.Classes[i].Periods...)
				for j := range spec.Classes[i].Periods {
					spec.Classes[i].Periods[j].Rate *= rateScale
				}
			}
		}
	}

	ps, err := cluster.ParsePolicy(ct.Policy)
	if err != nil {
		return sim.Result{}, err
	}
	order, err := sim.ParseQueueOrder(ct.Order)
	if err != nil {
		return sim.Result{}, err
	}

	cfg := sim.PaperConfig()
	if tc.Cores > 0 {
		cfg.Cores = tc.Cores
	}
	if tc.Budget > 0 {
		cfg.Budget = tc.Budget
	}
	if ps.Configure != nil {
		ps.Configure(&cfg)
	}
	cfg.QueueOrder = order
	cfg.Admission = tc.Admission
	cfg.ClassPriority = spec.PriorityByClass()
	if cfg.ClassQuality, err = spec.QualityByClass(); err != nil {
		return sim.Result{}, err
	}
	cfg.CollectJobs = true

	var checker *invariants.Checker
	if attach != nil {
		checker = invariants.Attach(&cfg, invariants.Config{CheckStarvation: true})
		*attach = checker
	}

	jobs, err := workloadspec.Compile(&spec)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(cfg, jobs, ps.New())
}

// classMetrics folds a run's per-class results and per-job outcomes into
// ClassMetric rows, sorted by class name.
func classMetrics(res sim.Result) []ClassMetric {
	if len(res.Classes) == 0 {
		return nil
	}
	type acc struct {
		wait, slow float64
		n          int
	}
	waits := map[string]*acc{}
	for _, o := range res.Jobs {
		if o.Reason != sim.Completed {
			continue
		}
		a := waits[o.Class]
		if a == nil {
			a = &acc{}
			waits[o.Class] = a
		}
		a.wait += o.Latency()
		if w := o.Deadline - o.Release; w > 0 {
			a.slow += o.Latency() / w
		}
		a.n++
	}
	out := make([]ClassMetric, 0, len(res.Classes))
	for _, cr := range res.Classes {
		m := ClassMetric{
			Class:       cr.Class,
			NormQuality: cr.NormQuality,
			Arrived:     cr.Arrived,
			Completed:   cr.Completed,
			Deadlined:   cr.Deadlined,
			Shed:        cr.Shed,
		}
		if a := waits[cr.Class]; a != nil && a.n > 0 {
			m.MeanWait = a.wait / float64(a.n)
			m.MeanSlowdown = a.slow / float64(a.n)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Class < out[b].Class })
	return out
}

// summarize means one contender's cells across seeds.
func summarize(name string, cells []Cell) Summary {
	s := Summary{Contender: name}
	if len(cells) == 0 {
		return s
	}
	classes := map[string]*ClassMetric{}
	var order []string
	for _, c := range cells {
		s.NormQuality += c.NormQuality
		s.Energy += c.Energy
		for _, cm := range c.Classes {
			dst := classes[cm.Class]
			if dst == nil {
				dst = &ClassMetric{Class: cm.Class}
				classes[cm.Class] = dst
				order = append(order, cm.Class)
			}
			dst.NormQuality += cm.NormQuality
			dst.MeanWait += cm.MeanWait
			dst.MeanSlowdown += cm.MeanSlowdown
			dst.Arrived += cm.Arrived
			dst.Completed += cm.Completed
			dst.Deadlined += cm.Deadlined
			dst.Shed += cm.Shed
		}
	}
	n := float64(len(cells))
	s.NormQuality /= n
	s.Energy /= n
	sort.Strings(order)
	for _, name := range order {
		cm := classes[name]
		cm.NormQuality /= n
		cm.MeanWait /= n
		cm.MeanSlowdown /= n
		s.Classes = append(s.Classes, *cm)
	}
	return s
}

// dominanceRows computes the per-class dominance verdicts of one
// challenger against the baseline, on norm quality (higher is better)
// and mean wait (lower is better). Cells must be in matching seed order.
func dominanceRows(name string, chal, base []Cell) []Dominance {
	classes := map[string]bool{}
	for _, c := range chal {
		for _, cm := range c.Classes {
			classes[cm.Class] = true
		}
	}
	var names []string
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)

	classOf := func(c Cell, class string) (ClassMetric, bool) {
		for _, cm := range c.Classes {
			if cm.Class == class {
				return cm, true
			}
		}
		return ClassMetric{}, false
	}

	var out []Dominance
	for _, class := range names {
		for _, metric := range []string{"norm_quality", "mean_wait_s"} {
			d := Dominance{Challenger: name, Class: class, Metric: metric, Dominates: true}
			var bSum, cSum float64
			n := 0
			for i := range chal {
				cm, ok1 := classOf(chal[i], class)
				bm, ok2 := classOf(base[i], class)
				if !ok1 || !ok2 {
					d.Dominates = false
					continue
				}
				var cv, bv float64
				better, strictly := false, false
				switch metric {
				case "norm_quality":
					cv, bv = cm.NormQuality, bm.NormQuality
					better, strictly = cv >= bv, cv > bv
				case "mean_wait_s":
					cv, bv = cm.MeanWait, bm.MeanWait
					// A class with no completions has no wait to compare.
					if cm.Completed == 0 || bm.Completed == 0 {
						d.Dominates = false
						continue
					}
					better, strictly = cv <= bv, cv < bv
				}
				cSum += cv
				bSum += bv
				n++
				if !better {
					d.Dominates = false
				}
				if strictly {
					d.StrictWins++
				}
			}
			if n > 0 {
				d.Value = cSum / float64(n)
				d.Baseline = bSum / float64(n)
			}
			if d.StrictWins == 0 {
				d.Dominates = false
			}
			out = append(out, d)
		}
	}
	return out
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMarkdown renders the FINDINGS-style report: grid summary,
// per-class means, the dominance table, the liveness table, and a
// findings list naming every challenger that dominates the baseline on
// a class quality metric.
func (r *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	name := r.Spec
	if name == "" {
		name = "(unnamed workload)"
	}
	fmt.Fprintf(&b, "# Policy tournament: %s\n\n", name)
	fmt.Fprintf(&b, "Baseline `%s`, %d seeds %v, %d contenders.\n\n", r.Baseline, len(r.Seeds), r.Seeds, len(r.Summaries))

	b.WriteString("## Summary (mean across seeds)\n\n")
	b.WriteString("| contender | norm quality | energy (J) |\n|---|---|---|\n")
	for _, s := range r.Summaries {
		fmt.Fprintf(&b, "| %s | %.4f | %.1f |\n", s.Contender, s.NormQuality, s.Energy)
	}
	b.WriteString("\n")

	hasClasses := false
	for _, s := range r.Summaries {
		if len(s.Classes) > 0 {
			hasClasses = true
			break
		}
	}
	if hasClasses {
		b.WriteString("## Per-class results (mean across seeds)\n\n")
		b.WriteString("| contender | class | norm quality | mean wait (ms) | mean slowdown | completed | deadlined | shed |\n|---|---|---|---|---|---|---|---|\n")
		for _, s := range r.Summaries {
			for _, cm := range s.Classes {
				fmt.Fprintf(&b, "| %s | %s | %.4f | %.2f | %.3f | %d | %d | %d |\n",
					s.Contender, cm.Class, cm.NormQuality, cm.MeanWait*1000, cm.MeanSlowdown,
					cm.Completed, cm.Deadlined, cm.Shed)
			}
		}
		b.WriteString("\n")
	}

	if len(r.Dominance) > 0 {
		fmt.Fprintf(&b, "## Dominance vs `%s`\n\n", r.Baseline)
		b.WriteString("| challenger | class | metric | baseline | challenger | dominates |\n|---|---|---|---|---|---|\n")
		for _, d := range r.Dominance {
			verdict := "no"
			if d.Dominates {
				verdict = "**yes**"
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %.4f | %.4f | %s |\n",
				d.Challenger, d.Class, d.Metric, d.Baseline, d.Value, verdict)
		}
		b.WriteString("\n")
	}

	if len(r.Liveness) > 0 {
		fmt.Fprintf(&b, "## Liveness (no-starvation, rates ×%.2f)\n\n", r.Liveness[0].RateScale)
		b.WriteString("| contender | starvation violations | pass |\n|---|---|---|\n")
		for _, l := range r.Liveness {
			verdict := "**FAIL**"
			if l.Passed {
				verdict = "pass"
			}
			fmt.Fprintf(&b, "| %s | %d | %s |\n", l.Contender, l.Starvation, verdict)
		}
		b.WriteString("\n")
	}

	b.WriteString("## Findings\n\n")
	wrote := false
	for _, d := range r.Dominance {
		if d.Dominates && d.Metric == "norm_quality" {
			fmt.Fprintf(&b, "- `%s` dominates `%s` on class %q quality: %.4f vs %.4f on every seed (strict on %d).\n",
				d.Challenger, r.Baseline, d.Class, d.Value, d.Baseline, d.StrictWins)
			wrote = true
		}
	}
	for _, l := range r.Liveness {
		if !l.Passed {
			fmt.Fprintf(&b, "- `%s` starved %d job(s) below saturation — investigate before deploying.\n", l.Contender, l.Starvation)
			wrote = true
		}
	}
	if !wrote {
		b.WriteString("- No challenger dominates the baseline on a class quality metric; all contenders pass liveness.\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
