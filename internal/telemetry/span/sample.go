package span

import "dessched/internal/hashing"

// Deterministic span sampling. A sampling tracer keeps a seeded,
// per-name-counter slice of the spans it is offered: the keep/drop
// decision for the n-th span named N depends only on (seed, N, n), never
// on wall clock or memory addresses, so the sampled trace is bit-identical
// run to run — and, because per-server tracers derive their seed from the
// server index (see Child) and are folded in index order by Adopt, across
// any cluster Workers count too.
//
// Sampling is what makes spans affordable on the streamed 10M-job path:
// the sampled-out fast path is allocation-free (one hash, one compare),
// and the retained span count is bounded by rate × events rather than by
// the run length.

// SampleConfig selects which spans a sampling tracer keeps.
//
// Rate is the default keep probability for any span name without an
// entry in Rates; 0 means 1.0 (keep everything), so the zero config
// samples nothing out. Rates pins per-name probabilities — the
// "kind-based" half of the sampler: hot instants like "replan" get a
// small rate while rare, precious names ("fault-edge") and structural
// spans ("server", "epoch") ride the default of 1.
type SampleConfig struct {
	Seed  uint64
	Rate  float64
	Rates map[string]float64
}

// sampleRule is the per-name sampling state: a precomputed name hash and
// keep threshold plus the monotone counter that makes decisions depend
// only on how many spans of this name came before.
type sampleRule struct {
	name    string
	hash    uint64
	rate    float64
	counter uint64
}

type sampler struct {
	seed        uint64
	defaultRate float64
	rules       []sampleRule
}

// NewSampling returns a sampling tracer bounded at DefaultMaxSpans.
func NewSampling(cfg SampleConfig) *Tracer { return NewSamplingLimited(cfg, DefaultMaxSpans) }

// NewSamplingLimited returns a sampling tracer that records at most
// maxSpans kept spans (non-positive takes the default). Spans rejected by
// the sampler are counted by SampledOut, not Dropped.
func NewSamplingLimited(cfg SampleConfig, maxSpans int) *Tracer {
	t := NewLimited(maxSpans)
	rate := cfg.Rate
	if rate <= 0 {
		rate = 1
	}
	s := &sampler{seed: cfg.Seed, defaultRate: rate}
	// Materialize the configured rules in sorted-stable order so two
	// tracers built from equal configs behave identically regardless of
	// map iteration order (the lazy default-rate rules below are appended
	// in first-seen order, which the engine's determinism fixes).
	names := make([]string, 0, len(cfg.Rates))
	for name := range cfg.Rates {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		s.rules = append(s.rules, sampleRule{name: name, hash: nameHash(name), rate: cfg.Rates[name]})
	}
	t.sampler = s
	return t
}

// sortStrings is an allocation-light insertion sort — rule sets are tiny
// and this keeps the package free of a sort import on the hot path's
// behalf.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Sampled reports whether the tracer samples spans (false for nil and
// full tracers) — the property the streamed cluster pipeline checks
// before accepting a tracer, since only a sampling tracer's memory is
// decoupled from the run length.
func (t *Tracer) Sampled() bool { return t != nil && t.sampler != nil }

// SampledOut returns how many Start calls the sampler declined (0 for
// nil and non-sampling tracers). Distinct from Dropped, which counts
// spans lost to the hard span limit.
func (t *Tracer) SampledOut() int {
	if t == nil {
		return 0
	}
	return t.sampledOut
}

// Child derives the per-server tracer for server index: same rules and
// limit, seed mixed with the index so servers sample independently yet
// deterministically. Built for the cluster's indexed-slot pattern — each
// engine traces into its own Child and the results are grafted back with
// Adopt in index order. Nil-safe; a non-sampling tracer derives a plain
// tracer with the same limit.
func (t *Tracer) Child(index int) *Tracer {
	if t == nil {
		return nil
	}
	if t.sampler == nil {
		return NewLimited(t.limit)
	}
	cfg := SampleConfig{
		Seed: hashing.SplitMix64(t.sampler.seed ^ (uint64(index)+1)*0x9E3779B97F4A7C15),
		Rate: t.sampler.defaultRate,
	}
	c := NewSamplingLimited(cfg, t.limit)
	// Copy the configured rules directly (already sorted) so the child
	// needs no map round-trip.
	c.sampler.rules = append([]sampleRule(nil), t.sampler.rules...)
	for i := range c.sampler.rules {
		c.sampler.rules[i].counter = 0
	}
	return c
}

// keep decides the fate of one span named name, advancing the per-name
// counter. Names with rate >= 1 never hash.
func (s *sampler) keep(name string) bool {
	r := s.rule(name)
	if r.rate >= 1 {
		return true
	}
	n := r.counter
	r.counter++
	if r.rate <= 0 {
		return false
	}
	x := hashing.SplitMix64(s.seed ^ r.hash ^ (n+1)*0x9E3779B97F4A7C15)
	// 53 uniform bits → [0,1); strict < keeps rate-0 exact and rate-1
	// (handled above) total.
	return float64(x>>11)*(1.0/(1<<53)) < r.rate
}

// rule finds (or, for default-rate names, lazily creates) the sampling
// rule for name. Linear scan: rule sets are a handful of entries and the
// hot names hit the front after first use.
func (s *sampler) rule(name string) *sampleRule {
	for i := range s.rules {
		if s.rules[i].name == name {
			return &s.rules[i]
		}
	}
	s.rules = append(s.rules, sampleRule{name: name, hash: nameHash(name), rate: s.defaultRate})
	return &s.rules[len(s.rules)-1]
}

// nameHash is FNV-1a over the name bytes.
func nameHash(name string) uint64 {
	f := hashing.New()
	f.Bytes([]byte(name))
	return f.Sum()
}
