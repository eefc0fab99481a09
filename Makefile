# Convenience targets for the DES scheduler reproduction.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test test-race bench verify chaos chaos-soak report fuzz cover fmt vet clean trace-view examples workload-smoke tournament-smoke ledger-smoke docs-lint

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Miniature reproduction of every figure as Go benchmarks, the
# micro-benchmarks, and the fleet and tracing-overhead gates of the root
# bench_test.go (which fail past their ceilings; CI runs them alone, since
# their peak-RSS reading covers the whole process). Performance claims
# come from the benchmark in bench/ (bench/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# CI gate: every §V claim of the paper must hold.
verify:
	$(GO) run ./cmd/desim verify -duration 40

# Seeded fault-injection soak: core outages, a budget drop, and an arrival
# burst with quality-aware shedding; deterministic per seed.
chaos:
	$(GO) run ./cmd/desim chaos -seed 1 -duration 20 -cores 8 -budget 160 -rate 60 \
		-admission quality-aware -max-queue 64

# Invariant-armed chaos soak: seeded fault schedules with exponential
# repair, retries, and budget drops run under the full DES policy with
# every runtime invariant checked (race detector on); any violation fails.
# The second line soaks the recovery stack end to end through the CLI.
chaos-soak:
	$(GO) test -race -count=1 -run TestChaosSoakInvariants ./internal/invariants/
	$(GO) run ./cmd/desim chaos -seed 1 -duration 20 -cores 8 -budget 160 -rate 60 \
		-mttr 0.5 -retry-max 3 -retry-backoff 0.05 -admission quality-aware -max-queue 64

# Full markdown reproduction report (takes a few minutes).
report:
	$(GO) run ./cmd/despaper -duration 120 -out results/report.md

# Override FUZZTIME for a quick smoke run: make fuzz FUZZTIME=5s
fuzz:
	$(GO) test -fuzz=FuzzWaterLevel -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -fuzz=FuzzBisect -fuzztime=$(FUZZTIME) ./internal/stats
	$(GO) test -fuzz=FuzzDynamicPower -fuzztime=$(FUZZTIME) ./internal/power
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -fuzz=FuzzDecodeStreamSnapshot -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzLoadJobs -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -fuzz=FuzzWriteSSE -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/workloadspec

# Run a short chaotic simulation and export it as a Perfetto trace.
# Open results/trace.json in https://ui.perfetto.dev to browse per-core
# job lanes (speed-annotated) with fault windows overlaid.
trace-view:
	@mkdir -p results
	$(GO) run ./cmd/desim sim -rate 60 -duration 5 -cores 8 -budget 160 \
		-chaos-seed 1 -perfetto results/trace.json -telemetry results/metrics.prom
	@echo "open https://ui.perfetto.dev and load results/trace.json"

# Build and run every examples/ program end to end (data-only example
# directories, like examples/workloads, hold no main package and are
# exercised by workload-smoke instead).
examples:
	@for d in examples/*/; do \
		[ -f $$d/main.go ] || continue; \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# Validate the shipped workload specs and round-trip a compiled stream
# through the v2 trace format — the CLI face of the workloadspec tests.
workload-smoke:
	$(GO) run ./cmd/desim workload -validate examples/workloads/*.json
	$(GO) run ./cmd/desim workload -generate -duration 10 \
		-out /tmp/dessched-smoke-trace.csv examples/workloads/bimodal.json
	$(GO) run ./cmd/desim workload -validate /tmp/dessched-smoke-trace.csv
	$(GO) run ./cmd/desim sim -workload /tmp/dessched-smoke-trace.csv \
		-cores 4 -budget 80 >/dev/null

# Policy-tournament smoke: race a tiny grid (2 contenders × 2 seeds) on the
# shipped bimodal spec and assert the report materializes with a parsable
# dominance table showing the priority hybrid's interactive-class verdict.
tournament-smoke:
	$(GO) run ./cmd/desim tournament -workload examples/workloads/bimodal.json \
		-policies fcfs,prio-sjf -seeds 1,2 -liveness-scale -1 \
		-out /tmp/dessched-tournament.md -json /tmp/dessched-tournament.json
	grep -q '^## Dominance' /tmp/dessched-tournament.md
	grep -Eq '^\| prio-sjf \| interactive \| norm_quality \| [0-9.]+ \| [0-9.]+ \| ' \
		/tmp/dessched-tournament.md
	grep -q '"dominance"' /tmp/dessched-tournament.json

# Run-ledger round trip through the CLI: two recorded runs, list/show/
# diff over them, and a diff that must call out the seed change — the
# provenance workflow docs/OBSERVABILITY.md documents, end to end.
ledger-smoke:
	rm -f /tmp/dessched-ledger.jsonl
	$(GO) run ./cmd/desim sim -policy des -rate 30 -duration 5 -seed 1 \
		-ledger /tmp/dessched-ledger.jsonl >/dev/null
	$(GO) run ./cmd/desim sim -policy des -rate 30 -duration 5 -seed 2 \
		-ledger /tmp/dessched-ledger.jsonl >/dev/null
	$(GO) run ./cmd/desim ledger list -in /tmp/dessched-ledger.jsonl
	$(GO) run ./cmd/desim ledger show -in /tmp/dessched-ledger.jsonl -- -1 \
		| grep -q '"schema": "dessched-run/v1"'
	$(GO) run ./cmd/desim ledger diff -in /tmp/dessched-ledger.jsonl 0 1 \
		| grep -q 'seed: 1 → 2'

# Every exported identifier in the streaming-facing packages must carry a
# doc comment — godoc is part of the documented API surface (docs/SCALE.md
# links into it). Extend DOCS_LINT_PKGS as more packages graduate.
DOCS_LINT_PKGS ?= internal/cluster internal/workloadspec internal/registry \
	internal/telemetry/span internal/telemetry/flightrec internal/telemetry/ledger internal/runlog \
	internal/sim internal/admission internal/names
docs-lint:
	@fail=0; \
	for f in $(foreach p,$(DOCS_LINT_PKGS),$(p)/*.go); do \
		case $$f in *_test.go) continue;; esac; \
		awk -v F=$$f 'prev !~ /^\/\// && (/^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^(type|const|var) [A-Z]/) \
			{print F":"FNR": undocumented export: "$$0; bad=1} {prev=$$0} END {exit bad}' $$f || fail=1; \
	done; \
	if [ $$fail -ne 0 ]; then echo "docs-lint: add doc comments to the exports above"; exit 1; fi; \
	echo "docs-lint: ok"

cover:
	$(GO) test -short -cover ./...

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f results/report.md
