GO ?= go

.PHONY: build vet test race bench bench-snapshot bench-ci check fuzz cover obs-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full suite under the race detector — guards the Profile read-safety
# contract and the parallel experiment harness.
race:
	$(GO) test -race ./...

# Control-plane micro-benchmarks via `go test` (human-readable).
bench:
	$(GO) test -run=NONE -bench='PlanLatency|ControlRoundTick|StepTimeEstimate|ProfileLookup|Simulation' -benchmem .

# Machine-readable snapshot of the same micro-benchmarks, written to
# BENCH_planner.json ({bench, ns_op, allocs_op} records). Commit the
# refreshed snapshot alongside planner/cost-model changes.
bench-snapshot:
	$(GO) run ./cmd/tetribench -o BENCH_planner.json

# Regression gate: re-run the micro-benchmarks and diff against the
# committed snapshot. Fails on >20% ns/op growth or any allocs/op increase
# on any benchmark. Benchmarks are noisy on shared runners, so CI runs
# this as a non-blocking job — treat a red bench-ci as a prompt to re-run
# locally, not as ground truth.
bench-ci:
	$(GO) run ./cmd/tetribench -o /tmp/bench_candidate.json
	$(GO) run ./scripts/benchdiff BENCH_planner.json /tmp/bench_candidate.json

# Short randomized sweep of the fuzz targets (the committed seed corpora
# under internal/invariant/testdata/fuzz and internal/lifecycle/testdata/fuzz
# replay in the plain test run; this explores beyond them). FUZZTIME tunes the per-target budget.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzPlanRound$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzControlLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzElasticControlLoop$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzWarmStart$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/invariant -run '^$$' -fuzz '^FuzzCacheAwarePlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lifecycle -run '^$$' -fuzz '^FuzzTimelineJSON$$' -fuzztime $(FUZZTIME)

# End-to-end smoke test of the telemetry plane against a real daemon:
# scrape /metrics, read /v1/rounds, follow the live trace, run tetrictl top.
obs-smoke:
	bash scripts/obs_smoke.sh

# Aggregate coverage profile across every package.
cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=./... ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Everything a PR must pass: compile, vet, full suite, race detector.
check: build vet test race
