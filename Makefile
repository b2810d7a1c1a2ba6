GO ?= go

.PHONY: build test verify bench microbench quick paper-golden obs-smoke obs-bench serve-smoke chaos-smoke fleet-smoke load-smoke hypo-smoke sweep-smoke sweep-fleet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: compile, formatting (gofmt -l must list nothing), vet,
# the whole test suite under the race detector (the parallel experiment
# engine's concurrency contract) —
# stall-attribution conservation tests included — the observability
# smoke run (capture a trace, validate the emitted JSON), and the
# gpusimd daemon smoke run (boot, serve a job over HTTP, stream its
# events, verify request-ID + Prometheus telemetry, drain cleanly on
# SIGTERM), the fleet gates: the seeded chaos matrix under -race
# and the gpusimrouter three-instance selftest with a mid-run kill,
# and the workload-spec load smoke (per-SLO-class histograms present
# and nonzero), and the hypothesis smoke (pinned verdicts, byte-equal
# reports across -j, the Refuted gate biting), and the saturation
# smoke (climb the tiny ladder against a loopback daemon, require the
# knee and the BENCH saturation section), and the paper golden (every
# table and figure at paper scale, byte-equal to paperbench_output.txt).
verify:
	$(GO) build ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) obs-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) fleet-smoke
	$(MAKE) load-smoke
	$(MAKE) hypo-smoke
	$(MAKE) sweep-smoke
	$(MAKE) paper-golden

# The benchmark trajectory: run every workload BENCHMARK.json lists
# through perfbench/run.sh (seed 1, run_seconds each, about 3.5 minutes in
# all) and write each result line to the perf section of
# BENCH_<date>.json at the repo root. Diff two points with
# `go run ./cmd/benchreg -compare old.json new.json`: non-zero exit when
# an end-to-end metric worsens beyond its BENCHMARK.json bound.
bench:
	$(GO) run ./cmd/benchreg

# The raw go-test microbenchmarks (the pre-trajectory `bench` target).
microbench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

quick:
	$(GO) run ./cmd/paperbench -quick

# Regenerate every table and figure at paper scale and require stdout to
# match the committed paperbench_output.txt byte for byte (about 50 s on
# 2 vCPUs). A change that moves a figure updates the golden in the same
# diff; the paperbench footer goes to stderr, so it never enters the diff.
paper-golden:
	$(GO) run ./cmd/paperbench > /tmp/paperbench-golden.txt
	diff paperbench_output.txt /tmp/paperbench-golden.txt
	rm -f /tmp/paperbench-golden.txt

# Capture a Chrome trace of one audited regmutex run and schema-check
# the JSON; proves the gpusim -> Perfetto pipeline end to end.
obs-smoke:
	$(GO) run ./cmd/gpusim -w bfs -policy regmutex -scale 8 -sms 1 -audit -trace /tmp/gpusim-smoke.json
	$(GO) run ./cmd/gpusim -validate /tmp/gpusim-smoke.json
	rm -f /tmp/gpusim-smoke.json

# Boot the gpusimd daemon on a loopback port, submit a job over real
# HTTP, stream its SSE events to completion, check the telemetry
# surface (X-Request-Id echo, Prometheus exposition), then SIGTERM-
# drain; proves the simulation-as-a-service path end to end.
serve-smoke:
	$(GO) run ./cmd/gpusimd -selftest

# The seeded chaos matrix under the race detector: a three-instance
# fleet behind deterministic fault-injecting proxies (latency spikes,
# connection resets, 5xx bursts, black-holed streams, a mid-job
# instance kill, a SIGTERM drain) — every batch must come back
# byte-identical to a pristine single-instance run with no job lost or
# double-counted.
chaos-smoke:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestChaosMatrix|TestChaosKillInstanceMidJob|TestDrainReroutesWithoutDroppingInFlight|TestJournalFailoverReplay|TestRouterJournalCrashRestartAppendRestart|TestRouterJournalIDsNotReusedAfterRestart' \
		./internal/cluster/

# Compile a tiny seeded workload spec (two cohorts, two SLO classes)
# and drive it through benchreg's loopback load phase, which requires
# every SLO class to produce jobs with populated, nonzero latency
# histograms — proves the spec -> schedule -> runner pipeline end to
# end.
load-smoke:
	$(GO) run ./cmd/benchreg -spec examples/workloads/load-smoke.yaml -out /tmp/benchreg-load-smoke.json
	rm -f /tmp/benchreg-load-smoke.json

# Run every shipped hypothesis spec twice — at -j 1 and -j 8 — into
# two report trees and require byte-identical FINDINGS/JSON (the
# determinism contract), assert each spec's pinned verdict, and check
# that -gate turns the designed-Refuted negative control (h4) into a
# failing exit.
hypo-smoke:
	rm -rf /tmp/hypo-smoke-j1 /tmp/hypo-smoke-jN
	$(GO) run ./cmd/hypo -j 1 -out /tmp/hypo-smoke-j1 examples/hypotheses
	$(GO) run ./cmd/hypo -j 8 -out /tmp/hypo-smoke-jN examples/hypotheses
	diff -r /tmp/hypo-smoke-j1 /tmp/hypo-smoke-jN
	grep -q '^\*\*Status:\*\* Confirmed$$' /tmp/hypo-smoke-j1/h1-regmutex-pareto/FINDINGS.md
	grep -q '^\*\*Status:\*\* Confirmed$$' /tmp/hypo-smoke-j1/h2-occupancy-cliff/FINDINGS.md
	grep -q '^\*\*Status:\*\* Confirmed$$' /tmp/hypo-smoke-j1/h3-policy-equivalence/FINDINGS.md
	grep -q '^\*\*Status:\*\* Refuted$$' /tmp/hypo-smoke-j1/h4-static-matches-regmutex/FINDINGS.md
	! $(GO) run ./cmd/hypo -gate -out /tmp/hypo-smoke-jN examples/hypotheses
	rm -rf /tmp/hypo-smoke-j1 /tmp/hypo-smoke-jN

# Climb the tiny 3-rung saturation ladder against a fresh loopback
# daemon: live-drive each rung (any failed job aborts), calibrate the
# workload's simulation cost, find the knee in the virtual-time model,
# and require both the knee (benchreg -sweep exits 1 without one) and
# the BENCH saturation section. The knee numbers are byte-deterministic
# — model time, not wall clock — so this gate cannot flake on slow CI.
sweep-smoke:
	$(GO) run ./cmd/benchreg -sweep examples/sweeps/sweep-smoke.yaml -compress 20 -out /tmp/benchreg-sweep-smoke.json
	grep -q '"saturation"' /tmp/benchreg-sweep-smoke.json
	grep -q '"knee_found": true' /tmp/benchreg-sweep-smoke.json
	rm -f /tmp/benchreg-sweep-smoke.json

# The fleet-sized sweep: the same ladder shape through a gpusimrouter
# over three instances, so the knee prices in routing overhead. Not in
# `make verify` (the daemon smoke already gates the analyzer); run it
# when touching the router hot path.
sweep-fleet:
	$(GO) run ./cmd/benchreg -router -sweep examples/sweeps/sweep-fleet.yaml -compress 20 -out /tmp/benchreg-sweep-fleet.json
	grep -q '"router-fleet-3"' /tmp/benchreg-sweep-fleet.json
	rm -f /tmp/benchreg-sweep-fleet.json

# Boot a three-instance gpusimd fleet behind a gpusimrouter on loopback
# ports, submit through the router, kill the instance that served the
# job, resubmit (must fail over with an identical report), then
# SIGTERM-drain the router; proves the resilient-fleet path end to end.
fleet-smoke:
	$(GO) run ./cmd/gpusimrouter -selftest

# Price the observability layer: detached (attribution only) vs the
# full attached collector stack, and the HTTP telemetry middleware
# (request IDs + histograms + discarded access logs) vs a bare handler
# — the ≤2% disabled-path budget guard.
obs-bench:
	$(GO) test -bench='BenchmarkSim(Detached|Attached)' -benchmem -benchtime=3x ./internal/obs/
	$(GO) test -bench='BenchmarkMiddleware(Off|On)' -benchmem ./internal/service/
