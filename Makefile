# Convenience wrappers around dune; see TESTING.md for the test layers.

.PHONY: all test check chaos report autotune serve serve-smoke serve-chaos top trace-smoke ooc ooc-crash verify-slow ab clean

all:
	dune build @all

# Tier-1: the full fast test suite.
test:
	dune build && dune runtest

# Tier-1 plus the seeded schedule-explorer pass over a numeric DTD Cholesky.
check: test
	dune exec test/explorer_pass.exe

# Seeded chaos runs: fault-injected factorizations that must recover to a
# bitwise-identical result (same seed matrix as the CI chaos-smoke job).
chaos:
	for seed in 1 2 3; do \
	  dune exec bin/geomix.exe -- chaos --seed $$seed --nt 6 --nb 16 --rate 0.2 || exit 1; \
	  dune exec bin/geomix.exe -- chaos --seed $$seed --nt 6 --nb 16 --rate 0.1 --pivot-rate 1.0 || exit 1; \
	  dune exec bin/geomix.exe -- chaos --seed $$seed --nt 6 --nb 16 --rate 0.3 --sdc || exit 1; \
	done

# Instrumented smoke run rendered as a Markdown run report (the CI
# report-smoke artifact): telemetry bus + critical-path profile + motion
# table for an NT=8 factorization.
report:
	dune exec bin/geomix.exe -- report --smoke --out geomix-report.md
	@echo "wrote geomix-report.md"

# Range-driven precision autotuning smoke (the CI autotune-smoke job):
# pilot-instrument an NT=8 factorization, advise FP8 transfer formats from
# the measured ranges, and sweep the accuracy-vs-motion Pareto frontier.
# Exits nonzero unless every advised map meets its accuracy bound and some
# point ships FP8 with strictly fewer STC bytes than the norm rule.
autotune:
	dune exec bin/geomix.exe -- autotune --smoke --out geomix-frontier.md \
	  --json geomix-frontier.json
	@echo "wrote geomix-frontier.md and geomix-frontier.json"

# Long-lived model service on a Unix-domain socket (ROADMAP item 2):
# likelihood / prediction / Monte-Carlo batches over a shared domain pool
# with a shape-keyed artifact cache.  Ctrl-C (or a shutdown request) stops
# it.
serve:
	dune exec bin/geomix.exe -- serve

# Service load smoke (the CI serve-smoke job): an in-process server plus
# 8 concurrent socket clients driving >= 200 requests, gated on p50/p99
# latency and the cache hit rate against the committed baseline.
serve-smoke:
	dune exec bench/b_serve.exe -- --smoke --json BENCH_serve.json \
	  --compare bench/BENCH_baseline.json
	@echo "wrote BENCH_serve.json"

# Chaos-under-load smoke (the CI serve-chaos-smoke job): 8 clients hammer
# the server while a seeded fault plan injects transient faults, forced
# pivot failures and silent data corruption into every factorization.
# Exits nonzero on any crash, any unaccounted failure, any corrupt escape
# (a Clean/Corrupt_recovered reply that is not bitwise-identical to the
# fault-free reference), or zero injections (a disarmed plan).
serve-chaos:
	for seed in 1 2 3; do \
	  dune exec bench/b_serve.exe -- --chaos --chaos-seed $$seed \
	    --json BENCH_serve_chaos_$$seed.json || exit 1; \
	done

# Live operator view of a running `make serve`: polls the server's stats
# and health requests, rendering inflight/queue depth, latency quantiles,
# cache hit rate, breaker state and bytes/s by transfer precision.
top:
	dune exec bin/geomix.exe -- top

# Traced serve smoke (the CI trace-smoke job): every request carries a
# span; gates that the summed per-request footer bytes equal the
# registry's aggregate RAW-edge accounting bitwise, that the Prometheus
# exposition (both the stats request and the scrape listener) lints and
# round-trips, and that tracing overhead stays within 5% of untraced
# latency.  Leaves the scrape and rolling telemetry JSONL as artifacts.
trace-smoke:
	dune exec bench/b_serve.exe -- --smoke --trace \
	  --scrape-out geomix-scrape.prom --telemetry-out geomix-telemetry.jsonl \
	  --json BENCH_serve_trace.json --compare bench/BENCH_baseline.json
	dune exec test/check_prom.exe -- geomix-scrape.prom
	@echo "wrote BENCH_serve_trace.json, geomix-scrape.prom, geomix-telemetry.jsonl"

# Out-of-core bench gate (the CI ooc-crash-smoke job's first leg): one
# deterministic factorization under a 4-tile residency window, gating
# spill bytes (strictly below FP64-equivalent accounting), the re-read
# fraction of the farthest-next-use eviction order, and mid-run
# crash-resume exactness against the committed baseline.
ooc:
	dune exec bench/b_ooc.exe -- --json BENCH_ooc.json \
	  --compare bench/BENCH_baseline.json
	@echo "wrote BENCH_ooc.json"

# Kill-recovery matrix over the crash-consistent tile store: forked
# children SIGKILL themselves at seeded durable disk transitions
# (mid-spill, mid-manifest), each orphaned store is recovered, and every
# resumed factorization must be bitwise identical to the uninterrupted
# run.  The on-disk bit-rot leg then flips one committed byte and
# requires the checksum quarantine + typed recovery to restore exactness.
ooc-crash:
	for seed in 1 2 3; do \
	  dune exec bin/geomix.exe -- ooc --seed $$seed --kill-matrix \
	    --dir /tmp/geomix-ooc-km-$$seed || exit 1; \
	  dune exec bin/geomix.exe -- ooc --seed $$seed --rot \
	    --dir /tmp/geomix-ooc-rot-$$seed || exit 1; \
	done

# Exhaustive schedule enumeration — minutes-scale, out of tier-1.
verify-slow:
	dune build @verify-slow

# Interleaved A/B of two committed revisions on the measured benchmark
# (benchmark/ab.sh): PAIRS back-to-back run pairs, alternating which side
# goes first, then one verdict per workload and end-to-end metric.
PARENT ?= HEAD~1
CHANGE ?= HEAD
PAIRS ?= 10

ab:
	benchmark/ab.sh $(PARENT) $(CHANGE) $(PAIRS)

clean:
	dune clean
