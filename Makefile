# Development targets. `make check` is the CI gate: vet + build + race
# tests. The expensive scale tests are guarded with testing.Short(), so
# `go test -short ./...` skips them.
#
# `make bench` records the perf trajectory: the repository benchmark
# (`./benchmark`) over its four workloads at seed 1, untraced (end-to-end
# metrics) and traced (per-layer metrics), every report appended as one
# JSON line to BENCH_$(BENCH_PR).jsonl. Each report records its host
# (nproc, GOMAXPROCS, Go version, CPU, commit). Set BENCH_PR to the PR
# that records the point and commit the file; BENCH_1..6.json are the
# older, historical ledger (EXPERIMENTS.md, "Perf trajectory").

GO ?= go
BENCH_PR ?= 36
COVER_FLOOR ?= 70

.PHONY: check vet build test race loc bench cover-floor live-smoke hunt-smoke harden-smoke obs-smoke clean

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines per package directory (the benchmark program
# excluded): ROADMAP needle 2 read from a command. CI prints it as a log
# step; quote before/after in a PR that claims to shrink the code.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | \
	  awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[2] : "."; if (n > 3) d = d "/" p[3]; loc[d] += $$1; sum += $$1 } \
	       END { for (d in loc) printf "%7d  %s\n", loc[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", sum }'

# Record the perf trajectory (see the header): one untraced and one
# traced report per workload, in a fresh BENCH_$(BENCH_PR).jsonl. The
# program is built, not `go run`, so each report's env names the commit
# it measured; run it on a committed tree.
bench:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/benchmark ./benchmark; \
	rm -f BENCH_$(BENCH_PR).jsonl; \
	for w in paper_sweep scale_static scale_dynamics live_serve; do \
	  for t in 0 1; do \
	    $$tmp/benchmark -workload $$w -seed 1 -trace $$t -out BENCH_$(BENCH_PR).jsonl; \
	  done; \
	done

# Coverage floor for the oracle, the conditioned network, the chaos
# hunter and telemetry (trace records included): the packages whose
# correctness everything else leans on must stay ≥ $(COVER_FLOOR)%
# statement coverage (CI-enforced).
cover-floor:
	@set -e; for pkg in ./internal/verify ./internal/netsim ./internal/hunt ./internal/obs; do \
	  pct=$$($(GO) test -cover $$pkg | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
	  echo "$$pkg coverage: $$pct%"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(p+0 >= f+0) }' || \
	    { echo "$$pkg below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done

# The live smoke targets' one boot prelude, $(call boot_sdlived,<flags>):
# build race-enabled sdlived and sdload into a temporary directory, boot
# sdlived with the flags, and wait for it to publish its address into
# $$addr. The trap reaps the daemon on any exit; reap_sdlived stops it
# and fails on a nonzero exit (a detected race or an oracle violation).
define boot_sdlived
@set -e; tmp=$$(mktemp -d); \
trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
$(GO) build -race -o $$tmp/sdlived ./cmd/sdlived; \
$(GO) build -race -o $$tmp/sdload ./cmd/sdload; \
$$tmp/sdlived $(1) -addr 127.0.0.1:0 -addr-file $$tmp/addr & pid=$$!; \
for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
[ -s $$tmp/addr ] || { echo "sdlived never published its address"; exit 1; }; \
addr=$$(cat $$tmp/addr);
endef

define reap_sdlived
kill $$pid; \
wait $$pid || { echo "sdlived exited nonzero (race detected or oracle violation)"; exit 1; }
endef

# Live-serving smoke test (CI-enforced): boot sdlived under the race
# detector with the consistency oracle attached, drive 200 concurrent
# sdload clients against it for 5 seconds of wall time, and fail on any
# client error, undiscovered service or oracle violation.
live-smoke:
	$(call boot_sdlived,-system frodo2p -dilation 0.002) \
	$$tmp/sdload -addr $$addr -clients 200 -duration 5s -oracle -quiet; \
	$(reap_sdlived)

# Chaos-hunter smoke test (CI-enforced): a race-built sdhunt with a
# 60-second deterministic budget (the budget is a cost model, so the
# hunt is identical on every machine), then a replay of every committed
# fixture under internal/hunt/testdata: the hunted baselines must still
# exhibit their recorded violations AND their hardened twins must replay
# clean. The hunt exits 1 when it finds
# violations — that is its job, not a failure, so only a usage error
# (exit 2) fails the hunt step; the replay must be fully green.
hunt-smoke:
	@set -e; tmp=$$(mktemp -d); \
	trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -race -o $$tmp/sdhunt ./cmd/sdhunt; \
	$$tmp/sdhunt -budget 60s -seed 1 -out $$tmp/hunted -report $$tmp/report.json || [ $$? -eq 1 ]; \
	$$tmp/sdhunt -replay internal/hunt/testdata

# Hardening smoke test (CI-enforced): one hardened live pass — sdlived
# with the hardening layer on, driven by sdload with per-request timeouts
# and jittered retries, failing on any client error, race or oracle
# violation. The hardened fixtures replay in hunt-smoke.
harden-smoke:
	$(call boot_sdlived,-system frodo2p -harden -users 1000 -dilation 0.002) \
	$$tmp/sdload -addr $$addr -clients 100 -duration 5s -retries 4 -retry-base 50ms -oracle -quiet; \
	$(reap_sdlived)

# Telemetry smoke test (CI-enforced): boot a race-built sdlived, scrape
# /metrics under a short sdload burst, and assert the mandatory series
# are present and the frame, gateway and event counters are monotone
# between two scrapes taken across the load window.
obs-smoke:
	$(call boot_sdlived,-system frodo2p -users 200 -dilation 0.002) \
	curl -fsS "http://$$addr/metrics" > $$tmp/scrape1; \
	for series in 'sd_frames_sent_total{shard="0"}' 'sd_frames_dropped_total{shard="0"}' \
	              'sd_kernel_pending{shard="0"}' 'sd_gateway_ops_total' 'sd_live_virtual_seconds' \
	              'sd_live_events_fired'; do \
	  grep -qF "$$series" $$tmp/scrape1 || { echo "/metrics missing $$series"; cat $$tmp/scrape1; exit 1; }; \
	done; \
	grep -q '^# TYPE sd_frames_sent_total counter' $$tmp/scrape1 || { echo "missing TYPE line"; exit 1; }; \
	$$tmp/sdload -addr $$addr -clients 50 -duration 3s -oracle -quiet -telemetry $$tmp/load.json; \
	grep -q 'sdload_ops_total' $$tmp/load.json || { echo "sdload -telemetry dump missing its series"; exit 1; }; \
	curl -fsS "http://$$addr/metrics" > $$tmp/scrape2; \
	for series in 'sd_frames_sent_total{shard="0"}' 'sd_gateway_ops_total' 'sd_live_events_fired'; do \
	  v1=$$(grep -v '^#' $$tmp/scrape1 | grep -F "$$series" | head -1 | awk '{print $$NF}'); \
	  v2=$$(grep -v '^#' $$tmp/scrape2 | grep -F "$$series" | head -1 | awk '{print $$NF}'); \
	  awk -v a="$$v1" -v b="$$v2" 'BEGIN { exit !(b+0 >= a+0 && b+0 > 0) }' || \
	    { echo "$$series not monotone under load: $$v1 -> $$v2"; exit 1; }; \
	done; \
	curl -fsS "http://$$addr/debug/flight" > $$tmp/flight.json; \
	grep -q '"shard"' $$tmp/flight.json || { echo "/debug/flight returned no rings"; exit 1; }; \
	$(reap_sdlived)

clean:
	$(GO) clean ./...
