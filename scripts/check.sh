#!/bin/sh
# Full verification gate: vet, build, race-check the concurrent pieces
# (the metrics registry, the parallel experiment harness and the
# process coroutines), then the whole suite, then an end-to-end JSON report whose
# schema is validated before it is written (writeReport re-runs
# ValidateReport) and golden-checked by the experiments tests. CI and
# `make check` both run this.
set -eux

cd "$(dirname "$0")/.."

# Guard against editing this gate (or the A/B tool) into a script that
# no longer parses.
sh -n scripts/check.sh
sh -n scripts/benchab.sh

go vet ./...
go build ./...
# Repo-specific invariants (determinism, pool leases, metric names)
# plus reduced shadow/unusedwrite ports; findings need a fix or a
# justified //octolint:allow directive.
go run ./cmd/octolint
# The race pass covers the concurrent pieces: internal/experiments runs
# the parallel point harness (TestGOMAXPROCSDeterminism renders fig2 +
# chaos on concurrent point workers) and internal/metrics the registry.
# internal/driver rides along for the watchdog: its ladder and poller
# fallback tests exercise the recovery timers under the race detector.
# internal/sim and internal/kernel run process resumes from engine
# events and core callbacks, so the detector sees every sim.Proc
# coroutine switch.
go test -race ./internal/sim/... ./internal/metrics/... ./internal/experiments/... ./internal/faults/... ./internal/driver/... ./internal/kernel/...
go test ./...

# JSON schema gate: emit a real report and require it to validate.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/ioctobench -fig fig2 -quick -json "$tmp/report.json" > "$tmp/report.txt"
test -s "$tmp/report.json"

# Chaos determinism gate: the fault-injection run is a pure function of
# its seed — run it twice and require byte-identical text and JSON
# reports (report metadata carries no wall-clock fields by design).
go run ./cmd/ioctobench -fig chaos -quick -json "$tmp/chaos1.json" > "$tmp/chaos1.txt"
go run ./cmd/ioctobench -fig chaos -quick -json "$tmp/chaos2.json" > "$tmp/chaos2.txt"
cmp "$tmp/chaos1.txt" "$tmp/chaos2.txt"
cmp "$tmp/chaos1.json" "$tmp/chaos2.json"

# PMD determinism gate: the hidden kernel-bypass sweep (not part of
# `-fig all`, which stays byte-identical to the NAPI-only harness) must
# be as deterministic as everything else — busy-poll spin loops and
# hybrid mode-switches included — across a double run.
go run ./cmd/ioctobench -fig pmd -quick -json "$tmp/pmd1.json" > "$tmp/pmd1.txt"
go run ./cmd/ioctobench -fig pmd -quick -json "$tmp/pmd2.json" > "$tmp/pmd2.txt"
cmp "$tmp/pmd1.txt" "$tmp/pmd2.txt"
cmp "$tmp/pmd1.json" "$tmp/pmd2.json"

# Device-chaos determinism gate: the firmware-reset / queue-stall /
# poller-stall sweep (hidden like pmd, so `-fig all` goldens are
# untouched) exercises every watchdog ladder rung and the PMD fallback
# path. Its recovery latencies must be a pure function of the seed:
# byte-identical across a double run.
go run ./cmd/ioctobench -fig devchaos -quick -json "$tmp/dev1.json" > "$tmp/dev1.txt"
go run ./cmd/ioctobench -fig devchaos -quick -json "$tmp/dev2.json" > "$tmp/dev2.txt"
cmp "$tmp/dev1.txt" "$tmp/dev2.txt"
cmp "$tmp/dev1.json" "$tmp/dev2.json"

# Scenario parity gate: the declarative specs must reproduce the
# hand-wired runners byte for byte — -scenario fig2/chaos is the same
# experiment expressed as data.
go run ./cmd/ioctobench -fig fig2 -quick > "$tmp/fig2_wired.txt"
go run ./cmd/ioctobench -scenario fig2 -quick > "$tmp/fig2_spec.txt"
cmp "$tmp/fig2_wired.txt" "$tmp/fig2_spec.txt"
go run ./cmd/ioctobench -scenario chaos -quick > "$tmp/chaos_spec.txt"
cmp "$tmp/chaos1.txt" "$tmp/chaos_spec.txt"

# Fuzz smoke gate: a pinned batch of generated scenarios must pass all
# declared invariants (exit 0) and replay byte-identically on a second
# run.
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz1.txt"
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz2.txt"
cmp "$tmp/fuzz1.txt" "$tmp/fuzz2.txt"

# Bench gate: the packet-path benchmarks must stay within the allocs/op
# thresholds recorded in BENCH_sim.json (the "gate" section).
evr_max="$(sed -n 's/.*"BenchmarkSimulatorEventRate_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
pp_max="$(sed -n 's/.*"BenchmarkPacketPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
bp_max="$(sed -n 's/.*"BenchmarkBusyPollPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
cd_max="$(sed -n 's/.*"BenchmarkCoreDispatch_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
ph_max="$(sed -n 's/.*"BenchmarkProcHandoff_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
ed_max="$(sed -n 's/.*"BenchmarkEngineDispatch_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
cr_max="$(sed -n 's/.*"BenchmarkCPURead_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
hr_max="$(sed -n 's/.*"BenchmarkHostRead_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
cb_max="$(sed -n 's/.*"BenchmarkClusterBuild_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
if test -z "$evr_max" || test -z "$pp_max" || test -z "$bp_max" || test -z "$cd_max" || test -z "$ph_max" || test -z "$ed_max" ||
    test -z "$cr_max" || test -z "$hr_max" || test -z "$cb_max"; then
    echo "check.sh: BENCH_sim.json is missing its gate keys" \
        "(BenchmarkSimulatorEventRate_max_allocs_per_op," \
        "BenchmarkPacketPath_max_allocs_per_op," \
        "BenchmarkBusyPollPath_max_allocs_per_op," \
        "BenchmarkCoreDispatch_max_allocs_per_op," \
        "BenchmarkProcHandoff_max_allocs_per_op," \
        "BenchmarkEngineDispatch_max_allocs_per_op," \
        "BenchmarkCPURead_max_allocs_per_op," \
        "BenchmarkHostRead_max_allocs_per_op," \
        "BenchmarkClusterBuild_max_allocs_per_op); regenerate with" \
        "'make bench' and restore the gate section" >&2
    exit 1
fi
go test -run '^$' -bench 'BenchmarkPacketPath$|BenchmarkBusyPollPath$|BenchmarkSimulatorEventRate$' -benchtime 10x -benchmem . | tee "$tmp/bench.txt"
awk -v evr_max="$evr_max" -v pp_max="$pp_max" -v bp_max="$bp_max" '
  /^BenchmarkSimulatorEventRate(-|[ \t])/ { seen_evr = 1; a = $(NF-1) + 0
    if (a > evr_max) { printf "bench gate: SimulatorEventRate %d allocs/op > %d\n", a, evr_max; bad = 1 } }
  /^BenchmarkPacketPath/ { seen_pp = 1; a = $(NF-1) + 0
    if (a > pp_max) { printf "bench gate: PacketPath %d allocs/op > %d\n", a, pp_max; bad = 1 } }
  /^BenchmarkBusyPollPath/ { seen_bp = 1; a = $(NF-1) + 0
    if (a > bp_max) { printf "bench gate: BusyPollPath %d allocs/op > %d\n", a, bp_max; bad = 1 } }
  END {
    if (!seen_evr || !seen_pp || !seen_bp) { print "bench gate: benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench.txt"
# The core dispatch state machine (kernel.Core's wake/finish callbacks)
# is gated on its own: one work item through a core allocates nothing.
go test -run '^$' -bench 'BenchmarkCoreDispatch$' -benchmem ./internal/kernel | tee "$tmp/bench_kernel.txt"
awk -v cd_max="$cd_max" '
  /^BenchmarkCoreDispatch/ { seen = 1; a = $(NF-1) + 0
    if (a > cd_max) { printf "bench gate: CoreDispatch %d allocs/op > %d\n", a, cd_max; bad = 1 } }
  END {
    if (!seen) { print "bench gate: CoreDispatch benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench_kernel.txt"
# One sim.Proc blocking step (resume, then sleep again: a coroutine
# switch each way) is gated the same way: the handoff allocates nothing.
# So is one event through the engine's queue, on the ready lane
# (zero-delay) and through the heap (timed).
go test -run '^$' -bench 'BenchmarkProcHandoff$|BenchmarkEngineDispatch$' -benchmem ./internal/sim | tee "$tmp/bench_sim.txt"
awk -v ph_max="$ph_max" -v ed_max="$ed_max" '
  /^BenchmarkProcHandoff/ { seen_ph = 1; a = $(NF-1) + 0
    if (a > ph_max) { printf "bench gate: ProcHandoff %d allocs/op > %d\n", a, ph_max; bad = 1 } }
  /^BenchmarkEngineDispatch\/zero-delay/ { seen_zd = 1 }
  /^BenchmarkEngineDispatch\/timed/ { seen_td = 1 }
  /^BenchmarkEngineDispatch\// { a = $(NF-1) + 0
    if (a > ed_max) { printf "bench gate: %s %d allocs/op > %d\n", $1, a, ed_max; bad = 1 } }
  END {
    if (!seen_ph || !seen_zd || !seen_td) { print "bench gate: sim benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench_sim.txt"
# The memory-system cost layer is gated the same way: one CPU read (LLC
# hit and cold miss) and one batch of ring-entry reads (1 and 14
# entries) allocate nothing. Cluster construction allocates by design;
# its bar keeps per-entry ring state from coming back.
go test -run '^$' -bench 'BenchmarkCPURead$|BenchmarkHostRead$|BenchmarkClusterBuild$' -benchtime 100x -benchmem \
    ./internal/memsys ./internal/device ./internal/core | tee "$tmp/bench_mem.txt"
awk -v cr_max="$cr_max" -v hr_max="$hr_max" -v cb_max="$cb_max" '
  /^BenchmarkCPURead\/hit/ { seen_crh = 1 }
  /^BenchmarkCPURead\/miss/ { seen_crm = 1 }
  /^BenchmarkCPURead\// { a = $(NF-1) + 0
    if (a > cr_max) { printf "bench gate: %s %d allocs/op > %d\n", $1, a, cr_max; bad = 1 } }
  /^BenchmarkHostRead\/n=1-/ { seen_hr1 = 1 }
  /^BenchmarkHostRead\/n=14-/ { seen_hr14 = 1 }
  /^BenchmarkHostRead\// { a = $(NF-1) + 0
    if (a > hr_max) { printf "bench gate: %s %d allocs/op > %d\n", $1, a, hr_max; bad = 1 } }
  /^BenchmarkClusterBuild/ { seen_cb = 1; a = $(NF-1) + 0
    if (a > cb_max) { printf "bench gate: ClusterBuild %d allocs/op > %d\n", a, cb_max; bad = 1 } }
  END {
    if (!seen_crh || !seen_crm || !seen_hr1 || !seen_hr14 || !seen_cb) { print "bench gate: memsys/device/core benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench_mem.txt"
