#!/bin/sh
# Full verification gate: vet, build, race-check the concurrent pieces
# (the engine, the metrics registry and the parallel experiment
# harness), then the whole suite, then an end-to-end JSON report whose
# schema is validated before it is written (writeReport re-runs
# ValidateReport) and golden-checked by the experiments tests. CI and
# `make check` both run this.
set -eux

cd "$(dirname "$0")/.."

# Guard against editing this gate into a script that no longer parses.
sh -n scripts/check.sh

go vet ./...
go build ./...
# Repo-specific invariants (determinism, cross-shard scheduling, pool
# leases, metric names) plus reduced shadow/unusedwrite ports; findings
# need a fix or a justified //octolint:allow directive.
go run ./cmd/octolint
# The race pass covers the sharded engine: internal/sim carries the
# Group unit tests and internal/experiments carries TestShardDeterminism,
# which runs fig2 + chaos on concurrent shard goroutines.
# internal/driver rides along for the watchdog: its ladder and poller
# fallback tests exercise the recovery timers under the race detector.
# internal/kernel runs thread Exec/Sleep/Wait resumes driven from core
# callbacks, so the detector sees every sim.Proc coroutine switch there.
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

# Shard determinism gate: the sharded engine must be an invisible
# optimization. Every figure plus the chaos run must render
# byte-identical text and JSON with -shards 2 (report metadata does not
# record the shard count, by design: same simulation, same report).
go run ./cmd/ioctobench -fig all -quick -json "$tmp/all_serial.json" > "$tmp/all_serial.txt"
go run ./cmd/ioctobench -fig all -quick -shards 2 -json "$tmp/all_sharded.json" > "$tmp/all_sharded.txt"
cmp "$tmp/all_serial.txt" "$tmp/all_sharded.txt"
cmp "$tmp/all_serial.json" "$tmp/all_sharded.json"
go run ./cmd/ioctobench -fig chaos -quick -shards 2 -json "$tmp/chaos_sharded.json" > "$tmp/chaos_sharded.txt"
cmp "$tmp/chaos1.txt" "$tmp/chaos_sharded.txt"
cmp "$tmp/chaos1.json" "$tmp/chaos_sharded.json"

# PMD determinism gate: the hidden kernel-bypass sweep (not part of
# `-fig all`, which stays byte-identical to the NAPI-only harness) must
# be as deterministic as everything else — busy-poll spin loops and
# hybrid mode-switches included — serial vs sharded.
go run ./cmd/ioctobench -fig pmd -quick -json "$tmp/pmd_serial.json" > "$tmp/pmd_serial.txt"
go run ./cmd/ioctobench -fig pmd -quick -shards 2 -json "$tmp/pmd_sharded.json" > "$tmp/pmd_sharded.txt"
cmp "$tmp/pmd_serial.txt" "$tmp/pmd_sharded.txt"
cmp "$tmp/pmd_serial.json" "$tmp/pmd_sharded.json"

# Device-chaos determinism gate: the firmware-reset / queue-stall /
# poller-stall sweep (hidden like pmd, so `-fig all` goldens are
# untouched) exercises every watchdog ladder rung and the PMD fallback
# path. Its recovery latencies must be a pure function of the seed:
# byte-identical across a double run and serial vs sharded.
go run ./cmd/ioctobench -fig devchaos -quick -json "$tmp/dev1.json" > "$tmp/dev1.txt"
go run ./cmd/ioctobench -fig devchaos -quick -json "$tmp/dev2.json" > "$tmp/dev2.txt"
cmp "$tmp/dev1.txt" "$tmp/dev2.txt"
cmp "$tmp/dev1.json" "$tmp/dev2.json"
go run ./cmd/ioctobench -fig devchaos -quick -shards 2 -json "$tmp/dev_sharded.json" > "$tmp/dev_sharded.txt"
cmp "$tmp/dev1.txt" "$tmp/dev_sharded.txt"
cmp "$tmp/dev1.json" "$tmp/dev_sharded.json"

# Scenario parity gate: the declarative specs must reproduce the
# hand-wired runners byte for byte — -scenario fig2/chaos is the same
# experiment expressed as data.
go run ./cmd/ioctobench -fig fig2 -quick > "$tmp/fig2_wired.txt"
go run ./cmd/ioctobench -scenario fig2 -quick > "$tmp/fig2_spec.txt"
cmp "$tmp/fig2_wired.txt" "$tmp/fig2_spec.txt"
go run ./cmd/ioctobench -scenario chaos -quick > "$tmp/chaos_spec.txt"
cmp "$tmp/chaos1.txt" "$tmp/chaos_spec.txt"

# Fuzz smoke gate: a pinned batch of generated scenarios must pass all
# declared invariants (exit 0) and replay byte-identically — both on a
# second run and under the sharded engine.
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz1.txt"
go run ./cmd/ioctobench -fuzz 8 -seed 1 > "$tmp/fuzz2.txt"
cmp "$tmp/fuzz1.txt" "$tmp/fuzz2.txt"
go run ./cmd/ioctobench -fuzz 8 -seed 1 -shards 2 > "$tmp/fuzz_sharded.txt"
cmp "$tmp/fuzz1.txt" "$tmp/fuzz_sharded.txt"

# Bench gate: the packet-path benchmarks must stay within the allocs/op
# thresholds recorded in BENCH_sim.json (the "gate" section).
evr_max="$(sed -n 's/.*"BenchmarkSimulatorEventRate_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
pp_max="$(sed -n 's/.*"BenchmarkPacketPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
bp_max="$(sed -n 's/.*"BenchmarkBusyPollPath_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
cd_max="$(sed -n 's/.*"BenchmarkCoreDispatch_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
ph_max="$(sed -n 's/.*"BenchmarkProcHandoff_max_allocs_per_op": *\([0-9]*\).*/\1/p' BENCH_sim.json)"
if test -z "$evr_max" || test -z "$pp_max" || test -z "$bp_max" || test -z "$cd_max" || test -z "$ph_max"; then
    echo "check.sh: BENCH_sim.json is missing its gate keys" \
        "(BenchmarkSimulatorEventRate_max_allocs_per_op," \
        "BenchmarkPacketPath_max_allocs_per_op," \
        "BenchmarkBusyPollPath_max_allocs_per_op," \
        "BenchmarkCoreDispatch_max_allocs_per_op," \
        "BenchmarkProcHandoff_max_allocs_per_op); regenerate with" \
        "'make bench' and restore the gate section" >&2
    exit 1
fi
# (The serial benchmark only: the Sharded variant's allocs scale with
# cross-shard traffic — its determinism is gated above, not its allocs.)
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
go test -run '^$' -bench 'BenchmarkProcHandoff$' -benchmem ./internal/sim | tee "$tmp/bench_sim.txt"
awk -v ph_max="$ph_max" '
  /^BenchmarkProcHandoff/ { seen = 1; a = $(NF-1) + 0
    if (a > ph_max) { printf "bench gate: ProcHandoff %d allocs/op > %d\n", a, ph_max; bad = 1 } }
  END {
    if (!seen) { print "bench gate: ProcHandoff benchmark output missing"; bad = 1 }
    exit bad
  }' "$tmp/bench_sim.txt"
