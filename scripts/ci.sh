#!/bin/sh
# Tier-1 check: build, unit tests, then a record/replay smoke run —
# record a virtualized boot with periodic checkpoints, replay the log
# on a fresh system, and require zero divergence (the sim exits 1 on
# any divergence, and the shell's -e propagates it).
set -eu

cd "$(dirname "$0")/.."

dune build

# AST-driven invariant analyzer (lib/analysis, DESIGN.md §12): all nine
# rules over lib/ bin/ bench/ examples/ test/, JSON report, zero
# diagnostics required (the CLI exits 1 on any). scripts/lint.sh wraps
# the same engine for interactive use.
dune exec bin/miralis_sim.exe -- lint --format json

# Analyzer cost stays visible: a files/sec timing line per CI cycle
# (BENCH_lint.json), so rule growth that slows the gate shows up here.
dune exec bench/main.exe -- lint
grep -q '"files_per_sec"' BENCH_lint.json || {
  echo "ci: BENCH_lint.json missing files_per_sec" >&2
  exit 1
}

# Unit, property and replay tests. They include the exact fast-path
# gates (test/test_fastpath.ml): a fixed-length Sv39 guest must keep a
# block hit rate and a TLB hit ratio >= 0.99 and allocate <= 11 minor
# words per step, and with the block engine off the interpreter must
# also stay <= 11. The interpreter allocates less than the engine, so
# only the hit-rate gate catches a disabled engine. Host time is
# measured by perfbench/, never gated here.
dune runtest

# Table 2, quick: the five proof rows must prove every path of their
# subsystem and the four sampled rows must stay clean (exit 1
# otherwise).
dune exec bin/miralis_sim.exe -- verify --quick

# Each §6.5 injected bug class must be detected (exit 0). At seed 8 no
# sampled row exposes the MPP class, so detection must come from the
# proofs rather than from a lucky sample.
for bug in mpp pmp-wr vpmp-overrun irq-priority mret-mpie; do
  dune exec bin/miralis_sim.exe -- verify --quick --inject-bug "$bug" \
    --seed 8 >/dev/null || {
    echo "ci: verify missed injected bug $bug" >&2
    exit 1
  }
done

trace=$(mktemp /tmp/miralis_smoke.XXXXXX.jsonl)
trap 'rm -f "$trace"' EXIT

dune exec bin/miralis_sim.exe -- run --platform visionfive2 --mode miralis \
  --record "$trace" --checkpoint-every 100000
dune exec bin/miralis_sim.exe -- run --platform visionfive2 --mode miralis \
  --replay "$trace"

# Differential-testing smoke (DESIGN.md §6): one short fixed-seed
# campaign per family must find no divergence — isa (the emulator
# against the reference machine, ~1s), paging (the TLB machine against
# the raw-walker machine over page-table edits, satp switches, fences,
# SUM/MXR/MPRV flips and PMP reconfigurations), blocks (the decoded
# basic-block engine against the per-instruction interpreter over
# self-modifying stores, mid-block traps, vm-epoch bumps and fence.i,
# ~12s) and ace (the ACE policy against the pure steal/return model on
# two harts). Exit 1 on the first divergence, after shrinking.
dune exec bin/miralis_sim.exe -- fuzz --family isa --max-execs 2000
dune exec bin/miralis_sim.exe -- fuzz --family paging --max-execs 10000
dune exec bin/miralis_sim.exe -- fuzz --family blocks --max-execs 10000
dune exec bin/miralis_sim.exe -- fuzz --family ace --max-execs 100

# Every checked-in vector of every family replays green; each file's
# header picks its family.
dune exec bin/miralis_sim.exe -- fuzz --replay test/vectors

# The builtin vectors regenerate byte for byte: every file
# `fuzz --emit-vectors` writes must equal its checked-in copy.
emitted=$(mktemp -d /tmp/miralis_vectors.XXXXXX)
trap 'rm -rf "$trace" "$emitted"' EXIT
dune exec bin/miralis_sim.exe -- fuzz --emit-vectors "$emitted"
for f in "$emitted"/*.jsonl; do
  cmp "$f" "test/vectors/$(basename "$f")" || {
    echo "ci: emitted vector $(basename "$f") differs from test/vectors/" >&2
    exit 1
  }
done

# Schedule-exploration smoke: with no injected bug, every scenario's
# isolation oracles must stay clean under the fixed-seed random and
# PCT schedules (exit 1 on any violation), and the checked-in shrunk
# failing schedules must replay to their recorded violations (exit 1
# on divergence).
dune exec bin/miralis_sim.exe -- explore --max-schedules 200
dune exec bin/miralis_sim.exe -- explore --replay-schedule test/schedules

# Usage errors exit 2, apart from verdicts (exit 1): a malformed
# schedule file, an unknown bench name and a policy without Miralis.
expect_exit2() {
  status=0
  "$@" >/dev/null 2>&1 || status=$?
  [ "$status" -eq 2 ] || {
    echo "ci: expected exit 2, got $status: $*" >&2
    exit 1
  }
}
bad_schedule=$(mktemp /tmp/miralis_schedule.XXXXXX.jsonl)
trap 'rm -rf "$trace" "$emitted" "$bad_schedule"' EXIT
printf '{"v":1,"scenario":"ipi"}\n' > "$bad_schedule"
expect_exit2 dune exec bin/miralis_sim.exe -- explore \
  --replay-schedule "$bad_schedule"
expect_exit2 dune exec bench/main.exe -- nosuch
expect_exit2 dune exec bin/miralis_sim.exe -- run --mode native \
  --policy sandbox

# ACE steal/return race: the armed Ace_stale_ownership window must be
# caught by a preemptive scheduler within the default budget (the CLI
# exits 1 on an explorer gap; round-robin staying blind is reported).
dune exec bin/miralis_sim.exe -- explore --scenario ace --max-schedules 100
dune exec bin/miralis_sim.exe -- explore --inject-bug ace-stale-ownership

# json_int FILE KEY: the integer value of a top-level BENCH_*.json member.
json_int() { awk -F'[:,]' -v k="\"$2\"" '$1 ~ k { gsub(/[^0-9]/, "", $2); print $2 }' "$1"; }

# Fleet smoke: a small fixed-seed fleet on 2 domains must complete
# (the CLI exits 1 if any machine hits its instruction budget), and a
# shrunk `bench fleet` must report bit-identical results across
# domain counts plus sane latency fields in BENCH_fleet.json.
dune exec bin/miralis_sim.exe -- fleet --machines 8 --domains 2 \
  --workload mix --duration 0.3 --quiet
MIRALIS_FLEET_MACHINES=6 MIRALIS_FLEET_DURATION_MS=0.25 \
  dune exec bench/main.exe -- fleet
grep -q '"deterministic": true' BENCH_fleet.json || {
  echo "ci: fleet results vary with domain count" >&2
  exit 1
}
grep -q '"all_completed": true' BENCH_fleet.json || {
  echo "ci: fleet machines hit the instruction budget" >&2
  exit 1
}
for field in machines sim_trap_rate p50_cycles p99_cycles p999_cycles \
  fleet_digest scaling; do
  grep -q "\"$field\"" BENCH_fleet.json || {
    echo "ci: BENCH_fleet.json missing field $field" >&2
    exit 1
  }
done
p50=$(json_int BENCH_fleet.json p50_cycles)
[ "$p50" -gt 0 ] || { echo "ci: fleet p50 latency is zero" >&2; exit 1; }
echo "ci: fleet ok (p50 ${p50} cycles)"

# World-switch cost row: the sandbox / keystone / ace comparison must
# emit BENCH_ace.json with the per-switch charge breakdown.
dune exec bench/main.exe -- ace
for field in sandbox_sbi_call_cycles keystone_round_cycles ace_round_cycles \
  steal_cycles return_cycles tlb_flush_cycles ace_steals ace_returns; do
  grep -q "\"$field\"" BENCH_ace.json || {
    echo "ci: BENCH_ace.json missing field $field" >&2
    exit 1
  }
done
steals=$(json_int BENCH_ace.json ace_steals)
[ "$steals" -gt 0 ] || { echo "ci: bench ace recorded no steals" >&2; exit 1; }
echo "ci: ace ok (${steals} steals charged)"

echo "ci: ok"
