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

dune runtest

# Symbolic faithful-emulation proof, quick corner sweep: every path of
# every checked subsystem must be proved equivalent (exit 1 otherwise).
dune exec bin/miralis_sim.exe -- verify --symbolic --quick

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

# ACE steal/return race: the armed Ace_stale_ownership window must be
# caught by a preemptive scheduler within the default budget (the CLI
# exits 1 on an explorer gap; round-robin staying blind is reported).
dune exec bin/miralis_sim.exe -- explore --scenario ace --max-schedules 100
dune exec bin/miralis_sim.exe -- explore --inject-bug ace-stale-ownership

# Memory-system fast-path benchmark, small budget: the TLB-enabled
# instrs/sec figure must stay within 20% of the committed baseline.
MIRALIS_IPS_BUDGET=1000000 dune exec bench/main.exe -- ips
json_int() { awk -F'[:,]' -v k="\"$2\"" '$1 ~ k { gsub(/[^0-9]/, "", $2); print $2 }' "$1"; }
ips=$(json_int BENCH_ips.json ips_tlb)
base=$(json_int scripts/ips_baseline.json ips_tlb)
floor=$((base * 80 / 100))
if [ "$ips" -lt "$floor" ]; then
  echo "ci: ips regression: $ips instrs/sec < 80% of baseline $base" >&2
  exit 1
fi
echo "ci: ips $ips instrs/sec (baseline $base, floor $floor)"
bips=$(json_int BENCH_ips.json ips_blocks)
bbase=$(json_int scripts/ips_baseline.json ips_blocks)
bfloor=$((bbase * 80 / 100))
if [ "$bips" -lt "$bfloor" ]; then
  echo "ci: block-engine ips regression: $bips instrs/sec < 80% of baseline $bbase" >&2
  exit 1
fi
echo "ci: block ips $bips instrs/sec (baseline $bbase, floor $bfloor)"

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
