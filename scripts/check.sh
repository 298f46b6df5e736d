#!/usr/bin/env bash
# Repo gate: format, lints, tier-1 tests, quick perf baseline, the
# determinism smokes, and replay verification of the committed
# .runpack artifacts.
#
# Composable stages, so CI tiers and reviewers run the same script:
#
#   ./scripts/check.sh                # everything (pre-merge gate)
#   ./scripts/check.sh --tier1        # fmt + workspace clippy + build + tests (>= TEST_FLOOR pass)
#   ./scripts/check.sh --determinism  # full-size records vs HEAD + thread-count smokes
#   ./scripts/check.sh --perf         # quick perf baseline + scaling smoke
#   ./scripts/check.sh --replay       # verify committed .runpack artifacts
#
# Stages compose: `./scripts/check.sh --determinism --replay` runs both.
# The perf step writes results/BENCH_2.json..BENCH_4.json in --quick
# mode; diff against the committed baselines by hand when a change is
# perf-relevant. Determinism smokes run each sweep at two thread counts
# and require its records and packs to be byte-identical. They run at
# reduced sizes, so each smoke keeps what it wrote in
# target/smoke-records/ and puts back the committed files it overwrote.
# The paper tables, sb_scale, resilience and sb_scale_50m also run at
# full size, and their records must equal the ones committed at HEAD.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=0
run_determinism=0
run_perf=0
run_replay=0
if [ "$#" -eq 0 ]; then
  run_tier1=1 run_determinism=1 run_perf=1 run_replay=1
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=1 ;;
    --determinism) run_determinism=1 ;;
    --perf) run_perf=1 ;;
    --replay) run_replay=1 ;;
    *)
      echo "unknown stage: $arg (expected --tier1 | --determinism | --perf | --replay)" >&2
      exit 2
      ;;
  esac
done

# Passing tests tier-1 must reach. `default-members` makes the plain
# `cargo test` run every crate's unit tests, proptests and doctests plus
# the root package's; raise the floor when adding tests, never lower it
# to get a pass.
TEST_FLOOR=809

# Where the determinism smokes leave their reduced-size records and
# packs (CI uploads this directory).
SMOKE_DIR=target/smoke-records

# Committed artifacts a running stage has overwritten, copied aside.
# `restore` puts them back; the EXIT trap runs it too, so a failed
# smoke leaves no reduced-size file under results/.
stash_dir="$(mktemp -d)"
stashed=()
stash() {
  local f
  for f in "$@"; do
    cp "$f" "$stash_dir/"
    stashed+=("$f")
  done
}
restore() {
  local f
  for f in "${stashed[@]}"; do
    mv "$stash_dir/$(basename "$f")" "$f"
  done
  stashed=()
}
trap 'restore; rm -rf "$stash_dir"' EXIT

# Run a sweep binary at two thread counts, require every artifact it
# writes to be byte-identical between them, copy them to $SMOKE_DIR
# and put the committed ones back:
# smoke NAME THREADS_A THREADS_B "ARTIFACTS" BIN [ARGS...]
smoke() {
  local name="$1" ta="$2" tb="$3" artifacts="$4" f
  shift 4
  local first="$stash_dir/$name.t$ta"
  stash $artifacts
  mkdir -p "$first" "$SMOKE_DIR"
  PHISHSIM_SWEEP_THREADS="$ta" cargo run --release -p phishsim-bench --bin "$@"
  for f in $artifacts; do cp "$f" "$first/"; done
  PHISHSIM_SWEEP_THREADS="$tb" cargo run --release -p phishsim-bench --bin "$@"
  for f in $artifacts; do
    if ! cmp -s "$first/$(basename "$f")" "$f"; then
      echo "$name: $f differs between $ta and $tb threads" >&2
      exit 1
    fi
    cp "$f" "$SMOKE_DIR/"
  done
  restore
  echo "$name artifacts byte-identical across thread counts (copies in $SMOKE_DIR)"
}

tier1() {
  echo "==> cargo fmt --check"
  cargo fmt --all --check

  echo "==> clippy (whole workspace, all targets)"
  cargo clippy --release --workspace --all-targets -- -D warnings

  echo "==> tier-1: build + tests"
  cargo build --release
  local log passed
  log="$(mktemp)"
  cargo test -q --release 2>&1 | tee "$log"
  passed="$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")"
  rm -f "$log"
  if [ "$passed" -lt "$TEST_FLOOR" ]; then
    echo "tier-1 passed $passed tests, fewer than the floor of $TEST_FLOOR: coverage was lost" >&2
    exit 1
  fi
  echo "tier-1: $passed tests passed (floor $TEST_FLOOR)"
}

perf() {
  echo "==> perf baseline (quick)"
  cargo run --release -p phishsim-bench --bin bench_baseline -- --quick

  echo "==> thread-scaling smoke (BENCH_4)"
  # The quick baseline above ran the scaling curve at 1/2/4/8/16 worker
  # threads with byte-identity asserted at every point, and — only when
  # the host physically has the cores — speedup floors asserted
  # in-binary (>=2x at 4 threads on >=4 cores, >=4x at 8 threads on
  # >=8 cores). Confirm the artifact landed and records what it ran on.
  grep -q '"host_parallelism"' results/BENCH_4.json
  echo "BENCH_4.json present (host_parallelism: $(grep -o '"host_parallelism": *[0-9]*' results/BENCH_4.json | grep -o '[0-9]*$'), $(nproc) per nproc)"
}

# Run bins at their default arguments, require every artifact they
# rewrite to equal the one committed at HEAD, and put the committed
# files back: against_head WHAT "ARTIFACTS" BIN...
against_head() {
  local what="$1" artifacts="$2" f bin
  shift 2
  stash $artifacts
  for bin in "$@"; do
    cargo run --release -p phishsim-bench --bin "$bin"
  done
  for f in $artifacts; do
    if ! git show "HEAD:$f" | cmp -s - "$f"; then
      echo "$what $f differs from the committed one" >&2
      exit 1
    fi
  done
  restore
  echo "$what records and packs equal the committed ones"
}

determinism() {
  echo "==> paper-volume tables vs the committed records"
  # The replay packs run at fast volume, so this is the check that runs
  # the paper-volume probe path (735,732 requests for Table 1 + Table 2)
  # against committed bytes: each bin at its default paper arguments
  # must rewrite its records and packs byte for byte.
  against_head paper-volume "results/table1.json results/table1.runpack
    results/table2.json results/table2.runpack results/kit_probes.json
    results/traffic_timing.json" table1 table2 kit_probes traffic_timing

  echo "==> sb_scale and resilience at default size vs the committed records"
  # The smokes below run both sweeps at reduced size, one thread count
  # against another. At their defaults (1M clients; 200k per chaos
  # level) they must rewrite the committed bytes. resilience is the
  # only record with feed loss and origin outages, so this is the one
  # full-size check of the exact walk's feed-loss draws and of the
  # exchanges a down server refuses.
  against_head default-size "results/sb_scale.json results/sb_scale.runpack
    results/resilience.json" sb_scale resilience

  echo "==> sb_scale determinism smoke (10k clients, 1 vs 4 threads)"
  smoke sb_scale 1 4 "results/sb_scale.json results/sb_scale.runpack" \
    sb_scale -- --clients 10000

  echo "==> resilience determinism smoke (5k clients/level, 1 vs 4 threads)"
  smoke resilience 1 4 results/resilience.json resilience -- --clients 5000

  echo "==> sb_scale_50m determinism smoke (fast cohort sweep, 1 vs 8 threads)"
  # Cohort compression, the mirror tier, and the exact-baseline guard
  # must all be thread-invariant. Every run also rewrites BENCH_5.json
  # with host timings, which are not compared.
  stash results/BENCH_5.json
  smoke sb_scale_50m 1 8 "results/sb_scale_50m.json results/sb_scale_50m.runpack" \
    sb_scale_50m -- fast

  echo "==> sb_scale_50m full scale (1M/10M/50M, 2 threads) vs the committed record"
  # The committed record comes from a full one-thread run; a full run
  # on two threads (~13 s, ~187 MB peak on a 2-vCPU host) must
  # reproduce it byte for byte. The thread count is pinned because the
  # table build holds one row map per thread, so peak RSS (guarded by
  # the bin) grows on hosts with many cores.
  stash results/sb_scale_50m.json results/sb_scale_50m.runpack results/BENCH_5.json
  PHISHSIM_SWEEP_THREADS=2 cargo run --release -p phishsim-bench --bin sb_scale_50m
  if ! git show HEAD:results/sb_scale_50m.json | diff -q - results/sb_scale_50m.json; then
    echo "full-scale sb_scale_50m record differs from the committed one" >&2
    exit 1
  fi
  restore
  echo "full-scale sb_scale_50m record equals the committed one"

  echo "==> obs_report determinism smoke (full volume, 1 vs 8 threads)"
  smoke obs_report 1 8 "results/obs_report.json results/obs_report.runpack" obs_report

  echo "==> fleet_sweep determinism smoke (fast stream, 1 vs 8 threads)"
  smoke fleet_sweep 1 8 "results/fleet_sweep.json results/fleet_sweep.runpack" \
    fleet_sweep -- fast

  echo "==> fleet_chaos determinism smoke (fast sweep, 1 vs 8 threads)"
  # Worker-chaos sweep: crash/hang/restart fault plans and supervised
  # recovery must be just as thread-invariant as the fault-free fleet.
  # The bin asserts its own floors (zero lost reports, >=90% throughput
  # retention at 1% crash rate) on every run.
  smoke fleet_chaos 1 8 "results/fleet_chaos.json results/fleet_chaos.runpack" \
    fleet_chaos -- fast
}

replay() {
  echo "==> runpack verify smoke (committed packs, 1 vs 8 threads)"
  # Each committed .runpack re-executes from nothing but its own
  # recorded config and must reproduce every section digest
  # byte-for-byte — at both thread counts, since parallelism must
  # never enter a pack.
  for pack in table1 table2 obs_report fleet_sweep fleet_chaos sb_scale sb_scale_50m; do
    for threads in 1 8; do
      PHISHSIM_SWEEP_THREADS=$threads cargo run --release --bin runpack -- \
        verify "results/$pack.runpack"
    done
  done
  echo "runpack verify byte-for-byte at 1 and 8 threads"
}

[ "$run_tier1" -eq 1 ] && tier1
[ "$run_perf" -eq 1 ] && perf
[ "$run_determinism" -eq 1 ] && determinism
[ "$run_replay" -eq 1 ] && replay

echo "All requested checks passed."
