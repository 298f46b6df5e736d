#!/usr/bin/env bash
# Repo gate: format, lints, tier-1 tests, quick perf baseline, the
# determinism smokes, and replay verification of the committed
# .runpack artifacts.
#
# Composable stages, so CI tiers and reviewers run the same script:
#
#   ./scripts/check.sh                # everything (pre-merge gate)
#   ./scripts/check.sh --tier1        # fmt + workspace clippy + build + tests, release and debug (>= TEST_FLOOR pass each)
#   ./scripts/check.sh --determinism  # thread-count smokes
#   ./scripts/check.sh --regen        # rerun the artifact manifest, results/ must equal HEAD
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
# The regeneration stage reruns every bin of the MANIFEST below with the
# arguments that wrote the committed artifacts, and every record and
# pack under results/ must come out equal to the one committed at HEAD.
set -euo pipefail
cd "$(dirname "$0")/.."

run_tier1=0
run_determinism=0
run_regen=0
run_perf=0
run_replay=0
if [ "$#" -eq 0 ]; then
  run_tier1=1 run_determinism=1 run_regen=1 run_perf=1 run_replay=1
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=1 ;;
    --determinism) run_determinism=1 ;;
    --regen) run_regen=1 ;;
    --perf) run_perf=1 ;;
    --replay) run_replay=1 ;;
    *)
      echo "unknown stage: $arg (expected --tier1 | --determinism | --regen | --perf | --replay)" >&2
      exit 2
      ;;
  esac
done

# Passing tests tier-1 must reach, in the release and in the debug run.
# `default-members` makes the plain `cargo test` run every crate's unit
# tests, proptests and doctests plus the root package's; raise the floor
# when adding tests, never lower it to get a pass.
TEST_FLOOR=827

# Where the determinism smokes leave their reduced-size records and
# packs (CI uploads this directory).
SMOKE_DIR=target/smoke-records

# Every committed record and pack under results/, with the bin and the
# arguments that write it: one row per bin, `BIN [ARGS...] : ARTIFACTS`.
# seed_sensitivity is committed at 12 seeds (its bin defaults to 48);
# every other bin runs at its defaults, which are the paper-volume
# tables and the full-size sweeps (the .runpack replay packs are always
# recorded at fast size). BENCH_*.json hold host timings and are not
# listed; `--regen` fails when a committed artifact has no row.
MANIFEST='
table1 : table1.json table1.runpack
table2 : table2.json table2.runpack
table3 : table3.json
figure1 : figure1.json
figure2 : figure2.json
figure3 : figure3.json
kit_probes : kit_probes.json
traffic_timing : traffic_timing.json
mitigated_table2 : mitigated_table2.json
sloppy_phisher : sloppy_phisher.json
cache_blindspot : cache_blindspot.json
community_voting : community_voting.json
baseline_cloaking : baseline_cloaking.json
baseline_redirection : baseline_redirection.json
ablation_capabilities : ablation_capabilities.json
ablation_feeds : ablation_feeds.json
longitudinal : longitudinal.json
funnel : funnel.json
fault_sweep : fault_sweep.json
obs_report : obs_report.json obs_report.runpack
seed_sensitivity 12 : seed_sensitivity.json
fleet_sweep : fleet_sweep.json fleet_sweep.runpack
fleet_chaos : fleet_chaos.json fleet_chaos.runpack
sb_scale : sb_scale.json sb_scale.runpack
resilience : resilience.json
sb_scale_50m : sb_scale_50m.json sb_scale_50m.runpack
'

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

  echo "==> tier-1: build + tests (release)"
  cargo build --release
  tier1_tests release --release
  # The documented tier-1 command, `cargo build --release && cargo test
  # -q`, tests the debug build: only there do the `debug_assert!`s and
  # the overflow checks run.
  echo "==> tier-1: tests (debug)"
  tier1_tests debug
}

# Run the test suite with the given cargo flags and require TEST_FLOOR
# passes: tier1_tests LABEL [CARGO_FLAGS...]
tier1_tests() {
  local label="$1" log passed
  shift
  log="$(mktemp)"
  cargo test -q "$@" 2>&1 | tee "$log"
  passed="$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$log")"
  rm -f "$log"
  if [ "$passed" -lt "$TEST_FLOOR" ]; then
    echo "tier-1 ($label) passed $passed tests, fewer than the floor of $TEST_FLOOR: coverage was lost" >&2
    exit 1
  fi
  echo "tier-1 ($label): $passed tests passed (floor $TEST_FLOOR)"
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

# Rerun every row of the MANIFEST, require each artifact to equal the
# one committed at HEAD, and put the committed files back. Host-timing
# records (BENCH_*.json) a bin rewrites are put back unread.
regen() {
  local bin args artifacts listed f
  listed="$(mktemp)"
  while IFS=: read -r bin artifacts; do
    [ -n "$bin" ] || continue
    for f in $artifacts; do echo "results/$f"; done
  done <<<"$MANIFEST" | sort >"$listed"
  if ! git ls-files 'results/*.json' 'results/*.runpack' | grep -v '^results/BENCH_' | sort |
    diff - "$listed"; then
    echo "the manifest and the artifacts committed under results/ differ (< committed, > listed)" >&2
    rm -f "$listed"
    exit 1
  fi
  # shellcheck disable=SC2046 # one path per line, no spaces
  stash $(cat "$listed") results/BENCH_*.json
  rm -f "$listed"
  cargo build --release -p phishsim-bench --bins
  # Every record is byte-identical at any thread count; two threads
  # bound sb_scale_50m's peak RSS (~187 MB; its table build holds one
  # row map per thread).
  while IFS=: read -r bin artifacts; do
    [ -n "$bin" ] || continue
    read -r bin args <<<"$bin"
    echo "==> $bin $args"
    # shellcheck disable=SC2086 # ARGS split on purpose
    PHISHSIM_SWEEP_THREADS=2 "target/release/$bin" $args >/dev/null
    for f in $artifacts; do
      if ! git show "HEAD:results/$f" | cmp -s - "results/$f"; then
        echo "$bin $args: results/$f differs from the committed one" >&2
        exit 1
      fi
    done
  done <<<"$MANIFEST"
  if [ -n "$(git ls-files --others --exclude-standard results/)" ]; then
    echo "the bins wrote artifacts the manifest does not list:" >&2
    git ls-files --others --exclude-standard results/ >&2
    exit 1
  fi
  restore
  echo "every committed record and pack regenerates byte-identically"
}

determinism() {
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
[ "$run_regen" -eq 1 ] && regen
[ "$run_replay" -eq 1 ] && replay

echo "All requested checks passed."
