#!/usr/bin/env bash
# Repo gate: format, lints, the docs' references, tier-1 tests, the
# determinism smokes, the regeneration of every committed artifact, and
# replay verification of the committed .runpack artifacts.
#
# Composable stages, so CI tiers and reviewers run the same script:
#
#   ./scripts/check.sh                # everything (pre-merge gate)
#   ./scripts/check.sh --tier1        # fmt + workspace clippy + doc references + build + tests, release and debug (>= TEST_FLOOR pass each), vendored crates' tests
#   ./scripts/check.sh --determinism  # thread-count smokes
#   ./scripts/check.sh --regen        # rerun the artifact manifest, results/ must equal HEAD
#   ./scripts/check.sh --replay       # verify committed .runpack artifacts
#
# Stages compose: `./scripts/check.sh --determinism --replay` runs both.
# Performance is measured by phishbench (crates/bench/src/bin/phishbench),
# not by this script. Determinism smokes run each sweep at two thread counts
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
run_replay=0
if [ "$#" -eq 0 ]; then
  run_tier1=1 run_determinism=1 run_regen=1 run_replay=1
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=1 ;;
    --determinism) run_determinism=1 ;;
    --regen) run_regen=1 ;;
    --replay) run_replay=1 ;;
    *)
      echo "unknown stage: $arg (expected --tier1 | --determinism | --regen | --replay)" >&2
      exit 2
      ;;
  esac
done

# Passing tests tier-1 must reach, in the release and in the debug run.
# `default-members` makes the plain `cargo test` run every crate's unit
# tests, proptests and doctests plus the root package's; raise the floor
# when adding tests, never lower it to get a pass.
TEST_FLOOR=837

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

  doc_refs

  echo "==> tier-1: build + tests (release)"
  cargo build --release
  tier1_tests release --release
  # The documented tier-1 command, `cargo build --release && cargo test
  # -q`, tests the debug build: only there do the `debug_assert!`s and
  # the overflow checks run.
  echo "==> tier-1: tests (debug)"
  tier1_tests debug
  vendor_tests
}

# The root manifest excludes vendor/ from the workspace, so the plain
# `cargo test` never builds the vendored crates' own tests (the RNG's
# keystream, proptest's runner, the serde stand-ins). Run each crate's
# suite from its own manifest; any failure fails the stage.
vendor_tests() {
  local manifest
  for manifest in vendor/*/Cargo.toml; do
    echo "==> vendored tests: $manifest"
    cargo test --offline -q --manifest-path "$manifest" --target-dir target/vendor-tests
  done
}

# True when any of the given paths exists (unmatched globs stay literal).
found() {
  local f
  for f in "$@"; do [ -e "$f" ] && return 0; done
  return 1
}

# The docs must name only what exists: every backticked path under
# crates/, src/, tests/, scripts/, results/, examples/ or vendor/, every
# `--bin`/`--bench` target, and every backticked `crate::module[::item]`
# of a workspace crate, whose module file (or, for a root item, lib.rs)
# must hold the item as a word outside comments. Names every stale
# reference, then fails.
doc_refs() {
  echo "==> doc references"
  local doc ref path kind name file item stale=()
  local mod_re='^(phishsim_)?([a-z]+)::([a-z_0-9]+)(::([A-Za-z_0-9]+))?'
  for doc in README.md DESIGN.md EXPERIMENTS.md results/README.md; do
    while read -r kind name; do
      case "$kind" in
        --bin) found crates/*/src/bin/"$name".rs crates/*/src/bin/"$name"/main.rs src/bin/"$name".rs ;;
        --bench) found crates/*/benches/"$name".rs benches/"$name".rs ;;
      esac || stale+=("$doc: $kind $name")
    done < <(tr '\n' ' ' <"$doc" | grep -oE -- '--(bin|bench) [A-Za-z0-9_]+' | sort -u)
    # Inline code spans (fenced blocks dropped, lines joined so a span
    # may wrap); `crate::{a,b}` spans split into one span per module.
    while IFS= read -r ref; do
      path="${ref%% *}" path="${path%%:*}"
      case "$path" in
        *'*'* | *'<'*) ;;
        crates/* | src/* | tests/* | scripts/* | results/* | examples/* | vendor/*)
          [ -e "$path" ] || stale+=("$doc: $ref") ;;
      esac
      [[ $ref =~ $mod_re ]] && [ -d "crates/${BASH_REMATCH[2]}" ] || continue
      file="crates/${BASH_REMATCH[2]}/src/${BASH_REMATCH[3]}" item="${BASH_REMATCH[5]}"
      if [ -e "$file.rs" ]; then
        file="$file.rs"
      elif [ -e "$file/mod.rs" ]; then
        file="$file/mod.rs"
      else
        file="crates/${BASH_REMATCH[2]}/src/lib.rs" item="${BASH_REMATCH[3]}"
      fi
      [ -z "$item" ] || awk -v w="$item" '!/^[[:space:]]*\/\// &&
        $0 ~ "(^|[^A-Za-z0-9_])" w "([^A-Za-z0-9_]|$)" { f = 1; exit } END { exit !f }' "$file" ||
        stale+=("$doc: $ref")
    done < <(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence { printf "%s ", $0 }' "$doc" |
      awk -v RS='`' 'NR % 2 == 0 && /^[a-z_]+::\{[^}]*\}$/ {
          p = substr($0, 1, index($0, "{") - 1); n = split(substr($0, length(p) + 2), m, /[,} ]+/)
          for (i = 1; i < n; i++) print p m[i]; next }
        NR % 2 == 0' | sort -u)
  done
  if [ "${#stale[@]}" -gt 0 ]; then
    printf '  %s\n' "${stale[@]}" >&2
    echo "${#stale[@]} stale reference(s) in the docs" >&2
    exit 1
  fi
  echo "every path, target and module the docs name exists"
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

# Rerun every row of the MANIFEST, require each artifact to equal the
# one committed at HEAD, and put the committed files back. Host-timing
# records (BENCH_*.json) a bin rewrites are put back unread. Every
# artifact that differs is named before the stage fails, so a change
# that moves records on purpose sees exactly which ones moved.
regen() {
  local bin args artifacts listed f
  local moved=()
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
  # bound sb_scale_50m's peak RSS (~70 MB; its table build holds one
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
        moved+=("results/$f")
      fi
    done
  done <<<"$MANIFEST"
  if [ -n "$(git ls-files --others --exclude-standard results/)" ]; then
    echo "the bins wrote artifacts the manifest does not list:" >&2
    git ls-files --others --exclude-standard results/ >&2
    exit 1
  fi
  if [ "${#moved[@]}" -gt 0 ]; then
    echo "${#moved[@]} artifact(s) differ from HEAD:" >&2
    printf '  %s\n' "${moved[@]}" >&2
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
[ "$run_determinism" -eq 1 ] && determinism
[ "$run_regen" -eq 1 ] && regen
[ "$run_replay" -eq 1 ] && replay

echo "All requested checks passed."
