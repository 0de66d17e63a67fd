#!/usr/bin/env bash
# Lint gate: prove that every check guarding the workspace's correctness
# contracts really fires. Two kinds of check are covered:
#
#   * the rules handed to rustc and clippy (root Cargo.toml lint table,
#     clippy.toml, the deny attributes of the crates the DRAM tick calls);
#   * the behaviour tests that replaced the old custom analyzer:
#     tests/metric_registry.rs (docs/metrics.md against what runs produce)
#     and crates/sim-fault/tests/checker_parity.rs (scheduler and protocol
#     checker each enforce every TimingParams field).
#
# It copies the working tree to a throwaway directory and never edits the
# checkout. On the copy it
#   1. runs clippy and both tests unmodified and requires them to pass (the
#      control);
#   2. requires every manifest to opt in with `[lints] workspace = true`;
#   3. plants one violation at a time and requires the check that guards
#      it to fail, naming the violation in its output.
#
# Usage: ci/lint_gate.sh   (the copy lives in a mktemp directory that is
# removed on exit; set TMPDIR to choose where)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
tar -C "$ROOT" --exclude=./.git --exclude=target -cf - . | tar -C "$WORK" -xf -
cd "$WORK"
export CARGO_TARGET_DIR="$WORK/target"

clippy() {
    cargo clippy --workspace --all-targets --offline --quiet -- -D warnings
}
metric_registry() {
    cargo test --offline --quiet --test metric_registry
}
checker_parity() {
    cargo test --offline --quiet -p sim-fault --test checker_parity
}

echo "== control: clippy and both tests pass on the unmodified copy =="
clippy
metric_registry
checker_parity

echo "== every manifest opts in to the workspace lint table =="
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if ! grep -Pzq '\n\[lints\]\nworkspace = true\n' "$manifest"; then
        echo "FAIL: $manifest lacks '[lints] workspace = true'"
        exit 1
    fi
done

failures=0
# seed FILE EDIT EXPECT CHECK: apply EDIT to FILE, require CHECK (a
# function above) to fail with EXPECT in its output, then restore FILE.
# EDIT is a sed script, or `insert:CODE` to plant CODE above the file's
# test module (so the seed trips nothing but the rule under test). EXPECT
# and the output are compared with `-` read as `_`, since rustc prints
# command-line levels as `-F unsafe-code`.
seed() {
    local file="$1" edit="$2" expect="$3" check="$4" out status=0
    cp "$file" "$file.orig"
    if [[ "$edit" == insert:* ]]; then
        SEED="${edit#insert:}" awk '!done && /^#\[cfg\(test\)\]/ { print ENVIRON["SEED"]; done = 1 }
            { print }
            END { if (!done) print ENVIRON["SEED"] }' "$file.orig" > "$file"
    else
        sed -e "$edit" "$file.orig" > "$file"
    fi
    if cmp -s "$file" "$file.orig"; then
        echo "FAIL: the seed for '$expect' did not change $file"
        mv "$file.orig" "$file"
        failures=$((failures + 1))
        return
    fi
    out="$("$check" 2>&1)" || status=$?
    mv "$file.orig" "$file"
    # The restored file is older than the seeded build; make cargo see it.
    touch "$file"
    if [ "$status" -ne 0 ] && grep -qF -- "${expect//-/_}" <<<"${out//-/_}"; then
        echo "ok:   $check reports '$expect' ($file)"
    else
        echo "FAIL: $check did not report '$expect' ($file, exit $status)"
        echo "$out" | tail -n 20
        failures=$((failures + 1))
    fi
}

echo "== seeded violations: rustc and clippy =="
seed crates/dram-sim/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed(x: Option<u8>) -> u8 { x.unwrap() }' clippy::unwrap_used clippy
# Channel::tick -> MetricsRegistry::observe -> Log2Histogram::record.
seed crates/sim-obs/src/hist.rs \
    's/self.counts\[Self::bucket_index(value)\] += 1;/*self.counts.get_mut(Self::bucket_index(value)).unwrap() += 1;/' \
    clippy::unwrap_used clippy
seed crates/sim-recover/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed() { panic!("seed") }' clippy::panic clippy
seed crates/cache-sim/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed() -> std::time::Instant { std::time::Instant::now() }' disallowed_methods clippy
seed crates/sim-obs/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed() -> u8 { unsafe { std::hint::unreachable_unchecked() } }' unsafe_code clippy
seed crates/dram-sim/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed(mem: &mut MemorySystem, r: mem_model::MemRequest) { let _ = mem.try_enqueue(r); }' \
    clippy::let_underscore_must_use clippy
seed crates/dram-sim/src/lib.rs 'insert:/// Seed.
pub fn lint_gate_seed(mem: &mut MemorySystem, r: mem_model::MemRequest) { mem.try_enqueue(r).ok(); }' \
    clippy::unused_result_ok clippy
seed crates/sim-obs/src/lib.rs 'insert:/// Seed.
#[expect(clippy::unwrap_used, reason = "x")]
pub fn lint_gate_seed() {}' unfulfilled_lint_expectations clippy
seed crates/sim-obs/src/lib.rs 'insert:#[allow(dead_code)]
fn lint_gate_seed() {}' allow_attributes clippy

echo "== seeded violations: docs/metrics.md against what runs produce =="
seed crates/dram-sim/src/stats.rs \
    's/^        set("dram.cycles", self.cycles);$/&\n        set("dram.lint_gate_seed", 1);/' \
    'dram.lint_gate_seed (counter) is produced but not declared' metric_registry
seed docs/metrics.md \
    's/^| `dram.cycles` | counter |.*$/&\n| `dram.lint_gate_seed` | counter | Seed. |/' \
    'dram.lint_gate_seed (counter) is declared in docs/metrics.md but no run produced it' metric_registry
seed docs/metrics.md 's/^| `dram.cycles` | counter |/| `dram.cycles` | gauge |/' \
    'dram.cycles is produced as a counter but declared a gauge' metric_registry
seed crates/dram-sim/src/stats.rs 's/set("dram.cycles",/set("dram.Cycles",/' \
    'dram.Cycles (counter) breaks the naming rule' metric_registry

echo "== seeded violations: scheduler and checker timing parity =="
seed crates/dram-sim/src/bank.rs 's/\.max(burst_end + t\.twr)/.max(burst_end)/' \
    'the scheduler ignores timing the checker enforces' checker_parity
seed crates/dram-sim/src/checker.rs '/min_start += t\.twtr;/d' \
    'the checker ignores twtr' checker_parity

if [ "$failures" -ne 0 ]; then
    echo "lint gate: $failures seeded violation(s) went unreported"
    exit 1
fi
echo "lint gate: every seeded violation is reported"
