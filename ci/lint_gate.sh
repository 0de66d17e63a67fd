#!/usr/bin/env bash
# Lint gate: prove that each rule the workspace hands to rustc and clippy
# really fires under the real configuration (root Cargo.toml lint table,
# clippy.toml, the hot crates' deny attributes).
#
# It copies the working tree to a throwaway directory and never edits the
# checkout. On the copy it
#   1. runs clippy unmodified and requires it to pass (the control);
#   2. requires every manifest to opt in with `[lints] workspace = true`;
#   3. plants one violation at a time and requires clippy to fail with the
#      expected lint name in its output.
#
# Usage: ci/lint_gate.sh   (the copy lives in a mktemp directory that is
# removed on exit)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
tar -C "$ROOT" --exclude=./.git --exclude=target -cf - . | tar -C "$WORK" -xf -
cd "$WORK"

clippy() {
    cargo clippy --workspace --all-targets --offline --quiet -- -D warnings
}

echo "== control: clippy passes on the unmodified copy =="
clippy

echo "== every manifest opts in to the workspace lint table =="
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if ! grep -Pzq '\n\[lints\]\nworkspace = true\n' "$manifest"; then
        echo "FAIL: $manifest lacks '[lints] workspace = true'"
        exit 1
    fi
done

failures=0
# seed FILE LINT CODE: plant CODE in FILE (above its test module, so the
# seed trips nothing but LINT), require clippy to fail citing LINT, then
# restore FILE. Lint names are compared with `-` read as `_`, since rustc
# prints command-line levels as `-F unsafe-code`.
seed() {
    local file="$1" lint="$2" out status=0
    cp "$file" "$file.orig"
    SEED="$3" awk '!done && /^#\[cfg\(test\)\]/ { print ENVIRON["SEED"]; done = 1 }
        { print }
        END { if (!done) print ENVIRON["SEED"] }' "$file.orig" > "$file"
    out="$(clippy 2>&1)" || status=$?
    mv "$file.orig" "$file"
    if [ "$status" -ne 0 ] && grep -q "$lint" <<<"${out//-/_}"; then
        echo "ok:   $lint fires ($file)"
    else
        echo "FAIL: $lint did not fire ($file, clippy exit $status)"
        echo "$out" | tail -n 20
        failures=$((failures + 1))
    fi
}

echo "== seeded violations =="
seed crates/dram-sim/src/lib.rs clippy::unwrap_used \
    '/// Seed.
pub fn lint_gate_seed(x: Option<u8>) -> u8 { x.unwrap() }'
seed crates/sim-recover/src/lib.rs clippy::panic \
    '/// Seed.
pub fn lint_gate_seed() { panic!("seed") }'
seed crates/cache-sim/src/lib.rs disallowed_methods \
    '/// Seed.
pub fn lint_gate_seed() -> std::time::Instant { std::time::Instant::now() }'
seed crates/sim-obs/src/lib.rs unsafe_code \
    '/// Seed.
pub fn lint_gate_seed() -> u8 { unsafe { std::hint::unreachable_unchecked() } }'
seed crates/dram-sim/src/lib.rs clippy::let_underscore_must_use \
    '/// Seed.
pub fn lint_gate_seed(mem: &mut MemorySystem, r: mem_model::MemRequest) { let _ = mem.try_enqueue(r); }'
seed crates/dram-sim/src/lib.rs clippy::unused_result_ok \
    '/// Seed.
pub fn lint_gate_seed(mem: &mut MemorySystem, r: mem_model::MemRequest) { mem.try_enqueue(r).ok(); }'
seed crates/sim-obs/src/lib.rs unfulfilled_lint_expectations \
    '/// Seed.
#[expect(clippy::unwrap_used, reason = "x")]
pub fn lint_gate_seed() {}'
seed crates/sim-obs/src/lib.rs allow_attributes \
    '#[allow(dead_code)]
fn lint_gate_seed() {}'

if [ "$failures" -ne 0 ]; then
    echo "lint gate: $failures replacement lint(s) did not fire"
    exit 1
fi
echo "lint gate: every replacement lint fires"
