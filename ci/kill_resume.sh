#!/usr/bin/env bash
# Kill-resume chaos check: SIGKILL a checkpointing campaign mid-run, resume
# it from its on-disk snapshots, and prove the resumed run (a) really did
# restore mid-flight (journaled resumed_from_cycle > 0) and (b) finished
# with a state digest bit-identical to an uninterrupted reference run.
#
# Usage: ci/kill_resume.sh [workdir]
#   PRA_BIN overrides the pra binary (default: target/release/pra).
set -euo pipefail

PRA_BIN="${PRA_BIN:-target/release/pra}"
WORK="${1:-killresume-work}"
rm -rf "$WORK"
mkdir -p "$WORK"

make_matrix() { # $1 = output file, $2 = checkpoint dir
    cat > "$1" <<EOF
schemes = ["pra"]
workloads = ["GUPS"]
seeds = [1]
instructions = 1000000
warmup = 100000
fault_plans = ["docs/faults/chaos.toml"]
recovery = true
checkpoint_every = 5000
checkpoint_dir = "$2"
EOF
}

echo "== reference: uninterrupted campaign =="
make_matrix "$WORK/ref.toml" "$WORK/ref-snaps"
"$PRA_BIN" campaign run --matrix "$WORK/ref.toml" \
    --journal "$WORK/ref.jsonl" --jobs 1

echo "== victim: campaign killed mid-run with SIGKILL =="
make_matrix "$WORK/victim.toml" "$WORK/victim-snaps"
mkdir -p "$WORK/victim-snaps"
"$PRA_BIN" campaign run --matrix "$WORK/victim.toml" \
    --journal "$WORK/victim.jsonl" --jobs 1 &
pid=$!

# Wait until the in-flight runs have committed snapshots to disk, then
# SIGKILL the whole campaign — no journal line has been written for them,
# so the resume below must re-execute them from their checkpoints.
deadline=$((SECONDS + 120))
while kill -0 "$pid" 2>/dev/null; do
    snaps=$(find "$WORK/victim-snaps" -name '*.snap' | wc -l || true)
    if [ "$snaps" -ge 3 ]; then
        kill -9 "$pid"
        echo "killed campaign (pid $pid) after $snaps checkpoints"
        break
    fi
    if [ "$SECONDS" -ge "$deadline" ]; then
        echo "FAIL: no checkpoints appeared within 120 s"
        kill -9 "$pid" 2>/dev/null || true
        exit 1
    fi
    sleep 0.05
done
wait "$pid" 2>/dev/null || true

if grep -q '"status"' "$WORK/victim.jsonl" 2>/dev/null; then
    echo "FAIL: the kill landed after the run was journaled — raise instructions"
    exit 1
fi

echo "== resume: surviving runs restore from their snapshots =="
"$PRA_BIN" campaign resume --matrix "$WORK/victim.toml" \
    --journal "$WORK/victim.jsonl" --jobs 1 | tee "$WORK/resume.out"

echo "== verify: resumed mid-flight, digest identical to reference =="
python3 - "$WORK/ref.jsonl" "$WORK/victim.jsonl" <<'EOF'
import json, sys

def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            # The config digest covers the seed: it alone keys a run.
            runs[r["config"]] = r
    return runs

ref, victim = load(sys.argv[1]), load(sys.argv[2])
assert ref, "reference journal is empty"
assert set(ref) == set(victim), (sorted(ref), sorted(victim))
resumed = 0
for key, r in ref.items():
    v = victim[key]
    assert r["state_digest"] == v["state_digest"], (
        f"{key}: digest {v['state_digest']} != reference {r['state_digest']}"
    )
    assert r["status"] == v["status"], (key, r["status"], v["status"])
    if v["resumed_from_cycle"] > 0:
        resumed += 1
assert resumed >= 1, "no run resumed from a checkpoint (resumed_from_cycle == 0 everywhere)"
print(f"kill-resume OK: {len(victim)} run(s), {resumed} resumed mid-flight, digests identical")
EOF

grep -q "checkpoint recovery: 1 run resumed" "$WORK/resume.out"
echo "kill-resume chaos check passed"
