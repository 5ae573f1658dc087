#!/usr/bin/env sh
# Kill-and-resume smoke over the REAL gluefl binary (CTest:
# ckpt_resume_smoke, both Release and ASan legs):
#
#   1. run the reference campaign uninterrupted              -> ref.json
#   2. rerun with --checkpoint-every and --crash-at-round;
#      the process dies with exit code 3 (simulated crash)
#   3. `gluefl resume` from the newest snapshot              -> resumed.json
#   4. the two JSON summaries must be byte-identical
#
# Then a lineage fork, over a 6-round campaign with a head every round:
#
#   5. crash at round 4 (heads 1-4 on one residual-journal chain)
#   6. resume from ckpt-00000002.gfc, NOT the newest, into the same
#      directory, saving every round and crashing at round 4 again: a
#      second lineage appends to the journal and rewrites heads 3 and 4
#   7. resume from the new ckpt-00000004.gfc and from the first lineage's
#      ckpt-00000001.gfc; both JSON summaries must be byte-identical to
#      the uninterrupted 6-round reference
#
# Usage: ckpt_resume_smoke.sh /path/to/gluefl
set -eu

bin=${1:?usage: ckpt_resume_smoke.sh /path/to/gluefl}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

common="--strategy gluefl --dataset femnist --rounds 4 --scale 0.02 \
  --eval-every 1 --seed 9"

echo "== uninterrupted reference =="
"$bin" run $common --json "$work/ref.json" > /dev/null

echo "== crash at round 3 (checkpoint every 2) =="
rc=0
"$bin" run $common --checkpoint-every 2 --checkpoint-dir "$work" \
  --crash-at-round 3 > "$work/crash.out" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "error: expected the simulated crash to exit 3, got $rc" >&2
  cat "$work/crash.out" >&2
  exit 1
fi

ckpt="$work/ckpt-00000002.gfc"
if [ ! -f "$ckpt" ]; then
  echo "error: expected checkpoint $ckpt was not written" >&2
  exit 1
fi

echo "== resume from $ckpt =="
"$bin" resume "$ckpt" --json "$work/resumed.json" > /dev/null

same_json() {
  if ! cmp -s "$1" "$2"; then
    echo "error: $2 differs from the uninterrupted reference" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

same_json "$work/ref.json" "$work/resumed.json"
echo "ckpt resume smoke: resumed JSON is byte-identical to the reference"

expect_crash() {
  rc=0
  "$@" > "$work/crash.out" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "error: expected the simulated crash to exit 3, got $rc" >&2
    cat "$work/crash.out" >&2
    exit 1
  fi
}

fork="$work/fork"
mkdir "$fork"
six="--strategy gluefl --dataset femnist --rounds 6 --scale 0.02 \
  --eval-every 1 --seed 9"

echo "== lineage fork: 6-round reference =="
"$bin" run $six --json "$work/ref6.json" > /dev/null

echo "== lineage fork: crash at round 4 (checkpoint every round) =="
expect_crash "$bin" run $six --checkpoint-every 1 --checkpoint-dir "$fork" \
  --crash-at-round 4

echo "== lineage fork: resume ckpt-00000002.gfc into the same directory =="
expect_crash "$bin" resume "$fork/ckpt-00000002.gfc" --checkpoint-every 1 \
  --checkpoint-dir "$fork" --crash-at-round 4

for b in 00000004 00000001; do
  echo "== lineage fork: resume ckpt-$b.gfc =="
  "$bin" resume "$fork/ckpt-$b.gfc" --json "$work/fork-$b.json" > /dev/null
  same_json "$work/ref6.json" "$work/fork-$b.json"
done
echo "ckpt resume smoke: both lineages resume byte-identically"
