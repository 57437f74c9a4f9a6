#!/usr/bin/env bash
# Differential-checker smoke: run bgcheck's self-test (the checker must
# catch every deliberately injected canary mutation), replay the
# checked-in seed corpus against its recorded digests (16 pins: 4
# scripts × 2 kernels × 2 modes), and fuzz a bounded budget of freshly
# generated programs, clean and faulted. Each program runs 10 times:
# per kernel (cnk, fwk), the 2 modes fast and heap — fast is the
# oracle — plus 3 oracle-mode repetitions through the shard pool. Any
# divergence leaves a minimized, replayable repro script and the
# failing run's replayed trace tail in the artifacts directory (CI
# uploads it on every run). Last, a repeated value flag must be refused
# as a usage error:
#
#   ./ci/check_smoke.sh [artifacts-dir] [fuzz-budget]
set -euo pipefail

out="${1:-check-smoke}"
budget="${2:-150}"
mkdir -p "$out"

bin=./target/release/bgcheck
[ -x "$bin" ] || { echo "error: $bin not built (cargo build --release first)" >&2; exit 1; }

# 1) The checker checks itself: a checker that stopped detecting
#    divergence would pass everything silently. --out saves one
#    annotated .bgck repro + replayed trace tail (the failing leg rerun
#    with its trace kept, its last entries) per detected canary; a
#    canary failure without both artifacts is a checker regression.
"$bin" selftest --out "$out/selftest"
for name in seedskew extrafault droptailop digestxor cycleskew; do
  [ -s "$out/selftest/canary-$name.bgck" ] \
    || { echo "FAIL: selftest wrote no canary-$name.bgck repro" >&2; exit 1; }
  [ -s "$out/selftest/canary-$name.flight.txt" ] \
    || { echo "FAIL: canary-$name detected without a replayed trace tail" >&2; exit 1; }
done
echo "check smoke OK: 5 canary repros each carry a replayed trace tail"

# 2) Digest-pinned regression corpus: every script must replay to the
#    exact (digest, final cycle) recorded when it was minted.
"$bin" corpus tests/corpus

# 3) Bounded fuzz over fresh programs; a failure writes a minimized
#    repro into "$out" and exits nonzero.
"$bin" fuzz --budget "$budget" --seed "${BGCHECK_SEED:-424242}" --out "$out" \
  | tail -1

echo "check smoke OK: selftest + corpus + $budget fuzzed programs clean"

# 4) A repeated value flag is a usage error (exit 2), not a silent
#    last-one-wins budget.
rc=0
"$bin" fuzz --budget 1 --budget 2 >/dev/null 2>"$out/dup.err" || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: fuzz --budget 1 --budget 2 exited $rc, expected 2" >&2; exit 1; }
grep -q "duplicate --budget" "$out/dup.err" \
  || { echo "FAIL: the usage error did not name --budget" >&2; exit 1; }
echo "check smoke OK: a repeated --budget is refused with exit 2"
