#!/usr/bin/env bash
# Service smoke: check that a zero count flag is refused before
# anything serves, boot bgserve, submit the same pinned-seed job twice,
# and assert the second answer is a cache hit with a bit-identical
# digest — confirmed by the server's --paranoid re-run. Then exercise
# the live-job path (a tight --timeout-cycles budget must yield a
# "timeout" reply that is never memoized, with the server still
# serving), run one 1 024-node job and check that no monitor line grows
# with it, render the monitor stream — state-monitor tree included —
# through bgtop, and run the in-process selfcheck twice (4 concurrent
# sessions differentially compared against one-shot oracle runs; then
# 2 sessions on one run slot, where parked stewards run every miss and
# every paranoid re-run):
#
#   ./ci/serve_smoke.sh [artifacts-dir]
set -euo pipefail

out="${1:-serve-smoke}"
mkdir -p "$out"

bin=./target/release/bgserve
bgtop=./target/release/bgtop
[ -x "$bin" ] || { echo "error: $bin not built (cargo build --release first)" >&2; exit 1; }

sock="$out/bgserve.sock"
rm -f "$sock"

# 0) A zero count is a usage error that names its flag: `serve` exits
#    without listening (the timeout only bounds a server that would
#    otherwise serve forever) and `selfcheck` without running a job.
zero_sock="$out/zero.sock"
rm -f "$zero_sock"
refused() { # <flag> <command...>: must exit nonzero, naming <flag>
  local flag=$1 rc=0 err
  shift
  err=$(timeout 10 "$@" 2>&1) || rc=$?
  if [ "$rc" = 0 ] || [ "$rc" = 124 ]; then
    echo "FAIL: $flag 0 was not refused (exit $rc)" >&2; exit 1
  fi
  grep -q -- "$flag must be at least 1 (got 0)" <<<"$err" \
    || { echo "FAIL: refusing $flag 0 did not name the flag: $err" >&2; exit 1; }
}
refused --threads "$bin" serve --listen "unix:$zero_sock" --threads 0
[ ! -e "$zero_sock" ] || { echo "FAIL: serve --threads 0 bound its socket" >&2; exit 1; }
refused --cache-cap "$bin" serve --listen "unix:$zero_sock" --cache-cap 0
[ ! -e "$zero_sock" ] || { echo "FAIL: serve --cache-cap 0 bound its socket" >&2; exit 1; }
refused --jobs "$bin" selfcheck --jobs 0
echo "serve smoke OK: zero --threads, --cache-cap and --jobs refused, naming the flag"

# 1) Boot the service with paranoid cache verification and a live
#    monitor stream; wait until it answers a ping.
"$bin" serve --listen "unix:$sock" --threads 4 --paranoid \
  --monitor-out "$out/monitor.jsonl" --force &
server=$!
trap 'kill "$server" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  "$bin" ping --listen "unix:$sock" >/dev/null 2>&1 && break
  sleep 0.1
done
"$bin" ping --listen "unix:$sock"

# 2) The same pinned-seed job twice. Field extraction is on the --json
#    output: {"job":..,"digest":"0x..","cached":..,"paranoid":".."}.
field() { sed -n "s/.*\"$2\":\"\\?\\([^\",}]*\\)\"\\?[,}].*/\\1/p" <<<"$1"; }

first=$("$bin" submit --listen "unix:$sock" --gen-seed 424242 --kernel cnk --json)
second=$("$bin" submit --listen "unix:$sock" --gen-seed 424242 --kernel cnk --json)
echo "$first"  | tee "$out/first.json"
echo "$second" | tee "$out/second.json"

[ "$(field "$first" cached)" = "false" ] \
  || { echo "FAIL: first submission was not a fresh run" >&2; exit 1; }
[ "$(field "$second" cached)" = "true" ] \
  || { echo "FAIL: second submission was not a cache hit" >&2; exit 1; }
[ -n "$(field "$first" digest)" ] \
  || { echo "FAIL: no digest in first result" >&2; exit 1; }
[ "$(field "$first" digest)" = "$(field "$second" digest)" ] \
  || { echo "FAIL: cache hit digest differs from fresh run" >&2; exit 1; }
[ "$(field "$first" final_cycle)" = "$(field "$second" final_cycle)" ] \
  || { echo "FAIL: cache hit final cycle differs from fresh run" >&2; exit 1; }
[ "$(field "$second" paranoid)" = "ok" ] \
  || { echo "FAIL: paranoid re-run did not confirm the cached digest" >&2; exit 1; }
echo "serve smoke OK: pinned-seed job twice, second from cache, digest bit-identical"

# 3) The live-job leg: a fresh-seed job with an impossible cycle budget
#    must come back "timeout", must NOT be memoized (the follow-up
#    submission of the same job is a fresh run, and only then a cache
#    hit), and the server keeps serving normal jobs on the same socket.
to=$("$bin" submit --listen "unix:$sock" --gen-seed 515151 --kernel fwk \
  --timeout-cycles 1 --json)
echo "$to" | tee "$out/timeout.json"
[ "$(field "$to" outcome)" = "timeout" ] \
  || { echo "FAIL: tight cycle budget did not time out" >&2; exit 1; }
[ "$(field "$to" cached)" = "false" ] \
  || { echo "FAIL: timed-out job answered from cache" >&2; exit 1; }
retry=$("$bin" submit --listen "unix:$sock" --gen-seed 515151 --kernel fwk --json)
echo "$retry" | tee "$out/timeout-retry.json"
[ "$(field "$retry" outcome)" = "completed" ] \
  || { echo "FAIL: retry after timeout did not complete" >&2; exit 1; }
[ "$(field "$retry" cached)" = "false" ] \
  || { echo "FAIL: truncated timeout triple was memoized (poisoned cache)" >&2; exit 1; }
replay=$("$bin" submit --listen "unix:$sock" --gen-seed 515151 --kernel fwk --json)
[ "$(field "$replay" cached)" = "true" ] \
  || { echo "FAIL: completed retry did not enter the cache" >&2; exit 1; }
[ "$(field "$retry" digest)" = "$(field "$replay" digest)" ] \
  || { echo "FAIL: cached replay digest differs from the fresh retry" >&2; exit 1; }
status=$("$bin" status --listen "unix:$sock")
grep -q "1 timeouts" <<<"$status" \
  || { echo "FAIL: status did not count the timeout: $status" >&2; exit 1; }
grep -q "0 session drops" <<<"$status" \
  || { echo "FAIL: clean one-shot submits were miscounted as drops: $status" >&2; exit 1; }
echo "serve smoke OK: timeout reported, never cached, server kept serving"

# 4) A monitor line carries machine-wide totals, not a record per node:
#    after a 1 024-node job every line stays under 4 KiB (a per-node
#    array made it ~69 KB, and every later line carried it too).
cat > "$out/rack.bgck" <<'EOF_SCRIPT'
nodes 1024
seed 1024
op compute 5000
op gettid
op allreduce 16
EOF_SCRIPT
rack=$("$bin" submit --listen "unix:$sock" --script "$out/rack.bgck" --kernel cnk --json)
echo "$rack" | tee "$out/rack.json"
[ "$(field "$rack" outcome)" = "completed" ] \
  || { echo "FAIL: the 1024-node job did not complete" >&2; exit 1; }
long=$(awk 'length($0) > 4096 { n++ } END { print n + 0 }' "$out/monitor.jsonl")
[ "$long" = "0" ] \
  || { echo "FAIL: $long monitor line(s) over 4 KiB" >&2; exit 1; }
echo "serve smoke OK: every monitor line under 4 KiB after a 1024-node job"

# 5) The monitor stream the server published renders through bgtop,
#    including the per-session state-monitor tree.
if [ -x "$bgtop" ]; then
  "$bgtop" "$out/monitor.jsonl" --once | tee "$out/bgtop-frame.txt" | head -5
  "$bgtop" "$out/monitor.jsonl" --once --sessions > "$out/bgtop-sessions.txt"
  grep -q "sessions:" "$out/bgtop-sessions.txt" \
    || { echo "FAIL: bgtop --sessions printed no session section" >&2; exit 1; }
  grep -q "jobs/" "$out/bgtop-sessions.txt" \
    || { echo "FAIL: bgtop --sessions shows no job nodes" >&2; exit 1; }
  echo "serve smoke OK: bgtop --sessions renders the state-monitor tree"
else
  echo "note: $bgtop not built, skipping render check"
fi

"$bin" status --listen "unix:$sock" | tee "$out/status.txt"
"$bin" shutdown --listen "unix:$sock"
wait "$server"
trap - EXIT

# 6) The service leg of the differential matrix: 4 concurrent sessions,
#    modes swept across the matrix, every triple compared against an
#    in-process oracle run, every resubmission paranoid-verified, plus
#    the built-in timeout/no-poisoned-cache leg.
"$bin" selfcheck --sessions 4 --jobs 2 --threads 4 | tee "$out/selfcheck.txt"

# 7) One run slot, so at most one steward parks between jobs: the 64
#    misses and 64 paranoid re-runs of 2 sessions run on woken parked
#    stewards (a second one starts only while both sessions have a job
#    in flight), each compared against its oracle run.
"$bin" selfcheck --sessions 2 --jobs 32 --threads 1 | tee "$out/selfcheck-one-slot.txt"

echo "serve smoke OK: cache identity + paranoid + live jobs + concurrent selfcheck clean"
