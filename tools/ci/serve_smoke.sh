#!/usr/bin/env bash
# Serve smoke (docs/SERVING.md): boot the sea_serve daemon on an ephemeral
# port, replay serve_load's mixed cold/repeat/perturbed script against it,
# and prove the full service contract in one pass —
#
#   * every request answered, zero errors (serve_load exits non-zero
#     otherwise, and /varz errors must read 0),
#   * the warm-start cache actually hit (exact + nearby > 0 on /varz), and
#     the nearby tier answered at least half of the perturbed requests
#     (each carries distinct totals, so none can be an exact replay),
#   * nothing was shed at smoke scale,
#   * SIGTERM drains cleanly: the daemon exits 0 after "drained",
#   * the per-request wide-event log passes solve_log_check with one
#     converged line per request.
#
#   tools/ci/serve_smoke.sh [build-dir] [bench-json-out]
#
# The second argument renames the serve_load bench document (default
# BENCH_serve.json) so the perf and nightly jobs can produce candidate
# files for bench_diff without clobbering the committed baseline.
set -euo pipefail
BUILD_DIR="${1:-build}"
BENCH_OUT="${2:-BENCH_serve.json}"
REQUESTS=200  # serve_load --quick request count
PERTURBED=80  # serve_load's default --perturb-pct 40 of those

rm -f serve_port.txt serve_log.jsonl "$BENCH_OUT"
"$BUILD_DIR"/tools/sea_serve --listen 0 --listen-port-file serve_port.txt \
  --solve-log serve_log.jsonl > serve_smoke.out 2>&1 &
pid=$!
for i in $(seq 1 100); do
  [ -s serve_port.txt ] && break
  sleep 0.2
done
[ -s serve_port.txt ] || { cat serve_smoke.out; exit 1; }
port=$(cat serve_port.txt)
echo "sea_serve on 127.0.0.1:$port"

curl -fsS "http://127.0.0.1:$port/healthz" | grep -q ok
"$BUILD_DIR"/tools/serve_load --port-file serve_port.txt --quick \
  --json "$BENCH_OUT"
python3 -c "import json,sys; [json.loads(l) for l in open('$BENCH_OUT')]"

curl -fsS "http://127.0.0.1:$port/varz" | tee serve_varz.json \
  | python3 -c "
import json, sys
v = json.load(sys.stdin)
assert v['tool'] == 'sea_serve', v
assert v['requests'] == $REQUESTS, v
assert v['errors'] == 0, v
hits = v['cache_hits_exact'] + v['cache_hits_nearby']
assert hits > 0, 'warm-start cache never hit: %r' % v
assert 2 * v['cache_hits_nearby'] >= $PERTURBED, \
    'nearby tier answered fewer than half of $PERTURBED perturbed requests: %r' % v
assert v['shed'] == 0, v
print('varz ok: %d requests, %d cache hits (%d exact / %d nearby)'
      % (v['requests'], hits, v['cache_hits_exact'],
         v['cache_hits_nearby']))
"

kill -TERM "$pid"
set +e
wait "$pid"
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "expected clean drain exit 0, got $code"
  cat serve_smoke.out
  exit 1
}
grep -q 'drained:' serve_smoke.out
"$BUILD_DIR"/tools/solve_log_check serve_log.jsonl \
  --expect-lines "$REQUESTS" --expect-status converged --expect-exit-code 0
echo "serve smoke ok"
