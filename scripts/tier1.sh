#!/usr/bin/env bash
# Tier-1 verification: full build + test suite + a one-second benchmark
# run + live HTTP/scoring and chaos smokes, plus an optional sanitizer
# pass over the concurrency tests (serving tier and the parallel
# training substrate).
#
#   ./scripts/tier1.sh                  # standard build + ctest + smokes
#   BP_SANITIZE=thread ./scripts/tier1.sh   # ... + TSan concurrency pass
#   BP_SANITIZE=address ./scripts/tier1.sh  # ... + ASan concurrency pass
set -euo pipefail
cd "$(dirname "$0")/.."

case "${BP_SANITIZE:-}" in
  "" | thread | address ) ;;
  * )
    echo "BP_SANITIZE must be 'thread' or 'address', got '${BP_SANITIZE}'" >&2
    exit 2
    ;;
esac

cmake -B build -S .
# The tree builds warning-free (-Wall -Wextra, set in CMakeLists.txt):
# any compiler diagnostic in the build's output fails the run.  Only
# what this build recompiles is seen, so a clean tree checks it all.
build_log=/tmp/bp_build.log
cmake --build build -j 2>&1 | tee "${build_log}"
if grep -q ': warning:' "${build_log}"; then
  echo "FAIL: the build printed compiler warnings:" >&2
  grep ': warning:' "${build_log}" >&2
  exit 1
fi
ctest --test-dir build --output-on-failure -j

echo "== benchmark smoke (perfbench built against src/, one short run) =="
# perfbench compiles the library sources into its own Release tree, so
# a change that breaks an API the benchmark names fails here.  The last
# stdout line is the result JSON; a wrong verdict makes it correct:false.
bench_line=$(python3 perfbench/run.py --workload engine_bulk --seed 1 \
             --seconds 1 --trace 0 | tail -n 1 || true)
case "${bench_line}" in
  '{"correct": true,'* ) echo "benchmark smoke ok" ;;
  * ) echo "FAIL: perfbench engine_bulk -> '${bench_line}'" >&2; exit 1 ;;
esac
# The wire workload runs the load generator's codec-checked path: every
# response frame is parsed and its verdict checked, so a change to the
# wire vocabulary that the server and the codec disagree on fails here.
bench_line=$(python3 perfbench/run.py --workload wire_popular --seed 1 \
             --seconds 2 --trace 0 | tail -n 1 || true)
case "${bench_line}" in
  '{"correct": true,'* ) echo "wire benchmark smoke ok" ;;
  * ) echo "FAIL: perfbench wire_popular -> '${bench_line}'" >&2; exit 1 ;;
esac

echo "== live introspection + scoring smoke (HTTP over ephemeral ports) =="
smoke_log=/tmp/bp_introspect_smoke.log
rm -f "${smoke_log}"
./build/examples/fraud_detection_service --listen 127.0.0.1:0 \
  --score-listen 127.0.0.1:0 --soak \
  > "${smoke_log}" 2>&1 &
svc_pid=$!
# Stop a background process: SIGINT for a graceful teardown, a bounded
# grace period, then SIGKILL so a wedged shutdown can neither hang the
# suite nor leak a process into later runs.  Returns the exit status.
stop_pid() {  # stop_pid <pid> [grace_seconds]
  local pid=$1 grace=${2:-30}
  kill -INT "${pid}" 2>/dev/null || true
  for _ in $(seq 1 $((grace * 5))); do
    kill -0 "${pid}" 2>/dev/null || break
    sleep 0.2
  done
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}"
}
smoke_fail() {
  echo "FAIL: $1" >&2
  stop_pid "${svc_pid}" 5 > /dev/null 2>&1 || true
  exit 1
}
port=""
score_port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^introspection server listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "${smoke_log}" | head -n 1)
  score_port=$(sed -n 's/^score server listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' \
         "${smoke_log}" | head -n 1)
  [[ -n "${port}" && -n "${score_port}" ]] && break
  sleep 0.2
done
[[ -n "${port}" ]] || smoke_fail "server never announced its introspection port"
[[ -n "${score_port}" ]] || smoke_fail "server never announced its score port"

fetch() {  # fetch <path> <want_status>: asserts status and non-empty body
  local path=$1 want=$2 code
  code=$(curl -s -o /tmp/bp_introspect_body -w '%{http_code}' \
         "http://127.0.0.1:${port}${path}" || true)
  if [[ "${code}" != "${want}" || ! -s /tmp/bp_introspect_body ]]; then
    smoke_fail "GET ${path} -> '${code}' (want ${want} + non-empty body)"
  fi
}

fetch /healthz 200
fetch /metrics 200
# The score ingress is up before the first publish, and a frame posted
# then is refused at once (503 "no model published"), never held.
# Training is quick, so the first publish may already have landed; a
# scored frame also passes.
features=$(printf '0 %.0s' $(seq 1 28)); features=${features% }
code=$(curl -s --max-time 2 -o /tmp/bp_prepublish_body -w '%{http_code}' \
       --data-binary "bp1|1|Chrome 112|${features}" \
       "http://127.0.0.1:${score_port}/score" || true)
body=$(cat /tmp/bp_prepublish_body 2>/dev/null || true)
case "${code}:${body}" in
  "503:no model published" ) echo "pre-publish frame: 503 no model published" ;;
  "200:bp1|1|scored|"* ) echo "pre-publish frame: scored (the publish had landed)" ;;
  * ) smoke_fail "pre-publish POST /score -> '${code}' '${body}' (want 503 'no model published' or a scored frame within 2 s)" ;;
esac
# /readyz answers 503 until offline training publishes the first model,
# then flips to 200; poll it across the flip.
ready=""
for _ in $(seq 1 600); do
  ready=$(curl -s -o /dev/null -w '%{http_code}' \
          "http://127.0.0.1:${port}/readyz" || true)
  [[ "${ready}" == "200" ]] && break
  sleep 0.5
done
[[ "${ready}" == "200" ]] || smoke_fail "/readyz never flipped to 200"
fetch /readyz 200
fetch /statusz 200
grep -q -- '-- build --' /tmp/bp_introspect_body \
  || smoke_fail "/statusz missing the build-info block"

# Continuous profiler: open a 15 s /profilez window in the background.
# The model just published, so the demo pipeline's live-scoring phases
# (plus the POST /score and traced-client load below) run inside the
# window; the collapsed-stack output must attribute serve-side samples
# to the scoring kernel by tag.  Collected after the trace smoke.
profilez_out=/tmp/bp_profilez.out
rm -f "${profilez_out}"
curl -s --max-time 60 "http://127.0.0.1:${port}/profilez?seconds=15" \
  > "${profilez_out}" &
profilez_pid=$!
# Typed 400 on malformed query params, uniform across the text routes.
for bad in "/profilez?seconds=bogus" "/tracez?n=bogus" "/auditz?n=bogus"; do
  code=$(curl -s -o /tmp/bp_introspect_body -w '%{http_code}' \
         "http://127.0.0.1:${port}${bad}" || true)
  [[ "${code}" == "400" ]] \
    || smoke_fail "GET ${bad} -> '${code}' (want a typed 400)"
  grep -q "bad query" /tmp/bp_introspect_body \
    || smoke_fail "GET ${bad} 400 body lacks the typed error"
done

# POST one session over the scoring plane; after /readyz the model is
# published, so the verdict must be a scored frame echoing the session.
verdict=$(curl -s --data-binary "bp1|1|Chrome 112|${features}" \
          "http://127.0.0.1:${score_port}/score" || true)
case "${verdict}" in
  "bp1|1|scored|"* ) ;;
  * ) smoke_fail "POST /score -> '${verdict}' (want bp1|1|scored|...)" ;;
esac

# Cross-hop tracing: the traced score_client scores through the same
# ingress, then the SAME trace id must be assembled on both sides —
# client_call/attempt spans on the client's /tracez, the
# server_request/queue/kernel block on the service's.
client_log=/tmp/bp_trace_client.log
rm -f "${client_log}"
./build/examples/score_client --connect "127.0.0.1:${score_port}" \
  --calls 3 --listen 127.0.0.1:0 > "${client_log}" 2>&1 &
client_pid=$!
trace_fail() {
  echo "FAIL: $1" >&2
  kill -9 "${client_pid}" 2>/dev/null || true
  stop_pid "${svc_pid}" 5 > /dev/null 2>&1 || true
  exit 1
}
client_port=""
for _ in $(seq 1 100); do
  client_port=$(sed -n 's/^client introspection listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "${client_log}" | head -n 1)
  [[ -n "${client_port}" ]] && break
  sleep 0.2
done
[[ -n "${client_port}" ]] || trace_fail "traced client never announced its introspection port"
trace_id=$(sed -n 's/^session 1 trace=\([0-9]*\) .*/\1/p' "${client_log}" | head -n 1)
[[ -n "${trace_id}" && "${trace_id}" != "0" ]] \
  || trace_fail "traced client never printed a minted trace id"
curl -s "http://127.0.0.1:${client_port}/tracez?trace=${trace_id}" \
  | grep -q "trace=${trace_id} span=1 parent=0 name=client_call" \
  || trace_fail "client /tracez missing the client_call root for trace ${trace_id}"
curl -s "http://127.0.0.1:${port}/tracez?trace=${trace_id}" \
  | grep -q "trace=${trace_id} .*name=server_request" \
  || trace_fail "service /tracez missing server_request for trace ${trace_id}"
kill -INT "${client_pid}"
wait "${client_pid}" || trace_fail "traced client exited non-zero"
echo "cross-hop tracing smoke ok (trace ${trace_id} assembled on both sides)"

# Collect the /profilez window opened above: the collapsed-stack output
# must contain serve-side samples tagged with the scoring kernel, and
# /contentionz must name the serving sites wired this build.
wait "${profilez_pid}" || smoke_fail "/profilez capture exited non-zero"
[[ -s "${profilez_out}" ]] || smoke_fail "/profilez window came back empty"
grep -q 'serve\.kernel' "${profilez_out}" \
  || smoke_fail "/profilez window has no serve.kernel-tagged samples"
curl -s "http://127.0.0.1:${port}/contentionz" > /tmp/bp_contentionz.out \
  || smoke_fail "GET /contentionz failed"
grep -q 'site serve\.' /tmp/bp_contentionz.out \
  || smoke_fail "/contentionz names no serving contention sites"
echo "profiling smoke ok ($(grep -c 'serve\.' "${profilez_out}") serve-tagged collapsed stacks; contention sites live)"

if stop_pid "${svc_pid}" 60; then
  echo "introspection + scoring smoke ok (ports ${port}/${score_port}, clean SIGINT shutdown)"
else
  smoke_fail "service exited non-zero after SIGINT"
fi

echo "== network chaos smoke (scoring through a fault-injecting relay) =="
# The full resilience stack end-to-end as deployed: the service runs
# with BP_FAULTS arming pathological-but-lossless socket fragmentation
# on its own seam, while the chaos proxy example mutilates the wire
# between client and ingress.  The gate: scored verdicts still come
# through, and both processes shut down clean on SIGINT.
chaos_svc_log=/tmp/bp_chaos_svc.log
chaos_log=/tmp/bp_chaos_proxy.log
rm -f "${chaos_svc_log}" "${chaos_log}"
BP_FAULTS='net.sock.recv.short:0.05:11,net.sock.send.partial:0.05:12' \
  ./build/examples/fraud_detection_service --score-listen 127.0.0.1:0 \
  > "${chaos_svc_log}" 2>&1 &
chaos_svc_pid=$!
chaos_fail() {
  echo "FAIL: $1" >&2
  [[ -n "${chaos_proxy_pid:-}" ]] \
    && stop_pid "${chaos_proxy_pid}" 5 > /dev/null 2>&1 || true
  stop_pid "${chaos_svc_pid}" 5 > /dev/null 2>&1 || true
  exit 1
}
score_port=""
for _ in $(seq 1 100); do
  score_port=$(sed -n 's/^score server listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' \
         "${chaos_svc_log}" | head -n 1)
  [[ -n "${score_port}" ]] && break
  sleep 0.2
done
[[ -n "${score_port}" ]] || chaos_fail "service never announced its score port"

# start_relay <log> <chaos_proxy flags...>: a relay in front of the
# service; sets chaos_proxy_pid and proxy_port.
start_relay() {
  local log=$1
  shift
  ./build/examples/chaos_proxy --upstream "${score_port}" "$@" \
    > "${log}" 2>&1 &
  chaos_proxy_pid=$!
  proxy_port=""
  for _ in $(seq 1 100); do
    proxy_port=$(sed -n 's/^chaos proxy listening on 127\.0\.0\.1:\([0-9]*\) .*$/\1/p' \
           "${log}" | head -n 1)
    [[ -n "${proxy_port}" ]] && break
    sleep 0.2
  done
  [[ -n "${proxy_port}" ]] || chaos_fail "chaos proxy never announced its port"
}
# stop_relay <log>: stops the relay, which must exit clean and print its
# fault ledger.
stop_relay() {
  local pid=${chaos_proxy_pid}
  chaos_proxy_pid=""
  stop_pid "${pid}" 60 || chaos_fail "chaos proxy exited non-zero"
  grep -q '^chaos ledger:' "$1" \
    || chaos_fail "chaos proxy never printed its fault ledger"
}

start_relay "${chaos_log}" --seed 7 --response-only --delay 0.05 \
  --delay-ms 20 --reset 0.02 --truncate 0.02 --corrupt 0.02

# Post sessions through the relay until a *scored* verdict echoing its
# session comes back (the model publishes partway through the demo
# pipeline; early frames are refused 503 "no model published", and some
# posts die to injected resets/truncations — raw curl has no retry
# machinery).
features=$(printf '0 %.0s' $(seq 1 28)); features=${features% }
scored=""
for i in $(seq 1 600); do
  verdict=$(curl -s --max-time 5 \
            --data-binary "bp1|${i}|Chrome 112|${features}" \
            "http://127.0.0.1:${proxy_port}/score" || true)
  case "${verdict}" in
    "bp1|${i}|scored|"* ) scored=yes; break ;;
  esac
  sleep 0.5
done
[[ -n "${scored}" ]] || chaos_fail "no scored verdict ever survived the relay"
stop_relay "${chaos_log}"

# The resilient client through a relay of its own, seeded so that real
# resets, truncations and corruption (not only delays) reach it: 50
# calls, hedged at 50 ms with up to 8 attempts each, must all end with
# a verdict for their session, so those faults drive its retries,
# hedges and pooled-connection resends against the service.
chaos_client_relay_log=/tmp/bp_chaos_client_proxy.log
chaos_client_log=/tmp/bp_chaos_client.log
rm -f "${chaos_client_relay_log}"
start_relay "${chaos_client_relay_log}" --seed 9 --response-only \
  --reset 0.05 --truncate 0.05 --corrupt 0.05 --delay 0.05 --delay-ms 20
timeout 120 ./build/examples/score_client \
  --connect "127.0.0.1:${proxy_port}" --calls 50 > "${chaos_client_log}" 2>&1 \
  || chaos_fail "score_client through the armed relay failed (${chaos_client_log})"
stop_relay "${chaos_client_relay_log}"
ledger=$(grep '^chaos ledger:' "${chaos_client_relay_log}" | tail -n 1)
ledger_re='truncates=([0-9]+) corrupts=([0-9]+) resets=([0-9]+)'
[[ "${ledger}" =~ ${ledger_re} ]] \
  || chaos_fail "unreadable chaos ledger: '${ledger}'"
(( BASH_REMATCH[1] + BASH_REMATCH[2] + BASH_REMATCH[3] >= 1 )) \
  || chaos_fail "the client's relay injected no fault that breaks a response: '${ledger}'"
echo "client relay: ${ledger}"
stop_pid "${chaos_svc_pid}" 60 || chaos_fail "service exited non-zero under BP_FAULTS"
echo "network chaos smoke ok (scored verdicts through an armed relay)"

if [[ -n "${BP_SANITIZE:-}" ]]; then
  san_dir="build-${BP_SANITIZE}"
  echo "== ${BP_SANITIZE} sanitizer pass over the concurrency tests =="
  cmake -B "${san_dir}" -S . -DBP_SANITIZE="${BP_SANITIZE}"
  cmake --build "${san_dir}" -j --target bp_tests
  # Covers the serving tier, the parallel training substrate, the whole
  # fault-tolerance layer — including the chaos soak, which must run
  # clean under both TSan and ASan — and the observability plane
  # (striped counters, trace ring, audit trail, the introspection HTTP
  # server scraped under mutation, and the readiness fold) whose
  # lock-free hot paths are exactly what the sanitizers exist to vet,
  # plus the network scoring plane (wire parser, sharded router,
  # concurrent TCP soak over POST /score), the SoA batch-scoring
  # kernel's equivalence suite, the seqlock verdict cache, and the
  # chaos-hardening layer (socket seam, listener reaper/slow-loris,
  # resilient ScoreClient, chaos proxy, wire fuzz), and the continuous
  # profiling plane (sampler start/stop against live registered
  # workers, remote tag reads, contention sites, and the callback-gauge
  # unregistration race), the traffic generator's parallel lanes
  # over the shared baseline-candidate memo, the shared circuit
  # breaker and backoff the client and the retrain supervisor use, the
  # isolation forest, whose fit and block scoring run on pool lanes,
  # with the golden-hash suite that drives them at 1, 2 and 8 threads,
  # and the verdict tables: the dense Algorithm-1 tables engine workers
  # and handler threads read at once.
  ctest --test-dir "${san_dir}" \
    -R 'Serve|BoundedQueue|Parallel|TrainingDeterminism|Fault|RetrainSupervisor|ModelIntegrity|Chaos|Client|SockOps|HttpListener|WireFuzz|Obs|Audit|Introspect|Health|Net|Router|Batch|Cache|DistTrace|Prof|Contention|Generator|Breaker|Backoff|IsolationForest|TrainingGolden|VerdictTables' \
    --output-on-failure
fi
