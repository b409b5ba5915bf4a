#!/usr/bin/env bash
# End-to-end smoke test for `twq serve` (docs/SERVER.md), run by CI
# (tools/ci.sh) against the sanitizer build:
#
#   1. build a tiny corpus, start the daemon on an ephemeral port;
#   2. drive it with twq_loadgen for a few seconds and verify the
#      server's books reconcile (admitted == ok + error + drained);
#   3. SIGHUP mid-life and assert a *live reload*: the reload counter
#      increments, the daemon stays ready, answers are unchanged, and a
#      tree added to the corpus directory is served by the new
#      generation;
#   4. SIGTERM the daemon while a slow query holds the drain open and
#      assert that liveness and readiness diverge: a health probe on a
#      connection held from before the drain still answers ok, a ready
#      probe on such a connection answers not-ready (exit 2), and the
#      process prints its drain summary and exits 75 (sysexits
#      EX_TEMPFAIL, the documented "drained cleanly, restartable"
#      code).
#
# Usage: serve_smoke.sh <twq-binary> <loadgen-binary> [duration-ms]
set -u

TWQ="${1:?usage: serve_smoke.sh <twq> <twq_loadgen> [duration-ms]}"
LOADGEN="${2:?usage: serve_smoke.sh <twq> <twq_loadgen> [duration-ms]}"
DURATION_MS="${3:-3000}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -KILL "$SERVER_PID" 2>/dev/null
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

# 1. Corpus: a couple of small trees, plus one big enough that a full
# DFS takes a few hundred ms — the "slow query" that holds the drain
# open in step 4.
mkdir -p "$WORK/corpus"
echo 'a[x=1](b(c, d), e[x=2])' > "$WORK/corpus/small.term"
python3 - "$WORK/corpus/wide.term" <<'EOF'
import sys
leaves = ", ".join(f"b[x={i}]" for i in range(200))
open(sys.argv[1], "w").write(f"a({leaves})")
EOF
python3 - "$WORK/corpus/big.term" <<'EOF'
import sys
leaves = ", ".join(f"b[x={i}]" for i in range(400000))
open(sys.argv[1], "w").write(f"a({leaves})")
EOF
cat > "$WORK/accept.twp" <<'EOF'
class tw
states q0 qf
rule #top q0 [true] move stay qf
EOF
# Full DFS for an absent label, every rule guarded by a tautology whose
# two nested quantifiers range over the 60 values of X: each step costs
# about a tenth of a millisecond however fast the step machinery gets,
# so on big.term the run lasts until its deadline.
python3 - "$WORK/scan.twp" <<'EOF'
import sys
guard = "[forall u forall v ((X(u) & X(v)) -> X(u))]"
rules = [("needle", "fwd", "move stay qf"), ("#top", "fwd", "move down fwd"),
         ("#open", "fwd", "move right fwd"), ("*", "fwd", "move down fwd"),
         ("#leaf", "fwd", "move up back"), ("#close", "fwd", "move up back"),
         ("*", "back", "move right fwd")]
lines = ["class twr", "states fwd qf", "register X 1",
         "init X { " + " ".join(f"({i})" for i in range(60)) + " }"]
lines += [f"rule {label} {state} {guard} {action}"
          for label, state, action in rules]
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
EOF

"$TWQ" serve "$WORK/corpus" --port 0 --workers 2 --max-queue 8 \
    --deadline-ms 500 --drain-ms 5000 --quiet > "$WORK/serve.out" 2>"$WORK/serve.err" &
SERVER_PID=$!

# Wait for the listening line (the daemon prints it once ready).  The
# bound is generous because startup parses the 400k-node big.term,
# which takes ~25s under TSan; fast builds exit this loop in one pass.
PORT=""
for _ in $(seq 1 900); do
  PORT="$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$WORK/serve.out")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died at startup: $(cat "$WORK/serve.err")"
  sleep 0.1
done
[ -n "$PORT" ] && [ "$PORT" != "0" ] || fail "server never reported its port"

# 2. Load + reconciliation check (loadgen exits nonzero on mismatch).
"$LOADGEN" --port "$PORT" --connections 8 --duration-ms "$DURATION_MS" \
    --tree small.term --stats --quiet || fail "loadgen/reconciliation failed"

# 3. Live reload on SIGHUP: counter moves, readiness holds, answers are
# unchanged, and a tree added to the directory is served afterwards.
REMOTE="127.0.0.1:$PORT"
stat_value() {
  "$TWQ" probe stats --remote "$REMOTE" | awk -v k="$1" '$1 == k {print $2}'
}
ANSWER_BEFORE="$("$TWQ" query small.term "$WORK/accept.twp" --remote "$REMOTE")" \
    || fail "query before reload failed"
RELOADS_BEFORE="$(stat_value server.reloads)"
echo 'n(m[x=3])' > "$WORK/corpus/added.term"
kill -HUP "$SERVER_PID"
# The off-thread rebuild re-parses the whole corpus (big.term again),
# so the bound matches the startup wait above.
RELOADS_AFTER="$RELOADS_BEFORE"
for _ in $(seq 1 900); do
  RELOADS_AFTER="$(stat_value server.reloads)"
  [ -n "$RELOADS_AFTER" ] && [ "$RELOADS_AFTER" -gt "$RELOADS_BEFORE" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died on SIGHUP"
  sleep 0.1
done
[ "$RELOADS_AFTER" -gt "$RELOADS_BEFORE" ] || fail "reload counter never moved after SIGHUP"
"$TWQ" probe ready --remote "$REMOTE" > /dev/null || fail "server not ready after reload"
ANSWER_AFTER="$("$TWQ" query small.term "$WORK/accept.twp" --remote "$REMOTE")" \
    || fail "query after reload failed"
[ "$ANSWER_BEFORE" = "$ANSWER_AFTER" ] || fail "reload changed an answer: '$ANSWER_BEFORE' vs '$ANSWER_AFTER'"
"$TWQ" query added.term "$WORK/accept.twp" --remote "$REMOTE" > /dev/null \
    || fail "tree added before reload is not served by the new generation"
GENERATION="$(stat_value corpus.generation)"
[ -n "$GENERATION" ] && [ "$GENERATION" -ge 1 ] || fail "corpus.generation did not advance (got '$GENERATION')"

# 4. Drain: liveness and readiness must diverge.  A slow scan holds the
# drain open (it runs until its 2 s deadline ends it); both probes
# connect *before* SIGTERM (new connections are refused once draining)
# and fire mid-drain, well before the holder can finish.
"$TWQ" query big.term "$WORK/scan.twp" --remote "$REMOTE" --deadline-ms 2000 \
    > /dev/null 2>&1 &
HOLDER_PID=$!
sleep 0.1
"$TWQ" probe health --remote "$REMOTE" --hold-ms 300 > "$WORK/health.out" 2>&1 &
HEALTH_PID=$!
"$TWQ" probe ready --remote "$REMOTE" --hold-ms 300 > "$WORK/ready.out" 2>&1 &
READY_PID=$!
sleep 0.1
kill -TERM "$SERVER_PID"
HEALTH_EXIT=0; wait "$HEALTH_PID" || HEALTH_EXIT=$?
READY_EXIT=0; wait "$READY_PID" || READY_EXIT=$?
wait "$HOLDER_PID" 2>/dev/null
[ "$HEALTH_EXIT" -eq 0 ] || fail "health probe failed mid-drain (exit $HEALTH_EXIT: $(cat "$WORK/health.out"))"
grep -q 'health: ok' "$WORK/health.out" || fail "health probe did not answer ok mid-drain"
[ "$READY_EXIT" -eq 2 ] || fail "ready probe mid-drain: expected exit 2 (alive, not ready), got $READY_EXIT ($(cat "$WORK/ready.out"))"
grep -q 'ready: not-ready' "$WORK/ready.out" || fail "ready probe did not report not-ready mid-drain"

EXIT_CODE=0
wait "$SERVER_PID" || EXIT_CODE=$?
SERVER_PID=""
[ "$EXIT_CODE" -eq 75 ] || fail "expected drain exit 75, got $EXIT_CODE (stderr: $(tail -3 "$WORK/serve.err"))"
grep -q '^drained: admitted=' "$WORK/serve.out" || fail "no drain summary printed"

echo "serve_smoke: OK (port $PORT, reloads=$RELOADS_AFTER, gen=$GENERATION, $(grep '^drained:' "$WORK/serve.out"))"
