#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, test suite, and a
# serving-mode smoke test (ephemeral port, one discovery round-trip
# checked against the batch CLI, metrics probe, SIGTERM drain).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
# Vendored stand-in crates (vendor/*) are exempt from the lint gate.
cargo clippy --workspace --all-targets \
  --exclude rand --exclude proptest \
  -- -D warnings

echo "== xfdlint --check"
# Workspace-native static analysis: panic-freedom, lock discipline (now
# call-graph-aware), unsafe audit, error hygiene, deadline discipline and
# frame-protocol exhaustiveness. Exits nonzero on any violation, including
# stale allow annotations. The JSON report is archived for inspection, and
# the live-allow count is gated on a fixed budget: adding a new
# `xfdlint:allow` annotation must bump the number here, in review.
XFDLINT_ALLOW_BUDGET=26
mkdir -p target
cargo run -q -p xfdlint -- --check --format json > target/xfdlint-report.json
grep -q '"violations": \[\]' target/xfdlint-report.json \
  || { echo "xfdlint report has violations:"; cargo run -q -p xfdlint -- --check || true; exit 1; }
ALLOWS=$(grep -c '"reason":' target/xfdlint-report.json || true)
[ "$ALLOWS" = "$XFDLINT_ALLOW_BUDGET" ] \
  || { echo "live allow count $ALLOWS != budget $XFDLINT_ALLOW_BUDGET (see cargo run -p xfdlint -- --list-allows)"; exit 1; }
echo "   zero violations, $ALLOWS live allows (budget $XFDLINT_ALLOW_BUDGET), report at target/xfdlint-report.json"

echo "== cargo build --release"
# The root manifest is a package + workspace; a bare `cargo build` would
# only build the facade crate, leaving ./target/release/discoverxfd stale.
cargo build --release --workspace

echo "== cargo test --workspace -q"
# The root manifest is a package + workspace; bare `cargo test` would only
# run the facade crate's suites.
cargo test --workspace -q

echo "== server smoke test"
BIN=./target/release/discoverxfd
DOC=$(mktemp /tmp/ci-doc-XXXXXX.xml)
BANNER=$(mktemp /tmp/ci-banner-XXXXXX)
trap 'rm -f "$DOC" "$BANNER"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

"$BIN" gen warehouse > "$DOC"

"$BIN" serve --addr 127.0.0.1:0 --workers 2 > "$BANNER" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$BANNER" 2>/dev/null && break
  sleep 0.05
done
ADDR=$(sed -n 's#listening on http://##p' "$BANNER")
[ -n "$ADDR" ] || { echo "server did not start"; exit 1; }
echo "   serving on $ADDR"

# The served report must match the batch CLI byte-for-byte once the one
# volatile field (total wall time) is normalized on both sides.
normalize() { sed 's/"total_ms": [0-9.]*/"total_ms": X/'; }
curl -sS -X POST --data-binary @"$DOC" "http://$ADDR/v1/discover" | normalize > /tmp/ci-served.json
"$BIN" discover "$DOC" --json | normalize > /tmp/ci-batch.json
cmp /tmp/ci-served.json /tmp/ci-batch.json || { echo "served report differs from batch CLI"; exit 1; }
echo "   served report matches batch CLI"

# Tiered partition kernel: the default run must actually take the
# error-only path (and its early exit — the warehouse data has invalid
# candidates). Its agreement with the materializing kernel is checked by
# the test suite, where that kernel survives as an oracle.
grep -Eq '"products_error_only": [1-9]' /tmp/ci-batch.json \
  || { echo "expected error-only products in the default discover run"; exit 1; }
grep -Eq '"early_exits": [1-9]' /tmp/ci-batch.json \
  || { echo "expected early exits in the default discover run"; exit 1; }
# Threads only split a wave's relations across workers, so cross-thread
# runs are byte-identical to the default, work counters included.
for T in 2 8; do
  "$BIN" discover "$DOC" --json --threads "$T" | normalize > /tmp/ci-batch-t"$T".json
  cmp /tmp/ci-batch.json /tmp/ci-batch-t"$T".json \
    || { echo "report drifted at --threads $T"; exit 1; }
done
echo "   tiered kernel engaged (early exits seen); parity at threads 2/8"

# Second POST of the same document must be answered from the result cache.
curl -sS -X POST --data-binary @"$DOC" "http://$ADDR/v1/discover" -o /dev/null -D /tmp/ci-headers.txt
grep -qi '^X-Cache: hit' /tmp/ci-headers.txt \
  || { echo "expected X-Cache: hit on the repeat request"; exit 1; }
curl -sS "http://$ADDR/metrics" > /tmp/ci-metrics.txt
grep -q "discoverxfd_result_cache_hits_total 1" /tmp/ci-metrics.txt \
  || { echo "expected a result-cache hit in /metrics"; exit 1; }
echo "   repeat request served from cache"

# No worker panicked while handling the smoke traffic: the panic counter
# both exists and reads zero.
grep -q "^discoverxfd_worker_panics_total 0$" /tmp/ci-metrics.txt \
  || { echo "expected discoverxfd_worker_panics_total 0 in /metrics"; exit 1; }
echo "   zero worker panics"

curl -sS "http://$ADDR/healthz" | grep -q '"ok"' || { echo "healthz failed"; exit 1; }

# SIGTERM must drain and exit 0.
kill -TERM "$SERVER_PID"
DRAIN=0
if wait "$SERVER_PID"; then DRAIN=1; fi
[ "$DRAIN" = 1 ] || { echo "server did not exit cleanly on SIGTERM"; exit 1; }
SERVER_PID=""
echo "   clean SIGTERM drain"

echo "== corpus smoke test"
CORPUS_ROOT=$(mktemp -d /tmp/ci-corpus-XXXXXX)
DOC2=$(mktemp /tmp/ci-doc2-XXXXXX.xml)
DOC3=$(mktemp /tmp/ci-doc3-XXXXXX.xml)
trap 'rm -f "$DOC" "$DOC2" "$DOC3" "$BANNER"; rm -rf "$CORPUS_ROOT"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT
"$BIN" gen warehouse --scale 2 --seed 7 > "$DOC2"
"$BIN" gen warehouse --scale 2 --seed 11 > "$DOC3"

"$BIN" corpus create smoke --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus add smoke "$DOC" --name d1 --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus add smoke "$DOC2" --name d2 --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus discover smoke --root "$CORPUS_ROOT" --json | normalize > /tmp/ci-corpus-two.json
echo "   create + add + discover"

# Simulated kill -9 mid-ingest: the segment and WAL record are on disk,
# the manifest commit never ran. Reopening must replay the WAL.
CRASH_RC=0
"$BIN" corpus add smoke "$DOC3" --name d3 --root "$CORPUS_ROOT" --crash-after-wal 2>/dev/null || CRASH_RC=$?
[ "$CRASH_RC" = 42 ] || { echo "crash injection exited $CRASH_RC, expected 42"; exit 1; }
"$BIN" corpus status smoke --root "$CORPUS_ROOT" | grep -q "d3" \
  || { echo "WAL replay lost the staged document"; exit 1; }
echo "   crash-kill recovered via WAL replay"

# The recovered corpus must discover byte-identically to one that never
# crashed (same three documents, fresh corpus).
"$BIN" corpus create clean --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus add clean "$DOC" --name d1 --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus add clean "$DOC2" --name d2 --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus add clean "$DOC3" --name d3 --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus discover smoke --root "$CORPUS_ROOT" --json | normalize > /tmp/ci-corpus-recovered.json
"$BIN" corpus discover clean --root "$CORPUS_ROOT" --json | normalize > /tmp/ci-corpus-clean.json
cmp /tmp/ci-corpus-recovered.json /tmp/ci-corpus-clean.json \
  || { echo "recovered corpus report differs from a clean one"; exit 1; }
echo "   recovered report matches a never-crashed corpus"

# Compaction folds the smoke corpus's per-document segments into one;
# the discovery report must not change.
"$BIN" corpus compact smoke --root "$CORPUS_ROOT" 2>/dev/null
"$BIN" corpus discover smoke --root "$CORPUS_ROOT" --json | normalize > /tmp/ci-corpus-compacted.json
cmp /tmp/ci-corpus-compacted.json /tmp/ci-corpus-clean.json \
  || { echo "compacted corpus report differs from the pre-compaction one"; exit 1; }
echo "   compaction preserved the report"

echo "== cluster smoke test"
CLUSTER_LOG=$(mktemp /tmp/ci-cluster-XXXXXX.log)
trap 'rm -f "$DOC" "$DOC2" "$DOC3" "$BANNER" "$CLUSTER_LOG"; rm -rf "$CORPUS_ROOT"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

# Two worker subprocesses must reproduce the in-process report
# byte-for-byte (wall-clock normalized on both sides, as above).
"$BIN" cluster discover clean --root "$CORPUS_ROOT" --workers 2 --json \
  2> "$CLUSTER_LOG" | normalize > /tmp/ci-cluster-two.json
cmp /tmp/ci-cluster-two.json /tmp/ci-corpus-clean.json \
  || { echo "2-worker cluster report differs from the in-process one"; exit 1; }
grep -q "workers=2 live=2 lost=0 handshake_failures=0" "$CLUSTER_LOG" \
  || { echo "expected two live workers; got: $(cat "$CLUSTER_LOG")"; exit 1; }
grep -Eq "pass_remote=[1-9]" "$CLUSTER_LOG" \
  || { echo "expected remote relation passes; got: $(cat "$CLUSTER_LOG")"; exit 1; }
echo "   2-worker report matches in-process"

# SIGKILL one worker right after its first pass assignment: the orphaned
# task must be retried (or recomputed locally) and the report must still
# be identical.
"$BIN" cluster discover clean --root "$CORPUS_ROOT" --workers 2 --kill-worker-after 1 --json \
  2> "$CLUSTER_LOG" | normalize > /tmp/ci-cluster-killed.json
cmp /tmp/ci-cluster-killed.json /tmp/ci-corpus-clean.json \
  || { echo "report changed after a worker was killed mid-run"; exit 1; }
grep -q " lost=1 " "$CLUSTER_LOG" \
  || { echo "expected one lost worker; got: $(cat "$CLUSTER_LOG")"; exit 1; }
RETRIED=$(sed -n 's/.* retried=\([0-9]*\).*/\1/p' "$CLUSTER_LOG")
FALLBACK=$(sed -n 's/.* fallback=\([0-9]*\).*/\1/p' "$CLUSTER_LOG")
[ "$((${RETRIED:-0} + ${FALLBACK:-0}))" -ge 1 ] \
  || { echo "expected the orphaned task to be retried or recomputed; got: $(cat "$CLUSTER_LOG")"; exit 1; }
echo "   mid-run kill survived: lost=1 retried=${RETRIED:-0} fallback=${FALLBACK:-0}, report identical"

echo "== loopback TCP cluster smoke"
TCPW1_LOG=$(mktemp /tmp/ci-tcpw1-XXXXXX.log)
TCPW2_LOG=$(mktemp /tmp/ci-tcpw2-XXXXXX.log)
SEG_CACHE=$(mktemp -d /tmp/ci-segcache-XXXXXX)
DOC4=$(mktemp /tmp/ci-doc4-XXXXXX.xml)
trap 'rm -f "$DOC" "$DOC2" "$DOC3" "$DOC4" "$BANNER" "$CLUSTER_LOG" "$TCPW1_LOG" "$TCPW2_LOG"; rm -rf "$CORPUS_ROOT" "$SEG_CACHE"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null; [ -n "${W1_PID:-}" ] && kill -9 "$W1_PID" 2>/dev/null; [ -n "${W2_PID:-}" ] && kill -9 "$W2_PID" 2>/dev/null || true' EXIT

# Two standalone TCP workers on ephemeral loopback ports: one with shared
# storage, one storage-less (fed via content-addressed segment shipping).
"$BIN" worker --listen 127.0.0.1:0 --token ci-secret > "$TCPW1_LOG" &
W1_PID=$!
"$BIN" worker --listen 127.0.0.1:0 --token ci-secret --no-shared-storage --seg-cache "$SEG_CACHE" > "$TCPW2_LOG" &
W2_PID=$!
disown "$W1_PID" "$W2_PID"   # teardown is kill -9; keep bash quiet about it
for _ in $(seq 1 100); do
  grep -q "worker listening on" "$TCPW1_LOG" 2>/dev/null \
    && grep -q "worker listening on" "$TCPW2_LOG" 2>/dev/null && break
  sleep 0.05
done
TCP_ADDR1=$(sed -n 's/^worker listening on //p' "$TCPW1_LOG")
TCP_ADDR2=$(sed -n 's/^worker listening on //p' "$TCPW2_LOG")
[ -n "$TCP_ADDR1" ] && [ -n "$TCP_ADDR2" ] || { echo "TCP workers did not start"; exit 1; }

# The remote report must match the in-process one byte-for-byte, with the
# storage-less worker fed over the wire.
"$BIN" cluster discover clean --root "$CORPUS_ROOT" --remote "$TCP_ADDR1,$TCP_ADDR2" \
  --token ci-secret --json 2> "$CLUSTER_LOG" | normalize > /tmp/ci-cluster-tcp.json
cmp /tmp/ci-cluster-tcp.json /tmp/ci-corpus-clean.json \
  || { echo "loopback-TCP cluster report differs from the in-process one"; exit 1; }
grep -q "workers=2 live=2 lost=0 handshake_failures=0" "$CLUSTER_LOG" \
  || { echo "expected two live TCP workers; got: $(cat "$CLUSTER_LOG")"; exit 1; }
grep -Eq "segs_shipped=[1-9]" "$CLUSTER_LOG" \
  || { echo "expected shipped segments for the storage-less worker; got: $(cat "$CLUSTER_LOG")"; exit 1; }
echo "   2 remote TCP workers match in-process, segments shipped"

kill -9 "$W1_PID" "$W2_PID" 2>/dev/null || true
W1_PID=""
W2_PID=""

# Serving mode routes corpus discovery through a persistent warm worker
# pool when started with --cluster-workers; /metrics must account for it.
# Every served body must equal the in-process report before its
# wall-clock tail, whatever configuration the pool was admitted under and
# after the corpus changed under the warm pool. The references are
# computed outside the server: before it starts, and after it exits for
# the changed corpus.
stable() { awk '{ i = index($0, "\"total_ms\""); if (i) { print substr($0, 1, i - 1); exit } print }'; }
"$BIN" corpus discover clean --root "$CORPUS_ROOT" --max-lhs 1 --json | stable > /tmp/ci-pool-ref-lhs1.json
"$BIN" corpus discover clean --root "$CORPUS_ROOT" --json | stable > /tmp/ci-pool-ref-default.json
"$BIN" gen warehouse --scale 2 --seed 13 > "$DOC4"
"$BIN" serve --addr 127.0.0.1:0 --workers 2 --corpus-root "$CORPUS_ROOT" --cluster-workers 2 > "$BANNER" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$BANNER" 2>/dev/null && break
  sleep 0.05
done
ADDR=$(sed -n 's#listening on http://##p' "$BANNER")
[ -n "$ADDR" ] || { echo "cluster server did not start"; exit 1; }
# The pool is admitted under an LHS bound; the default-config request
# that follows misses the result cache but keeps the plan fingerprint, so
# it reuses the warm pool entry and must still run every pass under its
# own configuration.
curl -sS -X POST "http://$ADDR/v1/corpora/clean/discover?max-lhs=1" | stable > /tmp/ci-pool-lhs1.json
cmp /tmp/ci-pool-lhs1.json /tmp/ci-pool-ref-lhs1.json \
  || { echo "pooled max-lhs=1 report differs from in-process corpus discover"; exit 1; }
curl -sS -X POST "http://$ADDR/v1/corpora/clean/discover" | stable > /tmp/ci-pool-default.json
cmp /tmp/ci-pool-default.json /tmp/ci-pool-ref-default.json \
  || { echo "pooled default report (after a max-lhs=1 request) differs from in-process corpus discover"; exit 1; }
# An identical repeat must be answered straight from the result cache —
# no plan derivation, no cluster contact at all.
curl -sS -X POST "http://$ADDR/v1/corpora/clean/discover" -o /dev/null -D /tmp/ci-headers.txt
grep -qi '^X-Cache: hit' /tmp/ci-headers.txt \
  || { echo "expected X-Cache: hit on the repeat corpus discovery"; exit 1; }
# A document added under the same schema: the warm workers re-plan in
# place instead of being retired and respawned.
curl -sS -X POST --data-binary @"$DOC4" "http://$ADDR/v1/corpora/clean/docs?name=d4" -o /dev/null
curl -sS -X POST "http://$ADDR/v1/corpora/clean/discover" | stable > /tmp/ci-pool-changed.json
curl -sS "http://$ADDR/metrics" > /tmp/ci-cluster-metrics.txt
grep -q "^discoverxfd_cluster_workers 2$" /tmp/ci-cluster-metrics.txt \
  || { echo "expected discoverxfd_cluster_workers 2 in /metrics"; exit 1; }
grep -Eq '^discoverxfd_cluster_tasks_total\{status="done"\} [1-9]' /tmp/ci-cluster-metrics.txt \
  || { echo "expected completed cluster tasks in /metrics"; exit 1; }
grep -q '^discoverxfd_cluster_tasks_total{status="fallback"} 0$' /tmp/ci-cluster-metrics.txt \
  || { echo "expected zero fallback cluster tasks in /metrics"; exit 1; }
grep -q "^discoverxfd_cluster_retries_total 0$" /tmp/ci-cluster-metrics.txt \
  || { echo "expected zero cluster retries in /metrics"; exit 1; }
grep -Eq '^discoverxfd_pool_warm_hits_total ([2-9]|[1-9][0-9]+)$' /tmp/ci-cluster-metrics.txt \
  || { echo "expected at least two warm pool hits in /metrics"; exit 1; }
grep -q '^discoverxfd_pool_workers{state="reaped"} 0$' /tmp/ci-cluster-metrics.txt \
  || { echo "expected no retired pool entry in /metrics"; exit 1; }
grep -q '^discoverxfd_pool_workers{state="warm"} 2$' /tmp/ci-cluster-metrics.txt \
  || { echo "expected two warm pooled workers in /metrics"; exit 1; }
grep -q "^discoverxfd_worker_panics_total 0$" /tmp/ci-cluster-metrics.txt \
  || { echo "expected discoverxfd_worker_panics_total 0 in /metrics"; exit 1; }
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "cluster server did not exit cleanly on SIGTERM"; exit 1; }
SERVER_PID=""
"$BIN" corpus discover clean --root "$CORPUS_ROOT" --json | stable > /tmp/ci-pool-ref-changed.json
cmp /tmp/ci-pool-changed.json /tmp/ci-pool-ref-changed.json \
  || { echo "pooled report after a document add differs from in-process corpus discover"; exit 1; }
echo "   warm pool served both configurations and a corpus change without respawning, reports identical"

echo "== bench corpus smoke"
# Scaled-down bench_corpus run: same 33-doc / 8-category shape, smaller
# relations. The binary itself asserts byte-identical serial / parallel /
# from-scratch reports; CI re-checks the two headline numbers from the
# JSON it writes.
BENCH_OUT=$(mktemp /tmp/ci-bench-corpus-XXXXXX.json)
trap 'rm -f "$DOC" "$DOC2" "$DOC3" "$BANNER" "$CLUSTER_LOG" "$BENCH_OUT"; rm -rf "$CORPUS_ROOT"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT
./target/release/bench_corpus "$BENCH_OUT" --smoke
grep -q '"worker_panics": 0' "$BENCH_OUT" \
  || { echo "expected zero worker panics in $BENCH_OUT"; exit 1; }
SPEEDUP=$(sed -n 's/.*"speedup": \([0-9.]*\).*/\1/p' "$BENCH_OUT")
awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 3.0) }' \
  || { echo "incremental speedup $SPEEDUP below the 3x floor"; exit 1; }
echo "   incremental speedup ${SPEEDUP}x, zero worker panics"

echo "== bench cluster smoke"
# Scaled-down bench_cluster run. The binary itself asserts that the 1, 2
# and 4-worker reports are byte-identical to the in-process run and that
# every worker survived; CI re-checks the loss counter from the JSON.
BENCH_CLUSTER_OUT=$(mktemp /tmp/ci-bench-cluster-XXXXXX.json)
trap 'rm -f "$DOC" "$DOC2" "$DOC3" "$BANNER" "$CLUSTER_LOG" "$BENCH_OUT" "$BENCH_CLUSTER_OUT"; rm -rf "$CORPUS_ROOT"; [ -n "${SERVER_PID:-}" ] && kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT
./target/release/bench_cluster "$BENCH_CLUSTER_OUT" --smoke
grep -q '"workers_lost": 0' "$BENCH_CLUSTER_OUT" \
  || { echo "expected zero lost workers in $BENCH_CLUSTER_OUT"; exit 1; }
echo "   cluster bench parity held, zero workers lost"

echo "== xfdbench smoke"
# The benchmark is its own workspace (xfdbench/Cargo.toml); its smoke test
# runs every workload at tiny scale and fails on any op whose output
# differs from its reference.
cargo test --release --offline --manifest-path xfdbench/Cargo.toml
echo "   every xfdbench workload ran clean at smoke scale"

echo "CI OK"
