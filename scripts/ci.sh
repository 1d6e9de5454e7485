#!/usr/bin/env bash
# Tier-1 CI gate: build, full test suite, lint wall, then the chaos
# (fault-injection) suite under the dedicated `ci` profile.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q -p charon --test chaos --profile ci

# Engine and service suites: the region driver (sequential and
# multi-worker), the server, and the cluster's shard merge.
cargo test -q --release -p charon -p server

# End-to-end benchmark's own suite (it is a workspace of its own): the
# slice's verdicts and counters must come out the same on every run.
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

# Long property pass: the SIMD and kernel equivalence suites (the
# bit-exact `matvec_wt` and `matmul_transb_wt` ones among them), the
# zonotope and bit-exact ReLU equivalence suites, the checked
# propagation's poison-parity suite, the transposed-copy parity suite,
# the disjunct-major powerset analysis's parity suite and the
# certificate tamper suite at 256 cases instead of the default
# 24 (`PROPTEST_CASES` raises every `proptest!` block that does not fix
# its own count).
PROPTEST_CASES=256 cargo test -q --release -p tensor \
  --test simd_equivalence --test kernel_equivalence
PROPTEST_CASES=256 cargo test -q --release -p domains \
  --test zonotope_equivalence --test relu_equivalence --test poison_parity \
  --test transposed_parity --test disjunct_major_parity
PROPTEST_CASES=256 cargo test -q --release -p cert --test tamper

# Portable-fallback gate: the same suite with scalar kernels forced, so
# the non-SIMD dispatch arm stays correct on every host.
CHARON_FORCE_SCALAR=1 cargo test -q

# Documentation gate: doctests must pass and rustdoc must build clean
# (broken intra-doc links and missing docs surface as warnings).
cargo test -q --doc --workspace
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

# Kernel perf harness smoke run: validates the harness executes and the
# machine-readable schema is intact (full runs regenerate the committed
# BENCH_kernels.json baseline; see DESIGN.md "Performance architecture").
smoke_out="$(mktemp)"
cargo run --release -q -p bench --bin perf_kernels -- --smoke --out "$smoke_out"
grep -q '"schema": "bench-kernels-v1"' "$smoke_out"
grep -q '"name": "zonotope_affine"' "$smoke_out"
grep -q '"name": "simd_affine"' "$smoke_out"
grep -q '"name": "zoo_affine"' "$smoke_out"
grep -q '"name": "scheduler_throughput"' "$smoke_out"
grep -q '"name": "zoo_attack_eval"' "$smoke_out"
grep -q '"name": "zoo_checked_propagation"' "$smoke_out"
grep -q '"name": "zoo_powerset_early_exit"' "$smoke_out"
grep -q '"phases":' "$smoke_out"
rm -f "$smoke_out"

# Telemetry smoke run: a traced verify must produce schema-valid JSONL,
# checked by the `trace` subcommand's strict line-by-line validator.
# (Capture output instead of piping into `grep -q`: an early grep exit
# closes the pipe and turns the CLI's remaining writes into EPIPE
# failures.)
trace_dir="$(mktemp -d)"
cargo run --release -q -p cli -- example \
  --out-network "$trace_dir/xor.net" --out-property "$trace_dir/p.prop"
cargo run --release -q -p cli -- verify \
  --network "$trace_dir/xor.net" --property "$trace_dir/p.prop" \
  --report --trace-out "$trace_dir/run.jsonl" | tee "$trace_dir/verify.out" >/dev/null
grep -q 'run report: verified' "$trace_dir/verify.out"
grep -q '^    affine ' "$trace_dir/verify.out"
cargo run --release -q -p cli -- trace --in "$trace_dir/run.jsonl" \
  | tee "$trace_dir/trace.out" >/dev/null
grep -q 'verdict: 1' "$trace_dir/trace.out"
rm -rf "$trace_dir"

# Certified-verdict smoke: verify a zoo property with certificate
# emission, the independent auditor must accept the artifact, and a
# single corrupted byte must turn acceptance into a nonzero rejection.
# A traced run of the same property must write the same certificate
# byte for byte: tracing never changes what the engine computes.
cert_dir="$(mktemp -d)"
cargo run --release -q -p cli -- prop --zoo mnist-3x32 --image 0 --tau 0.7 \
  --out-network "$cert_dir/zoo.net" --out-property "$cert_dir/zoo.prop"
cargo run --release -q -p cli -- verify \
  --network "$cert_dir/zoo.net" --property "$cert_dir/zoo.prop" \
  --cert-out "$cert_dir/zoo.cert" | tee "$cert_dir/verify.out" >/dev/null
grep -q 'certificate written to' "$cert_dir/verify.out"
cargo run --release -q -p cli -- verify \
  --network "$cert_dir/zoo.net" --property "$cert_dir/zoo.prop" \
  --cert-out "$cert_dir/traced.cert" --trace-out "$cert_dir/run.jsonl" \
  >"$cert_dir/traced.out"
cmp "$cert_dir/zoo.cert" "$cert_dir/traced.cert"
cargo run --release -q -p cli -- audit \
  --network "$cert_dir/zoo.net" --cert "$cert_dir/zoo.cert" \
  | tee "$cert_dir/audit.out" >/dev/null
grep -q 'certificate ok: verified' "$cert_dir/audit.out"
cp "$cert_dir/zoo.cert" "$cert_dir/forged.cert"
printf 'X' | dd of="$cert_dir/forged.cert" bs=1 seek=20 conv=notrunc status=none
if cargo run --release -q -p cli -- audit \
  --network "$cert_dir/zoo.net" --cert "$cert_dir/forged.cert" \
  >"$cert_dir/forged.out"; then
  echo "ci.sh: audit accepted a corrupted certificate" >&2; exit 1
fi
grep -q 'certificate rejected' "$cert_dir/forged.out"
rm -rf "$cert_dir"

# Server smoke run: start the daemon on a Unix socket, verify one job,
# resubmit it (must be a result-cache hit), then drain with zero lost
# jobs. Everything goes through the public CLI, so this also covers the
# serve/submit subcommands and their exit codes.
server_dir="$(mktemp -d)"
sock="$server_dir/daemon.sock"
cargo run --release -q -p cli -- example \
  --out-network "$server_dir/xor.net" --out-property "$server_dir/p.prop"
cargo run --release -q -p cli -- serve --addr "unix:$sock" --workers 1 &
serve_pid=$!
for _ in $(seq 100); do [ -S "$sock" ] && break; sleep 0.05; done
[ -S "$sock" ]
cargo run --release -q -p cli -- submit --addr "unix:$sock" \
  --network "$server_dir/xor.net" --property "$server_dir/p.prop" \
  | tee "$server_dir/s1.out" >/dev/null
grep -qx 'verified' "$server_dir/s1.out"
cargo run --release -q -p cli -- submit --addr "unix:$sock" \
  --network "$server_dir/xor.net" --property "$server_dir/p.prop" \
  | tee "$server_dir/s2.out" >/dev/null
grep -qx 'verified (cached)' "$server_dir/s2.out"
cargo run --release -q -p cli -- submit --addr "unix:$sock" --stats \
  | tee "$server_dir/stats.out" >/dev/null
grep -qx 'cache_hits: 1' "$server_dir/stats.out"
cargo run --release -q -p cli -- submit --addr "unix:$sock" --drain \
  | tee "$server_dir/drain.out" >/dev/null
grep -q 'lost=0' "$server_dir/drain.out"
wait "$serve_pid"
rm -rf "$server_dir"

# Crash-only chaos smoke: a journaled daemon is SIGKILLed mid-stream
# and restarted on the same socket + journal. Every in-flight submission
# must ride out the restart (client retry + idempotent ids + journal
# replay), `--query` must resolve every id from the stored results, and
# the final drain must lose nothing. The daemon is exec'd directly (not
# via `cargo run`) so the SIGKILL hits the daemon process itself.
chaos_dir="$(mktemp -d)"
charon_bin="target/release/charon-cli"
csock="$chaos_dir/daemon.sock"
cwal="$chaos_dir/daemon.wal"
"$charon_bin" example \
  --out-network "$chaos_dir/xor.net" --out-property "$chaos_dir/p.prop"
"$charon_bin" serve --addr "unix:$csock" --workers 1 --journal "$cwal" &
chaos_pid=$!
for _ in $(seq 100); do [ -S "$csock" ] && break; sleep 0.05; done
[ -S "$csock" ]
sub_pids=()
for id in 21 22 23; do
  "$charon_bin" submit --addr "unix:$csock" \
    --network "$chaos_dir/xor.net" --property "$chaos_dir/p.prop" \
    --id "$id" --retries 10 >"$chaos_dir/sub$id.out" &
  sub_pids+=("$!")
done
sleep 0.1
kill -9 "$chaos_pid"
wait "$chaos_pid" 2>/dev/null || true
rm -f "$csock"
"$charon_bin" serve --addr "unix:$csock" --workers 1 --journal "$cwal" &
chaos_pid=$!
for _ in $(seq 100); do [ -S "$csock" ] && break; sleep 0.05; done
[ -S "$csock" ]
for pid in "${sub_pids[@]}"; do wait "$pid"; done
for id in 21 22 23; do
  grep -q 'verified' "$chaos_dir/sub$id.out"
  "$charon_bin" submit --addr "unix:$csock" --query "$id" \
    | tee "$chaos_dir/q$id.out" >/dev/null
  grep -q 'verified' "$chaos_dir/q$id.out"
done
"$charon_bin" submit --addr "unix:$csock" --drain \
  | tee "$chaos_dir/cdrain.out" >/dev/null
grep -q 'lost=0' "$chaos_dir/cdrain.out"
wait "$chaos_pid"
rm -rf "$chaos_dir"

# Server loadgen smoke run: harness executes and the machine-readable
# schema is intact (full runs regenerate the committed BENCH_server.json
# baseline; see DESIGN.md "Service architecture").
loadgen_out="$(mktemp)"
cargo run --release -q -p bench --bin loadgen -- --smoke --cert --out "$loadgen_out"
grep -q '"schema": "bench-server-v1"' "$loadgen_out"
grep -q '"cache_hits":' "$loadgen_out"
grep -q '"certified": 4' "$loadgen_out"
rm -f "$loadgen_out"

# Loadgen under fault injection: scheduled worker kills mid-stream must
# not drop a single query (supervised respawn + capacity-exempt
# requeue), and the drain must still be clean.
faults_log="$(mktemp)"
cargo run --release -q -p bench --bin loadgen -- --smoke --faults \
  --out "$faults_log.json" | tee "$faults_log" >/dev/null
grep -q 'every query answered' "$faults_log"
rm -f "$faults_log" "$faults_log.json"

# Cluster smoke: coordinator + 2 shard nodes over TCP, one verdict from
# a sharded job, then kill -9 one node mid-job and assert the verdict
# still arrives (orphaned-shard re-dispatch) and the coordinator drain
# loses nothing. Direct binary exec so the SIGKILL hits the node itself.
cluster_dir="$(mktemp -d)"
"$charon_bin" example \
  --out-network "$cluster_dir/xor.net" --out-property "$cluster_dir/p.prop"
"$charon_bin" node --addr tcp:127.0.0.1:7181 --workers 1 &
node1_pid=$!
"$charon_bin" node --addr tcp:127.0.0.1:7182 --workers 1 &
node2_pid=$!
sleep 0.3
"$charon_bin" serve --addr tcp:127.0.0.1:7180 --coordinator \
  --nodes tcp:127.0.0.1:7181,tcp:127.0.0.1:7182 --shards 4 \
  --journal "$cluster_dir/coord.wal" &
coord_pid=$!
sleep 0.3
"$charon_bin" submit --addr tcp:127.0.0.1:7180 \
  --network "$cluster_dir/xor.net" --property "$cluster_dir/p.prop" \
  --id 31 | tee "$cluster_dir/c1.out" >/dev/null
grep -qx 'verified' "$cluster_dir/c1.out"
# Kill one node mid-job: submit in the background, SIGKILL node 1, and
# the coordinator must re-dispatch its shards to node 2.
"$charon_bin" submit --addr tcp:127.0.0.1:7180 \
  --network "$cluster_dir/xor.net" --property "$cluster_dir/p.prop" \
  --id 32 --timeout-ms 30000 --retries 10 >"$cluster_dir/c2.out" &
sub_pid=$!
kill -9 "$node1_pid"
wait "$node1_pid" 2>/dev/null || true
wait "$sub_pid"
grep -qx 'verified' "$cluster_dir/c2.out"
"$charon_bin" submit --addr tcp:127.0.0.1:7180 --drain \
  | tee "$cluster_dir/cdrain.out" >/dev/null
grep -q 'lost=0' "$cluster_dir/cdrain.out"
wait "$coord_pid"
"$charon_bin" submit --addr tcp:127.0.0.1:7182 --drain >/dev/null
wait "$node2_pid"
rm -rf "$cluster_dir"

# Cluster loadgen smoke: the multi-node benchmark harness executes and
# its schema is intact (full runs regenerate BENCH_cluster.json).
cluster_out="$(mktemp)"
cargo run --release -q -p bench --bin loadgen -- --cluster --smoke --out "$cluster_out"
grep -q '"schema": "bench-cluster-v1"' "$cluster_out"
grep -q '"two_node_qps":' "$cluster_out"
rm -f "$cluster_out"

# Overload smoke: drive the daemon at ~4x its measured plateau with
# shedding and client deadlines on. The harness itself asserts the
# acceptance bars (nonzero shed, p99 of answered jobs within the
# deadline, goodput near the plateau in full runs); here we re-check
# the load-bearing fields in the emitted JSON (full runs regenerate the
# committed BENCH_overload.json baseline).
overload_out="$(mktemp)"
cargo run --release -q -p bench --bin loadgen -- --overload --smoke --out "$overload_out"
grep -q '"schema": "bench-overload-v1"' "$overload_out"
grep -q '"lost": 0' "$overload_out"
if grep -q '"shed": 0,' "$overload_out"; then
  echo "ci.sh: overload run shed nothing — controller inert?" >&2; exit 1
fi
rm -f "$overload_out"

# Circuit-breaker smoke: a 2-node cluster where node 1 deterministically
# stalls its first shard (--fault-shard-stall). The coordinator must
# blow the read deadline once, trip the node's breaker
# (--breaker-threshold 1), re-route the shard to node 2, and still
# deliver the verdict; the stats must show the open breaker.
breaker_dir="$(mktemp -d)"
"$charon_bin" example \
  --out-network "$breaker_dir/xor.net" --out-property "$breaker_dir/p.prop"
"$charon_bin" node --addr tcp:127.0.0.1:7191 --workers 1 \
  --fault-shard-stall 0 --fault-shard-stall-ms 60000 &
bnode1_pid=$!
"$charon_bin" node --addr tcp:127.0.0.1:7192 --workers 1 &
bnode2_pid=$!
sleep 0.3
"$charon_bin" serve --addr tcp:127.0.0.1:7190 --coordinator \
  --nodes tcp:127.0.0.1:7191,tcp:127.0.0.1:7192 --shards 4 \
  --breaker-threshold 1 --breaker-cooldown-ms 60000 --node-grace-ms 500 \
  --no-journal &
bcoord_pid=$!
sleep 0.3
"$charon_bin" submit --addr tcp:127.0.0.1:7190 \
  --network "$breaker_dir/xor.net" --property "$breaker_dir/p.prop" \
  --id 41 --timeout-ms 1000 | tee "$breaker_dir/b1.out" >/dev/null
grep -qx 'verified' "$breaker_dir/b1.out"
"$charon_bin" submit --addr tcp:127.0.0.1:7190 --stats \
  | tee "$breaker_dir/bstats.out" >/dev/null
grep -qx 'breaker_open: 1' "$breaker_dir/bstats.out"
grep -qx 'breaker_opens: 1' "$breaker_dir/bstats.out"
"$charon_bin" submit --addr tcp:127.0.0.1:7190 --drain \
  | tee "$breaker_dir/bdrain.out" >/dev/null
grep -q 'lost=0' "$breaker_dir/bdrain.out"
wait "$bcoord_pid"
"$charon_bin" submit --addr tcp:127.0.0.1:7192 --drain >/dev/null
wait "$bnode2_pid"
"$charon_bin" submit --addr tcp:127.0.0.1:7191 --drain >/dev/null
wait "$bnode1_pid"
rm -rf "$breaker_dir"

# Doc-freshness gate: every protocol message kind the code declares must
# be documented in docs/PROTOCOL.md (the kind inventories in protocol.rs
# are single-line consts, so a line-oriented extraction suffices; the
# same inventory is checked by crates/server/tests/protocol_doc.rs).
kinds="$(sed -n 's/^pub const \(REQUEST\|RESPONSE\)_KINDS.*= &\[\(.*\)\];$/\2/p' \
  crates/server/src/protocol.rs | tr -d '" ' | tr ',' '\n' | sort -u)"
[ -n "$kinds" ] || { echo "ci.sh: failed to extract protocol kinds" >&2; exit 1; }
for kind in $kinds; do
  grep -q "\`$kind\`" docs/PROTOCOL.md \
    || { echo "ci.sh: protocol kind '$kind' missing from docs/PROTOCOL.md" >&2; exit 1; }
done
