#!/usr/bin/env bash
# The full local gate: formatting, lints, tests, bench compilation.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy panic-lint gate (no unwrap/expect in library code)"
cargo clippy -p icvbe-units -p icvbe-devphys -p icvbe-numerics -p icvbe-core \
  -p icvbe-thermal -p icvbe-spice -p icvbe-bandgap -p icvbe-instrument \
  -p icvbe-campaign -p icvbe-trace -p icvbe-serve \
  --lib -- -D warnings -D clippy::unwrap-used -D clippy::expect-used

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo bench --no-run"
cargo bench --workspace --no-run

echo "==> bench smoke: campaign_scaling threads/8 (guards + timing)"
cargo bench -p icvbe-bench --bench campaign_scaling -- 'threads/8'

echo "==> fault-injection smoke: quarantine report vs golden fixture"
cargo build --release -p icvbe-repro
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --faults heavy --out "$smoke_dir" > /dev/null
diff -u scripts/fixtures/quarantine_smoke.csv "$smoke_dir/campaign_quarantine.csv"

echo "==> trace smoke: chrome JSON shape + masked folded profile vs golden fixture"
./target/release/repro campaign --diameter 3 --seed 7 --threads 2 \
  --trace="$smoke_dir" > /dev/null
grep -q '"schema":"icvbe-campaign-trace-v1"' "$smoke_dir/campaign_trace.json"
grep -q '"traceEvents":\[' "$smoke_dir/campaign_trace.json"
grep -q '"ph":"B"' "$smoke_dir/campaign_trace.json"
# The folded profile's frame paths are deterministic; only the trailing
# nanosecond sample counts are wall-clock. Mask them and pin the paths.
sed 's/ [0-9][0-9]*$/ 0/' "$smoke_dir/campaign_profile.folded" \
  | diff -u scripts/fixtures/trace_smoke.folded -

echo "==> perf smoke: device eval reuse is live"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --out "$smoke_dir/default" > /dev/null
metrics="$smoke_dir/default/campaign_metrics.json"
# The device caches must actually be running: exact-bit device
# evaluation reuses taken and the derived reuse rate nonzero.
grep -q '"device_reuses":0[,}]' "$metrics" && \
  { echo "FAIL: no device evaluation reuses"; exit 1; }
grep -q '"eval_reuse_rate":0[,}]' "$metrics" && \
  { echo "FAIL: zero device eval reuse rate"; exit 1; }

echo "==> retired-switch gate: removed solver flags are unknown arguments"
for flag in "--batch 1" --cold --no-bypass --libm-exp; do
  # shellcheck disable=SC2086 # "--batch 1" is two words on purpose
  if ./target/release/repro campaign --diameter 2 $flag \
    > /dev/null 2>"$smoke_dir/retired.err"; then
    echo "FAIL: repro campaign accepted the retired flag $flag"; exit 1
  else
    code=$?
  fi
  [ "$code" -eq 1 ] || { echo "FAIL: $flag exited $code, want 1"; exit 1; }
  grep -q 'unknown campaign argument' "$smoke_dir/retired.err" || \
    { echo "FAIL: $flag did not report an unknown campaign argument"; exit 1; }
done

echo "==> vexp smoke: exp-kernel conformance tests (2-ulp, slice bit-identity)"
cargo test -q -p icvbe-numerics --lib vexp

echo "==> vexp grep gate: no libm exp in Newton/stamp hot paths"
# The bits contract routes every hot-path exponential through the
# in-tree vexp kernel; a stray f64::exp would silently reintroduce
# platform-dependent bits. Doc comments and #[cfg(test)] code may still
# reference libm for conformance checks.
for f in crates/spice/src/limexp.rs crates/spice/src/bjt.rs \
         crates/devphys/src/saturation.rs crates/devphys/src/carriers.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v '^\s*//' | grep -q '\.exp()'; then
    echo "FAIL: libm .exp() in hot-path file $f"; exit 1
  fi
done

echo "==> serve smoke: streamed artifacts match one-shot bytes; kill -9 + resume"
frozen="campaign_aggregate.json campaign_aggregate.csv
        campaign_quarantine.json campaign_quarantine.csv"
./target/release/repro campaign --diameter 4 --seed 21 --threads 2 \
  --out "$smoke_dir/golden_small" > /dev/null
ckdir="$smoke_dir/ck"
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ckdir" > "$smoke_dir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve.log" 2>/dev/null || true)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: daemon never came up"; exit 1; }
./target/release/repro submit --addr "$addr" --label lot1 --diameter 4 --seed 21 \
  --out "$smoke_dir/served" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/golden_small/$f" "$smoke_dir/served/$f" || \
    { echo "FAIL: $f differs between one-shot and served"; exit 1; }
done
# Each slice runs exactly its own dies: the served job starts as many dies
# as the lot holds, none discarded and recomputed by the next slice.
dies="$(grep -o '"totals":{"dies":[0-9]*' "$smoke_dir/served/campaign_aggregate.json" \
  | grep -o '[0-9]*$')"
grep -q "\"dies_started\":$dies," "$smoke_dir/served/campaign_metrics.json" || \
  { echo "FAIL: served lot of $dies dies did not start exactly $dies dies"; exit 1; }
# A second, much larger lot: SIGKILL the daemon once its checkpoint file
# shows mid-campaign progress, restart on the same directory, and collect
# the resumed job by label — bytes must still match the one-shot run.
./target/release/repro campaign --diameter 40 --seed 22 --threads 2 \
  --out "$smoke_dir/golden_big" > /dev/null
./target/release/repro submit --addr "$addr" --label lot2 --diameter 40 --seed 22 \
  > /dev/null 2>&1 &
submit_pid=$!
progress=0
for _ in $(seq 1 200); do
  ck="$(ls "$ckdir"/job-*.json 2>/dev/null | head -1 || true)"
  if [ -n "$ck" ]; then
    progress="$(tr -d '\\' 2>/dev/null < "$ck" | grep -o '"next_die":[0-9]*' \
      | head -1 | cut -d: -f2 || true)"
    [ "${progress:-0}" -ge 20 ] && break
  fi
  sleep 0.05
done
[ "${progress:-0}" -ge 20 ] || \
  { echo "FAIL: no mid-campaign checkpoint observed"; exit 1; }
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
wait "$submit_pid" 2>/dev/null || true
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ckdir" > "$smoke_dir/serve2.log" &
serve2_pid=$!
addr2=""
for _ in $(seq 1 100); do
  addr2="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve2.log" 2>/dev/null || true)"
  [ -n "$addr2" ] && break
  sleep 0.1
done
[ -n "$addr2" ] || { echo "FAIL: restarted daemon never came up"; exit 1; }
./target/release/repro watch --addr "$addr2" --label lot2 \
  --out "$smoke_dir/resumed" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/golden_big/$f" "$smoke_dir/resumed/$f" || \
    { echo "FAIL: $f differs after kill -9 + resume"; exit 1; }
done
kill "$serve2_pid" 2>/dev/null || true
wait "$serve2_pid" 2>/dev/null || true

echo "==> chaos smoke: contained die panics are thread-invariant and counted"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --chaos die_panic=0.4 --chaos-seed 7 --out "$smoke_dir/chaos_t2" > /dev/null
./target/release/repro campaign --diameter 5 --seed 13 --threads 8 \
  --chaos die_panic=0.4 --chaos-seed 7 --out "$smoke_dir/chaos_t8" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/chaos_t2/$f" "$smoke_dir/chaos_t8/$f" || \
    { echo "FAIL: $f differs across thread counts under chaos"; exit 1; }
done
grep -q '"internal_panic":[1-9]' "$smoke_dir/chaos_t2/campaign_quarantine.json" || \
  { echo "FAIL: no internal_panic quarantine despite die_panic chaos"; exit 1; }
grep -q '"die_panics":0[,}]' "$smoke_dir/chaos_t2/campaign_metrics.json" && \
  { echo "FAIL: contained panics not counted"; exit 1; }
# Zero-chaos must reproduce historical bytes: an explicit --chaos-seed with
# all-zero probabilities changes nothing against the plain run.
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --chaos-seed 99 --out "$smoke_dir/chaos_off" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/default/$f" "$smoke_dir/chaos_off/$f" || \
    { echo "FAIL: $f differs with chaos plumbing idle"; exit 1; }
done

echo "==> chaos smoke: kill -9 a faulty-write daemon, tear the checkpoint, resume"
ck3="$smoke_dir/ck3"
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ck3" \
  --chaos write_error=0.2,torn=0.1 --chaos-seed 5 \
  > "$smoke_dir/serve3.log" 2>/dev/null &
serve3_pid=$!
addr3=""
for _ in $(seq 1 100); do
  addr3="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve3.log" 2>/dev/null || true)"
  [ -n "$addr3" ] && break
  sleep 0.1
done
[ -n "$addr3" ] || { echo "FAIL: chaos daemon never came up"; exit 1; }
./target/release/repro submit --addr "$addr3" --label lot3 --diameter 40 --seed 22 \
  > /dev/null 2>&1 &
submit3_pid=$!
# Wait for mid-campaign progress AND a complete rotated slot, so tearing
# the primary leaves a last-good generation to fall back to. Each poll
# freezes the daemon (SIGSTOP) before reading the directory, so the files
# cannot change, and the lot cannot finish, between the check and the
# kill -9: the kill lands on exactly the state the check saw. A complete
# checkpoint ends in "}\n"; a torn one is a strict prefix of that.
complete() { [ "$(tail -c 2 "$1" 2>/dev/null | od -An -tx1 | tr -d ' \n')" = "7d0a" ]; }
killed=0
for _ in $(seq 1 2000); do
  kill -0 "$submit3_pid" 2>/dev/null || { kill -9 "$serve3_pid"
    echo "FAIL: lot3 finished before a mid-campaign checkpoint was caught"; exit 1; }
  kill -STOP "$serve3_pid"
  prev="$(ls "$ck3"/job-*.prev.json 2>/dev/null | head -1 || true)"
  if [ -n "$prev" ] && complete "$prev"; then
    progress="$(cat "$ck3"/job-*.json 2>/dev/null | tr -d '\\' \
      | grep -o '"next_die":[0-9]*' | cut -d: -f2 | sort -n | tail -1 || true)"
    if [ "${progress:-0}" -ge 20 ]; then
      kill -9 "$serve3_pid"
      killed=1
      break
    fi
  fi
  kill -CONT "$serve3_pid"
  sleep 0.01
done
[ "$killed" = 1 ] || \
  { kill -9 "$serve3_pid"; echo "FAIL: no mid-campaign checkpoint + rotated slot observed"; exit 1; }
wait "$serve3_pid" 2>/dev/null || true
wait "$submit3_pid" 2>/dev/null || true
# The frozen state had the lot mid-campaign: a finished lot removes both
# slots, so the .prev slot must still be there.
[ -n "$(ls "$ck3"/job-*.prev.json 2>/dev/null)" ] || \
  { echo "FAIL: lot3 finished before the kill"; exit 1; }
# Tear the tail off the newest checkpoint — a crash mid-write. The restart
# (chaos off) must recover through the .prev slot, byte-identically.
# kill -9 can land between the rotate and the fresh primary write; a
# missing primary is already the torn state the drill wants, so only
# truncate when one exists.
ck="$(ls "$ck3"/job-*.json 2>/dev/null | grep -v prev | head -1 || true)"
[ -z "$ck" ] || truncate -s -17 "$ck"
./target/release/repro serve --addr 127.0.0.1:0 --threads 2 --slice 8 \
  --checkpoint-every 1 --checkpoint-dir "$ck3" \
  > "$smoke_dir/serve4.log" 2>"$smoke_dir/serve4.err" &
serve4_pid=$!
addr4=""
for _ in $(seq 1 100); do
  addr4="$(sed -n 's/^icvbe-serve listening on //p' "$smoke_dir/serve4.log" 2>/dev/null || true)"
  [ -n "$addr4" ] && break
  sleep 0.1
done
[ -n "$addr4" ] || { echo "FAIL: post-tear daemon never came up"; exit 1; }
./target/release/repro watch --addr "$addr4" --label lot3 \
  --out "$smoke_dir/resumed3" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/golden_big/$f" "$smoke_dir/resumed3/$f" || \
    { echo "FAIL: $f differs after torn-checkpoint resume"; exit 1; }
done
grep -q 'resumed from previous generation' "$smoke_dir/serve4.err" || \
  { echo "FAIL: torn-checkpoint resume did not come from the .prev slot"; exit 1; }
kill "$serve4_pid" 2>/dev/null || true
wait "$serve4_pid" 2>/dev/null || true

echo "==> shard smoke: multi-process campaign is byte-identical; killed worker is typed"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --shards 1 --out "$smoke_dir/shard1" > /dev/null
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --shards 4 --out "$smoke_dir/shard4" > /dev/null
for f in $frozen; do
  cmp "$smoke_dir/default/$f" "$smoke_dir/shard1/$f" || \
    { echo "FAIL: $f differs between in-process and 1-shard run"; exit 1; }
  cmp "$smoke_dir/shard1/$f" "$smoke_dir/shard4/$f" || \
    { echo "FAIL: $f differs between 1-shard and 4-shard run"; exit 1; }
done
# A worker killed mid-slice must surface as the supervisor's typed error,
# not a hang, a partial artifact, or a silent success.
if ICVBE_SHARD_FAIL=2 ./target/release/repro campaign --diameter 5 --seed 13 \
  --threads 2 --shards 4 --out "$smoke_dir/shard_killed" \
  > /dev/null 2>"$smoke_dir/shard_killed.err"; then
  echo "FAIL: supervisor succeeded despite a killed shard worker"; exit 1
fi
grep -q 'shard worker 2 exited with code 3' "$smoke_dir/shard_killed.err" || \
  { echo "FAIL: killed worker did not surface the typed supervisor error"; exit 1; }
[ ! -e "$smoke_dir/shard_killed/campaign_aggregate.json" ] || \
  { echo "FAIL: failed sharded run still wrote artifacts"; exit 1; }

echo "==> adaptive smoke: probe corner bits match exhaustive, trailing corners skipped"
./target/release/repro campaign --diameter 5 --seed 13 --threads 2 \
  --adaptive --out "$smoke_dir/adaptive" > /dev/null
# default is the same spec run exhaustively; its first CSV data row is the
# probe corner. Adaptive appends a `skipped` column, so compare the shared
# prefix of the probe row and demand full skips on the trailing corners.
probe_ex="$(sed -n 2p "$smoke_dir/default/campaign_aggregate.csv")"
probe_ad="$(sed -n 2p "$smoke_dir/adaptive/campaign_aggregate.csv")"
case "$probe_ad" in
  "$probe_ex"*) : ;;
  *) echo "FAIL: adaptive probe corner drifted from the exhaustive bits"; exit 1 ;;
esac
grep -q '"skipped":[1-9]' "$smoke_dir/adaptive/campaign_aggregate.json" || \
  { echo "FAIL: adaptive run on a clean wafer skipped nothing"; exit 1; }

echo "OK: all checks passed"
