#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, then the parallel-layer,
# serving-layer and observability tests again under ThreadSanitizer so data
# races in the thread pool, the shard queues, the metric registries, or any
# fanned-out hot path fail the run even when the plain build passes, and the
# engine/profile and feature-extractor tests under AddressSanitizer so
# lifetime bugs in the incremental per-bank state (the classification view
# allocated at a bank's first UER, the one bank map) fail the run too
# (including the checkpoint durability torture suite — truncation/bit-flip
# parsing is exactly where lifetime bugs would hide — and the model parser,
# which walks raw pointers over untrusted model bytes), and the codec,
# checkpoint and feature-extractor tests under UndefinedBehaviorSanitizer,
# so shifts, overflows and misaligned or out-of-range conversions in the
# varint/bit-pattern decoders fail the run too.
# Then smokes with the real daemon binaries, whose checkpoint is a chain
# directory compared by its fold (cordial_ckpt export): the durability drill
# (a failpoint power-cuts cordial_serverd while it publishes the first
# delta's manifest; the restart must end with a fold byte-identical to an
# uninterrupted reference's), the chain drill (the same, cut mid-delta-
# member), the migration drill (cordial_feed drives two listening daemons,
# moves a shard between the processes mid-feed, and both the merged
# checkpoint it collects and the chain the receiving daemon writes at
# shutdown must be byte-identical to the never-migrated reference's fold),
# the hostile-feed drill, a check that a --checkpoint path that is not a
# directory fails the boot and is left untouched, and a check that a model
# with a flipped payload byte or a retired v4 header fails the boot.
# Finally five perf gates: instrumenting the serving hot path must cost
# <= 5% throughput vs the uninstrumented path (BENCH_obs.json), the
# lock-free batched ring must beat the pre-ring mutex queue >= 5x into a
# single shard (BENCH_queue.json), TCP ingest must sustain >= 80% of
# in-process SubmitBatch throughput at 8 connections (BENCH_net.json),
# serving under constant model hot-swaps must stay within 5% of the
# fixed-model path (BENCH_swap.json), and a steady-state dirty-bank delta
# checkpoint must be >= 10x cheaper than the binary full snapshot in both
# bytes and wall time on a >= 4k-bank fleet (BENCH_ckpt.json).
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-smoke]
#                         [--skip-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_SMOKE=0
SKIP_BENCH=0
for arg in "$@"; do
  [[ "$arg" == "--skip-tsan" ]] && SKIP_TSAN=1
  [[ "$arg" == "--skip-asan" ]] && SKIP_ASAN=1
  [[ "$arg" == "--skip-smoke" ]] && SKIP_SMOKE=1
  [[ "$arg" == "--skip-bench" ]] && SKIP_BENCH=1
done

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "tier1: skipping ThreadSanitizer pass (--skip-tsan)"
else
  cmake -B build-tsan -S . -DCORDIAL_SANITIZE=thread \
    -DCORDIAL_BUILD_BENCHMARKS=OFF -DCORDIAL_BUILD_EXAMPLES=OFF
  cmake --build build-tsan -j
  # Run the parallel-layer tests wide enough to exercise the worker pool,
  # plus the serving-layer tests (shard workers + checkpointing), the
  # observability tests (concurrent metric accumulation, scrape-under-fire,
  # the admin HTTP server), the network plane (reactor loop thread,
  # ingest connections, cross-server shard migration), Framing, whose
  # Crc32FirstCallFromManyThreads races eight threads through Crc32's
  # one-time kernel choice (ctest runs each test in a process of its own),
  # and ModelParser and Serialize, whose models decode their trees on the
  # pool.
  CORDIAL_THREADS=8 ctest --test-dir build-tsan --output-on-failure \
    -R '^(Parallel|FleetServer|EngineCheckpoint|Obs|MpscRing|Net|Migration|Learn|ModelSwap|Persist|Chain|ReadDisturb|RowMapping|Framing|ModelParser|Serialize)'
fi

if [[ "$SKIP_ASAN" == "1" ]]; then
  echo "tier1: skipping AddressSanitizer pass (--skip-asan)"
else
  cmake -B build-asan -S . -DCORDIAL_SANITIZE=address \
    -DCORDIAL_BUILD_BENCHMARKS=OFF -DCORDIAL_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j
  # Framing, EngineCheckpoint, FleetServer and Chain cover the in-place
  # checkpoint codec: back-patched lengths, frame headers inserted in front
  # of their payloads, and views into member bytes. CheckpointMemory runs
  # too: its counting operator new sits on top of malloc, which ASan still
  # instruments, and so does ModelMemory in the same binary. The
  # feature-extractor suites (CrossRow ... TruncateAtUer) read BankProfile's
  # u32 row sets through the extractors' comparators and copy and move the
  # heap-allocated UER block. SparingLedger inserts into and searches the
  # ledger's sorted row vectors. LogCodec runs the two parsers of untrusted
  # record bytes: the CSV feed and the 49-byte wire record decoder. The
  # tree suites (ClassificationTree ... Booster) and LockstepWalk build and
  # walk the split layout: child references that name a split or, with
  # their top bit set, a table entry, and the k-row walk's reused buffers.
  ctest --test-dir build-asan --output-on-failure \
    -R '^(BankProfile|PredictionEngine|Obs|Durability|Failpoint|Net|Migration|Learn|ModelSwap|Persist|Chain|ReadDisturb|RowMapping|Serialize|ModelParser|Framing|EngineCheckpoint|FleetServer|CheckpointMemory|ModelMemory|SparingLedger|CrossRow|ClassificationFeature|PatternClassifier|Isolation|EstimateRowStride|TruncateAtUer|LogCodec|ClassificationTree|RegressionTree|RandomForest|Booster|LockstepWalk)'
fi

cmake -B build-ubsan -S . -DCORDIAL_SANITIZE=undefined \
  -DCORDIAL_BUILD_BENCHMARKS=OFF -DCORDIAL_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j
# The binary codec (varints, zigzag, presence masks, row gaps), every
# suite that encodes or decodes checkpoint, wire, record or model bytes,
# the feature-extractor suites, whose comparators convert u32 rows to
# double, and the tree suites and LockstepWalk, which narrow split features
# to 16 bits and mask child references.
ctest --test-dir build-ubsan --output-on-failure \
  -R '^(BankProfile|PredictionEngine|Durability|Persist|Chain|Framing|EngineCheckpoint|CheckpointMemory|ModelMemory|SparingLedger|FleetServer|Migration|Net|Serialize|ModelParser|CrossRow|ClassificationFeature|PatternClassifier|Isolation|EstimateRowStride|TruncateAtUer|LogCodec|ClassificationTree|RegressionTree|RandomForest|Booster|LockstepWalk)'

if [[ "$SKIP_SMOKE" == "1" ]]; then
  echo "tier1: skipping durability smoke (--skip-smoke)"
else
  # Crash/recovery drills with the real daemon binaries. Every run writes
  # a checkpoint chain (a full, then deltas, each member and then the
  # manifest written durably), so durable-write hits run full (1), manifest
  # (2), delta (3), manifest (4), ... An uninterrupted run gives the
  # reference fold every drill compares against.
  SMOKE=build/durability-smoke
  rm -rf "$SMOKE"
  mkdir -p "$SMOKE"
  ./build/examples/cordial_cli generate "$SMOKE/log.csv" > /dev/null
  ./build/examples/cordial_cli train "$SMOKE/log.csv" "$SMOKE/m" > /dev/null
  TOTAL=$(( $(wc -l < "$SMOKE/log.csv") - 1 ))  # minus the CSV header
  EVERY=$(( TOTAL / 4 ))
  [[ "$EVERY" -ge 1 ]] || { echo "tier1: smoke feed too small"; exit 1; }

  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/ref" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  ./build/examples/cordial_ckpt export "$SMOKE/ref" "$SMOKE/ref.full" \
    2> /dev/null

  # Both --version printouts list the chain manifest and engine frame
  # formats the chain above was written in, and the daemon's the model
  # frame format the models above were saved in.
  for BIN in cordial_serverd cordial_ckpt; do
    VERSION=$(./build/examples/$BIN --version)
    for FORMAT in "chain manifest: *cordial_ckpt_manifest v2 (binary)" \
                  "engine state: *cordial_engine_state v5 " \
                  "engine delta: *cordial_engine_delta v4$"; do
      grep -q "$FORMAT" <<< "$VERSION" || {
        echo "tier1: $BIN --version does not list \"$FORMAT\""
        exit 1; }
    done
  done
  grep -q "model frames: .* v5$" <<< "$(./build/examples/cordial_serverd \
    --version)" || {
    echo "tier1: cordial_serverd --version does not list model frames v5"
    exit 1; }

  # Durability drill: the failpoint power-cuts (::_exit 121) the second
  # checkpoint while it publishes its manifest (hit 4), after the first
  # delta member is durable and renamed into place. The member stays
  # unlisted, so the chain is still the first checkpoint's full; the
  # restart must recover it, re-feed the lost records, and fold to the
  # reference's bytes.
  set +e
  CORDIAL_FAILPOINTS="serve.checkpoint.crash_before_rename=3:1" \
    ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/crash" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  CRASH_CODE=$?
  set -e
  if [[ "$CRASH_CODE" != "121" ]]; then
    echo "tier1: smoke expected power-cut exit 121, got $CRASH_CODE"
    exit 1
  fi
  # The cut happened after the manifest's tmp fsync: the unpublished
  # manifest and the unlisted member it would have listed must exist.
  [[ -f "$SMOKE/crash/MANIFEST.tmp" ]] || {
    echo "tier1: smoke durable MANIFEST.tmp missing after power cut"; exit 1; }
  [[ -f "$SMOKE/crash/delta-000001.0001.ckpt" ]] || {
    echo "tier1: smoke unlisted delta member missing after power cut"; exit 1; }
  # The surviving one-member chain must verify sound.
  ./build/examples/cordial_ckpt verify "$SMOKE/crash" > /dev/null

  # The crashed run consumed 2*EVERY records but only EVERY are durable;
  # the restart re-feeds everything after the surviving checkpoint
  # (line 1 is the CSV header, so data record N is line N+1).
  tail -n +$(( EVERY + 2 )) "$SMOKE/log.csv" > "$SMOKE/rest.csv"
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/rest.csv" \
    --checkpoint "$SMOKE/crash" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  ./build/examples/cordial_ckpt export "$SMOKE/crash" "$SMOKE/crash.full" \
    2> /dev/null
  cmp "$SMOKE/ref.full" "$SMOKE/crash.full"
  echo "tier1: durability smoke OK (power cut publishing the first delta's" \
    "manifest at record $(( 2 * EVERY )), resumed from record $EVERY," \
    "folded chains byte-identical)"

  # Chain drill: the same power cut one durable write earlier (hit 3),
  # mid-first-delta-member. Only the full survives; the restart must
  # recover off that chain prefix, re-feed the lost records, and fold to
  # the reference's bytes.
  set +e
  CORDIAL_FAILPOINTS="serve.checkpoint.crash_before_rename=2:1" \
    ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/chain-crash" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  CRASH_CODE=$?
  set -e
  if [[ "$CRASH_CODE" != "121" ]]; then
    echo "tier1: chain smoke expected power-cut exit 121, got $CRASH_CODE"
    exit 1
  fi
  # The surviving prefix (the epoch-1 full + manifest) must verify sound.
  ./build/examples/cordial_ckpt verify "$SMOKE/chain-crash" > /dev/null

  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/rest.csv" \
    --checkpoint "$SMOKE/chain-crash" --checkpoint-every "$EVERY" \
    --shards 2 --status-every 0 > /dev/null 2>&1
  ./build/examples/cordial_ckpt export "$SMOKE/chain-crash" \
    "$SMOKE/chain-crash.full" 2> /dev/null
  cmp "$SMOKE/ref.full" "$SMOKE/chain-crash.full"
  echo "tier1: chain smoke OK (power cut mid-delta at record $(( 2 * EVERY ))," \
    "resumed off the chain from record $EVERY, folded chains byte-identical)"

  # Migration smoke with two live daemons. Both serve the TCP ingest plane;
  # cordial_feed routes shards across them, moves shard 1 between processes
  # mid-feed, then collects a merged checkpoint from the final owners. It
  # must be byte-identical to the fold of the single-process never-migrated
  # reference chain the drills above produced from the same feed. Node A,
  # which ends up owning both shards, also resumes an appendable chain
  # (an empty server's full) and writes its shutdown checkpoint into it:
  # that member must carry the imported shard, so the chain's fold must
  # match the reference too.
  ./build/examples/cordial_serverd "$SMOKE/m" --input /dev/null \
    --checkpoint "$SMOKE/node_a" --shards 2 --status-every 0 \
    > /dev/null 2>&1
  NET_PIDS=""
  cleanup_net() { [[ -n "$NET_PIDS" ]] && kill $NET_PIDS 2>/dev/null || true; }
  trap cleanup_net EXIT
  ./build/examples/cordial_serverd "$SMOKE/m" --shards 2 --listen-port 0 \
    --checkpoint "$SMOKE/node_a" \
    --status-every 0 > /dev/null 2> "$SMOKE/node_a.log" &
  NET_PIDS="$!"
  ./build/examples/cordial_serverd "$SMOKE/m" --shards 2 --listen-port 0 \
    --status-every 0 > /dev/null 2> "$SMOKE/node_b.log" &
  NET_PIDS="$NET_PIDS $!"
  for _ in $(seq 1 100); do
    grep -q "ingest listening on" "$SMOKE/node_a.log" 2>/dev/null &&
      grep -q "ingest listening on" "$SMOKE/node_b.log" 2>/dev/null && break
    sleep 0.1
  done
  PORT_A=$(sed -n 's/.*ingest listening on .*:\([0-9]*\)$/\1/p' \
    "$SMOKE/node_a.log" | head -1)
  PORT_B=$(sed -n 's/.*ingest listening on .*:\([0-9]*\)$/\1/p' \
    "$SMOKE/node_b.log" | head -1)
  [[ -n "$PORT_A" && -n "$PORT_B" ]] || {
    echo "tier1: net smoke daemons never announced their ports"; exit 1; }
  ./build/examples/cordial_feed "$SMOKE/log.csv" --shards 2 \
    --to "127.0.0.1:$PORT_A" --to "127.0.0.1:$PORT_B" \
    --migrate "1:0@$(( TOTAL / 2 ))" --collect "$SMOKE/merged.ckpt" \
    > /dev/null 2>&1
  kill $NET_PIDS 2>/dev/null || true
  wait $NET_PIDS 2>/dev/null || true
  NET_PIDS=""
  cmp "$SMOKE/ref.full" "$SMOKE/merged.ckpt"
  ./build/examples/cordial_ckpt export "$SMOKE/node_a" "$SMOKE/node_a.full" \
    2> /dev/null
  cmp "$SMOKE/ref.full" "$SMOKE/node_a.full"
  echo "tier1: migration smoke OK (shard 1 moved between two processes at" \
    "record $(( TOTAL / 2 )), merged checkpoint and the receiver's chain" \
    "byte-identical)"

  # Hostile-feed smoke: cordial_storm distorts the reference feed (UER
  # bursts, duplicates, window reordering, malformed lines, correlated
  # multi-bank CEs) and announces exactly how many lines it wrote and how
  # many a validating consumer must reject. The daemon's counters must
  # match exactly — every malformed line skipped at the parse boundary,
  # every valid record either processed or skew-dropped, none lost — and
  # the checkpoint it writes under that abuse must still be loadable.
  ./build/examples/cordial_storm "$SMOKE/log.csv" --burst 3 \
    --duplicate 0.1 --reorder 8 --garbage 0.05 --multi-bank 2 --seed 7 \
    > "$SMOKE/storm.csv" 2> "$SMOKE/storm.stats"
  STORM_LINES=$(sed -n 's/^STORM lines=\([0-9]*\) .*/\1/p' "$SMOKE/storm.stats")
  STORM_BAD=$(sed -n 's/^STORM .* malformed=\([0-9]*\)$/\1/p' "$SMOKE/storm.stats")
  [[ -n "$STORM_LINES" && -n "$STORM_BAD" && "$STORM_BAD" -gt 0 ]] || {
    echo "tier1: storm smoke produced no stats (lines=$STORM_LINES" \
      "malformed=$STORM_BAD)"; exit 1; }
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/storm.csv" \
    --checkpoint "$SMOKE/storm" --checkpoint-every 0 \
    --shards 2 --status-every 0 > "$SMOKE/storm.out" 2>/dev/null
  SUBMITTED=$(grep "records submitted" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  MALFORMED=$(grep "malformed lines skipped" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  EVENTS=$(grep "events processed" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  SKEW=$(grep "stale records dropped (skew)" "$SMOKE/storm.out" \
    | grep -o '[0-9]\+' | tail -1)
  [[ "$MALFORMED" == "$STORM_BAD" ]] || {
    echo "tier1: storm smoke malformed mismatch: daemon=$MALFORMED" \
      "storm=$STORM_BAD"; exit 1; }
  [[ "$SUBMITTED" == "$(( STORM_LINES - STORM_BAD ))" ]] || {
    echo "tier1: storm smoke submitted mismatch: daemon=$SUBMITTED" \
      "expected=$(( STORM_LINES - STORM_BAD ))"; exit 1; }
  [[ "$(( EVENTS + SKEW ))" == "$SUBMITTED" ]] || {
    echo "tier1: storm smoke lost records: events=$EVENTS skew=$SKEW" \
      "submitted=$SUBMITTED"; exit 1; }
  ./build/examples/cordial_serverd "$SMOKE/m" --input /dev/null \
    --checkpoint "$SMOKE/storm" --checkpoint-every 0 \
    --shards 2 --status-every 0 > /dev/null 2> "$SMOKE/storm.resume.log"
  grep -q "resumed from checkpoint" "$SMOKE/storm.resume.log" || {
    echo "tier1: storm smoke checkpoint did not resume"; exit 1; }
  echo "tier1: hostile-feed smoke OK ($STORM_LINES storm lines," \
    "$STORM_BAD malformed all skipped, $EVENTS processed + $SKEW" \
    "skew-dropped = $SUBMITTED submitted, checkpoint reloadable)"

  # A --checkpoint path that is not a directory, here a single-file
  # checkpoint as older builds wrote, must fail the boot before the feed is
  # read (with --status-every 1 any submitted record prints a status line)
  # and stay byte-for-byte as it was.
  cp "$SMOKE/ref.full" "$SMOKE/state.ckpt"
  set +e
  ./build/examples/cordial_serverd "$SMOKE/m" --input "$SMOKE/log.csv" \
    --checkpoint "$SMOKE/state.ckpt" --shards 2 --status-every 1 \
    > /dev/null 2> "$SMOKE/notdir.log"
  NOTDIR_CODE=$?
  set -e
  [[ "$NOTDIR_CODE" != "0" ]] || {
    echo "tier1: daemon accepted a regular file as --checkpoint"; exit 1; }
  grep -q "state.ckpt exists and is not a directory" "$SMOKE/notdir.log" || {
    echo "tier1: not-a-directory boot error missing"; exit 1; }
  if grep -q "^\[status\]" "$SMOKE/notdir.log"; then
    echo "tier1: daemon read its feed before refusing --checkpoint"; exit 1
  fi
  cmp "$SMOKE/ref.full" "$SMOKE/state.ckpt"
  echo "tier1: not-a-directory check OK (exit $NOTDIR_CODE before the feed," \
    "single-file checkpoint untouched)"

  # A damaged model must fail the boot before the feed is read, the same
  # way: a copy of the trained single-row model with one payload byte
  # flipped fails its CRC, and one whose header says v4 (the newest retired
  # format, nodes with child offsets and leaf values inline) fails its
  # version check. The other two models are intact.
  for DAMAGE in checksum version; do
    BAD="$SMOKE/bad-$DAMAGE"
    cp "$SMOKE/m.pattern.model" "$BAD.pattern.model"
    cp "$SMOKE/m.double.model" "$BAD.double.model"
    cp "$SMOKE/m.single.model" "$BAD.single.model"
    if [[ "$DAMAGE" == "checksum" ]]; then
      HEADER=$(head -n 1 "$BAD.single.model" | wc -c)
      SIZE=$(stat -c %s "$BAD.single.model")
      AT=$(( HEADER + (SIZE - HEADER) / 2 ))
      BYTE=$(od -An -tu1 -j "$AT" -N 1 "$BAD.single.model" | tr -d ' ')
      printf "\\$(printf '%03o' $(( BYTE ^ 1 )))" |
        dd of="$BAD.single.model" bs=1 seek="$AT" conv=notrunc status=none
    else
      LC_ALL=C sed -i '1s/ v5 / v4 /' "$BAD.single.model"
      head -n 1 "$BAD.single.model" | grep -q " v4 " || {
        echo "tier1: could not rewrite the model header to v4"; exit 1; }
    fi
    if cmp -s "$SMOKE/m.single.model" "$BAD.single.model"; then
      echo "tier1: the $DAMAGE-damaged model copy is intact"; exit 1
    fi
    set +e
    ./build/examples/cordial_serverd "$BAD" --input "$SMOKE/log.csv" \
      --shards 2 --status-every 1 > /dev/null 2> "$BAD.log"
    BAD_CODE=$?
    set -e
    [[ "$BAD_CODE" != "0" ]] || {
      echo "tier1: daemon booted on a model with a $DAMAGE mismatch"; exit 1; }
    grep -q "$DAMAGE mismatch" "$BAD.log" || {
      echo "tier1: damaged-model boot error missing ($DAMAGE mismatch)"
      exit 1; }
    if grep -q "^\[status\]" "$BAD.log"; then
      echo "tier1: daemon read its feed before refusing a damaged model"
      exit 1
    fi
  done
  echo "tier1: damaged-model check OK (a flipped payload byte and a v4" \
    "header each fail the boot before the feed)"
fi

if [[ "$SKIP_BENCH" == "1" ]]; then
  echo "tier1: skipping observability overhead gate (--skip-bench)"
else
  # Exits non-zero when instrumentation costs more than 5% throughput.
  (cd build/bench && ./perf_obs_overhead)
  # Exits non-zero unless the lock-free batched ring beats the pre-ring
  # mutex queue >= 5x into one shard (BENCH_queue.json holds the rows).
  (cd build/bench && ./perf_queue_throughput)
  # Exits non-zero unless TCP ingest sustains >= 80% of in-process
  # SubmitBatch throughput at 8 connections (BENCH_net.json holds the rows).
  (cd build/bench && ./perf_net_ingest)
  # Exits non-zero when serving under constant identical-bits model
  # publishes costs more than 5% steady-state throughput vs the fixed-model
  # path (BENCH_swap.json holds the rows).
  (cd build/bench && ./perf_model_swap)
  # Exits non-zero unless a steady-state dirty-bank delta checkpoint is
  # >= 10x cheaper than the binary full snapshot in both bytes and wall
  # time on a >= 4k-bank fleet (BENCH_ckpt.json holds the rows).
  (cd build/bench && ./perf_checkpoint)
fi
echo "tier1: OK"
