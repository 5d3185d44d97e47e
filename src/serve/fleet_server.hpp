// Sharded fleet server: N PredictionEngines behind deterministic routing.
//
// A fleet feed is one globally time-ordered MCE stream; a single engine
// consumes it serially. The server splits the fleet's banks across N
// EngineShards via a fixed hash of the global bank key (SplitMix64, so
// adjacent keys scatter), each with its own queue + worker. Because Cordial
// is per-bank — profiles, decision state, ledger entries never cross banks —
// a bank's records all land on one shard in submission order, and the
// sharded server's decisions, ledgers and aggregate stats are bit-identical
// to the single engine's (pinned by tests/serve/fleet_server_test.cpp).
//
// Checkpointing: AppendCheckpoint encodes every shard's engine into one
// versioned frame, in place in the caller's buffer; RestoreCheckpoint parses
// such a member in place and rebuilds a same-shape server that resumes
// bit-identically. Both require the server to be drained. Members reach the
// restore paths only as views (persist::CheckpointChain reads each file
// whole); the stream writers (SaveCheckpoint, SaveDeltaCheckpoint) are thin
// adapters over the Append paths.
//
// Migration: a shard's engine state can leave one server and land in
// another. ExportShard drains the shard and returns its framed engine
// section (the exact bytes a checkpoint would hold for it); ImportShard
// installs such a section into the same-index shard of another server.
// Routing is position-based — ShardIndexOf(bank_key, shard_count) is a pure
// function every process agrees on — so a driver that runs N servers each
// constructed with the full shard_count, feeds each server only the shards
// it owns, and moves ownership with Export/Import, produces per-shard
// engine states bit-identical to one server consuming the whole feed
// (pinned by tests/serve/migration_test.cpp and the tier-1 two-process
// smoke).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/shard.hpp"

namespace cordial::serve {

struct FleetServerConfig {
  std::size_t shard_count = 1;  ///< must be >= 1
  core::EngineConfig engine;    ///< per-shard engine configuration
  QueueConfig queue;            ///< per-shard queue bound + overload policy
  /// Per-shard metrics (queue depth, latency histograms, engine action
  /// counters, labelled shard="<index>"). Near-free on the hot path —
  /// relaxed atomics and two steady_clock reads per record — but can be
  /// turned off to benchmark the bare path (bench/perf_obs_overhead).
  bool instrument = true;
  /// When set, every shard's engine subscribes to this slot
  /// (PredictionEngine::AttachModelSlot): newly published model generations
  /// are adopted per shard at its next record boundary. The slot must
  /// outlive the server. Null = models are fixed for the server's lifetime.
  const core::ModelSlot* model_slot = nullptr;
};

class FleetServer {
 public:
  /// Sink invoked on each shard's worker thread after every engine step.
  /// Distinct shards call it concurrently — the sink must be thread-safe
  /// (per-shard sinks can be built by dispatching on `shard`).
  using ActionSink = std::function<void(std::size_t shard,
                                        const trace::MceRecord& record,
                                        const core::IsolationActions&)>;

  FleetServer(const hbm::TopologyConfig& topology,
              const core::PatternClassifier& classifier,
              const core::CrossRowPredictor& single_predictor,
              const core::CrossRowPredictor* double_predictor = nullptr,
              FleetServerConfig config = {}, ActionSink sink = nullptr);

  /// Movable (factory-style construction); the atomic tallies carry over
  /// with relaxed loads — only valid between submissions, which is the
  /// only time moving a server is sane anyway.
  FleetServer(FleetServer&& other) noexcept
      : codec_(std::move(other.codec_)),
        shards_(std::move(other.shards_)),
        invalid_records_(
            other.invalid_records_.load(std::memory_order_relaxed)),
        state_installs_(
            other.state_installs_.load(std::memory_order_relaxed)) {}

  void Start();  ///< start every shard's worker
  /// Route one record to its bank's shard. Returns false when that shard
  /// refused it (kReject overload policy). The && overload moves the record
  /// all the way into its shard's ring slot.
  ///
  /// Records with an out-of-topology address or a non-finite timestamp are
  /// silently consumed: counted in invalid_records(), reported as accepted
  /// (no spurious backpressure to remote feeders), never routed to a shard.
  /// Without this guard such a record would trip BankKey's contract check on
  /// the submitter's thread and take the daemon down with it.
  bool Submit(const trace::MceRecord& record);
  bool Submit(trace::MceRecord&& record);
  /// Route a batch: bucket the span by shard (stable — records keep their
  /// span order within each bucket, which is all determinism needs since a
  /// bank never spans shards), then hand each bucket to its shard's
  /// SubmitBatch. Returns the number of records accepted; invalid records
  /// follow the Submit contract (counted, included in the return, dropped).
  std::size_t SubmitBatch(std::span<const trace::MceRecord> records);
  void Drain();  ///< block until every shard is idle with an empty queue
  void Stop();   ///< drain remaining work and join all workers; idempotent

  std::size_t shard_count() const { return shards_.size(); }
  const EngineShard& shard(std::size_t index) const {
    return *shards_[index];
  }
  /// Deterministic bank→shard routing: SplitMix64(bank_key) % shard_count.
  std::size_t ShardOf(std::uint64_t bank_key) const;
  /// The same routing as a pure function — remote feeders use it to agree
  /// with every server on which shard owns a bank.
  static std::size_t ShardIndexOf(std::uint64_t bank_key,
                                  std::size_t shard_count);
  const hbm::AddressCodec& codec() const { return codec_; }

  // --- shard migration -----------------------------------------------------

  /// Block until shard `index` is idle with an empty queue.
  void DrainShard(std::size_t index);
  /// Drain shard `index` and return its engine's framed state — the exact
  /// bytes SaveCheckpoint writes for that shard's section. The caller must
  /// stop submitting records routed to this shard first, or the export is a
  /// snapshot of a moving target.
  std::string ExportShard(std::size_t index);
  /// Drain shard `index` and replace its engine state with a section
  /// previously produced by ExportShard (here or on another server with the
  /// same engine config): exactly one engine frame. Throws ParseError on
  /// malformed input or trailing bytes and leaves the shard unchanged.
  void ImportShard(std::size_t index, const std::string& state);

  /// Records consumed by Submit/SubmitBatch that never reached a shard
  /// because their address fell outside the topology or their timestamp was
  /// non-finite.
  std::uint64_t invalid_records() const {
    return invalid_records_.load(std::memory_order_relaxed);
  }

  /// Element-wise sum of every shard engine's stats (ratios recompute from
  /// the summed tallies). Meaningful when drained.
  core::EngineStats AggregateStats() const;
  /// Element-wise sum of every shard's queue counters.
  ShardCounters AggregateCounters() const;

  /// Merge every shard registry's snapshot into one deterministic scrape
  /// (samples sorted by name + shard label). Safe to call at any time,
  /// concurrently with submission and the workers — this is the /metrics
  /// read path. When the server is uninstrumented the snapshot is empty.
  obs::RegistrySnapshot MetricsSnapshot() const;

  /// Per-shard model generation currently being served, read from each
  /// engine's model-version gauge path (an acquire load — safe while
  /// running). Shards adopt a published generation independently at their
  /// next record boundary, so the entries may briefly disagree right after
  /// a publish; they converge as every shard touches its next record.
  std::vector<std::uint64_t> ModelVersions() const;

  /// Human-readable per-shard table (queue counters, depth, live engine
  /// action counters) for /statusz. Safe while running: every cell comes
  /// from a mutex-guarded counter copy or an atomic metric, never from the
  /// engines themselves.
  std::string StatusTable() const;

  /// Append every shard engine's state to `out` as one framed checkpoint
  /// member ("shards N" + one nested binary engine frame per shard),
  /// encoded in place: no section is built in a buffer of its own. The
  /// server must be drained (Drain() or Stop() first). Returns the member's
  /// CRC-32, combined from the shard frames' (each read once, as it was
  /// closed), and its bank count.
  core::AppendedFrame AppendCheckpoint(std::string& out) const;
  /// AppendCheckpoint written to a stream. kBinary is the only encoding.
  void SaveCheckpoint(std::ostream& out, core::StateEncoding encoding =
                                             core::StateEncoding::kBinary) const;
  /// Restore from a checkpoint member's bytes — exactly one frame — parsed
  /// in place. Throws ParseError on malformed input, version mismatch,
  /// trailing bytes, or a shard-count mismatch (a checkpoint only restores
  /// into a server with the same shard count). Strong guarantee: every
  /// shard section is parsed before any shard commits, so a throw leaves
  /// the whole server unchanged — never half-restored.
  void RestoreCheckpoint(std::string_view member);

  // --- delta checkpoints (server must be drained throughout) ---------------

  /// Append every shard's dirty banks to `out` as one cordial_fleet_delta
  /// member, encoded in place. Dirty sets are NOT cleared — call
  /// MarkCheckpointClean once the bytes are durable, so a failed write
  /// loses nothing. Returns the member's CRC-32, combined as
  /// AppendCheckpoint's is, and the total number of banks written across
  /// shards.
  core::AppendedFrame AppendDeltaCheckpoint(std::string& out) const;
  /// AppendDeltaCheckpoint written to a stream.
  std::uint64_t SaveDeltaCheckpoint(std::ostream& out) const;
  /// Apply a delta member (exactly one frame, parsed in place) on top of
  /// the current state (the full snapshot it chains from, plus any earlier
  /// deltas). Same strong guarantee and checks as RestoreCheckpoint: every
  /// shard's delta is parsed before any commits.
  void ApplyDeltaCheckpoint(std::string_view member);
  /// Advance every shard's snapshot epoch (all banks become clean).
  void MarkCheckpointClean();
  /// Banks dirtied since the last MarkCheckpointClean, across all shards.
  std::size_t DirtyBankCount() const;
  std::size_t TotalBankCount() const;
  /// State installs so far: RestoreCheckpoint, ApplyDeltaCheckpoint and
  /// ImportShard each add one. An installed bank is clean, and a delta
  /// cannot drop the banks a replaced shard held, so no delta carries an
  /// install: a writer that sees this count move since its last full must
  /// write a full (CheckpointChain::Write does).
  std::uint64_t state_installs() const {
    return state_installs_.load(std::memory_order_relaxed);
  }

 private:
  bool ValidRecord(const trace::MceRecord& record) const;

  hbm::AddressCodec codec_;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::atomic<std::uint64_t> invalid_records_{0};
  std::atomic<std::uint64_t> state_installs_{0};
};

}  // namespace cordial::serve
