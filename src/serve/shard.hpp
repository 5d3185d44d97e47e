// One serving shard: a PredictionEngine behind a lock-free bounded MPSC
// ring (common/mpsc_ring.hpp).
//
// The fleet server partitions banks across shards; each shard's worker
// thread consumes its ring in FIFO order, so every bank's records reach its
// engine in exactly the submission order — the property that makes an
// N-shard server's decisions bit-identical to one engine consuming the same
// feed (banks never span shards, and Cordial's policy is per-bank).
//
// Hot path: Submit is one CAS on the ring tail plus a release store — no
// mutex, no condvar signal, no allocation (records move into pre-allocated
// cache-line-padded slots). SubmitBatch claims a contiguous run of slots
// with a single CAS. The worker drains up to `QueueConfig::batch_max`
// records per wakeup into a worker-local buffer before touching the engine,
// so the per-record queue cost amortizes across the batch. Waiting is
// adaptive spin-then-park: a bounded spin (QueueConfig::spin_budget), then
// a futex-style park on an atomic epoch (ParkingSpot) — the pre-ring
// not_empty_/not_full_/idle_ condvars survive only inside that park
// mechanism, and nobody touches them while the queue is moving.
//
// The queue is bounded; what happens when producers outrun the worker is the
// OverloadPolicy: block the producer (lossless, backpressure), drop the
// oldest queued record (bounded latency, lossy — the producer evicts the
// ring head itself, which is why pops are MPMC-safe), or reject the new
// record (caller decides). Every lossy outcome is counted.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/mpsc_ring.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"

namespace cordial::serve {

/// What Submit does when the shard's queue is full.
enum class OverloadPolicy {
  kBlock,       ///< wait for space — lossless backpressure
  kDropOldest,  ///< evict the oldest queued record, keep the new one
  kReject,      ///< refuse the new record (Submit returns false)
};

struct QueueConfig {
  std::size_t capacity = 1024;  ///< must be >= 1 (exact bound, any value)
  OverloadPolicy policy = OverloadPolicy::kBlock;
  /// Latency-histogram sampling stride (must be >= 1): only every Nth
  /// submitted record is clock-stamped, and only stamped records feed the
  /// queue and engine latency histograms. Counters and gauges stay exact —
  /// they cost relaxed atomics, while a timed record costs up to four
  /// steady_clock reads, which at multi-M records/s dominates the
  /// observability bill. 1 = time everything (exact for a single producer;
  /// concurrent producers may sample a near-miss of the stride); 64 keeps
  /// the instrumented hot path within the perf_obs_overhead budget.
  std::size_t latency_sample_every = 64;
  /// Max records the worker drains from the ring per wakeup (must be
  /// >= 1). Larger batches amortize ring claims and wakeups; the records
  /// still hit the engine one at a time, in FIFO order.
  std::size_t batch_max = 256;
  /// Spin iterations before a waiter (blocked producer, empty worker,
  /// Drain) parks on its ParkingSpot. 0 = park immediately. Keep small on
  /// oversubscribed hosts — the spin yields periodically so a single core
  /// still makes progress.
  std::size_t spin_budget = 128;
};

/// Tallies of everything that crossed (or failed to cross) a shard's queue.
struct ShardCounters {
  std::uint64_t submitted = 0;      ///< records accepted into the queue
  std::uint64_t processed = 0;      ///< records the engine consumed
  std::uint64_t dropped_oldest = 0; ///< evictions under kDropOldest
  std::uint64_t rejected = 0;       ///< refusals under kReject

  friend bool operator==(const ShardCounters&,
                         const ShardCounters&) = default;
};

/// A single engine + ring + worker thread. Thread-safe for any number of
/// producers calling Submit/SubmitBatch concurrently; the engine itself is
/// touched only by the worker.
class EngineShard {
 public:
  /// Called by the worker after each engine step (still on the worker
  /// thread, engine state already advanced). May be empty.
  using ActionSink = std::function<void(const trace::MceRecord&,
                                        const core::IsolationActions&)>;

  /// `instrument` turns on the shard's own metric registry: queue depth
  /// gauge, submit→processed latency histogram, overload counters, plus the
  /// engine's cordial_engine_* metrics — all labelled with `metric_labels`
  /// (the fleet server passes {{"shard", "<index>"}}). Everything is
  /// accumulated with relaxed atomics on the hot path; scraping merges
  /// per-shard registries so producers and workers never contend on a
  /// shared metrics lock. With instrument=false the shard runs the bare
  /// hot path (no clock reads, null metric pointers).
  EngineShard(const hbm::TopologyConfig& topology,
              const core::PatternClassifier& classifier,
              const core::CrossRowPredictor& single_predictor,
              const core::CrossRowPredictor* double_predictor,
              core::EngineConfig engine_config, QueueConfig queue_config = {},
              ActionSink sink = nullptr, bool instrument = true,
              obs::Labels metric_labels = {});
  ~EngineShard();

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Spawn the worker thread. Submitting before Start is allowed (records
  /// queue up), but kBlock submits to a full unstarted shard would wait
  /// forever — start first under that policy.
  void Start();

  /// Subscribe this shard's engine to a published model slot (see
  /// PredictionEngine::AttachModelSlot). The worker adopts newly published
  /// generations at record boundaries. Call before Start or while the
  /// shard is drained; the slot must outlive the shard.
  void AttachModelSlot(const core::ModelSlot& slot);

  /// Enqueue one record. Returns false only when the record was refused
  /// (kReject on a full queue, or the shard is stopping). The && overload
  /// moves the record straight into its ring slot.
  bool Submit(const trace::MceRecord& record);
  bool Submit(trace::MceRecord&& record);

  /// Enqueue a run of records in order, claiming contiguous slot runs with
  /// one CAS each. Returns how many were accepted (all of them under
  /// kBlock/kDropOldest unless the shard is stopping; under kReject the
  /// tail of the span past the first full encounter is refused and
  /// counted). Per-bank record order is preserved: the span lands in the
  /// ring exactly in span order.
  std::size_t SubmitBatch(std::span<const trace::MceRecord> records);

  /// Block until every accepted record has been processed (or dropped) and
  /// the worker is idle. Requires the worker to be running if anything is
  /// queued.
  void Drain();

  /// Process everything still queued, then join the worker. Idempotent.
  void Stop();

  /// The shard's engine. Safe to read only while the shard is drained or
  /// stopped and no producer is submitting.
  const core::PredictionEngine& engine() const { return engine_; }

  /// Model generation the engine currently serves. Unlike engine(), safe
  /// while the worker runs (relaxed atomic read).
  std::uint64_t model_version() const { return engine_.model_version(); }

  ShardCounters counters() const;

  /// Records currently queued, read straight off the ring's head/tail
  /// tickets (racy by nature; exact once drained). Costs two atomic loads
  /// and touches nothing the hot path writes per-record.
  std::size_t queue_depth() const { return ring_.ApproxSize(); }

  bool instrumented() const { return queue_metrics_.depth != nullptr; }

  /// Scrape this shard's registry. Safe at any time, concurrently with
  /// producers and the worker; cheap (atomic loads under the registry
  /// registration lock). The queue-depth gauge is refreshed here from the
  /// ring's head/tail tickets rather than on the hot path — a gauge
  /// written by both the producer and the worker would ping-pong its cache
  /// line millions of times per second for a value only scrapes ever read.
  obs::RegistrySnapshot MetricsSnapshot() const;

  /// Append the engine's checkpoint frame to `out`
  /// (PredictionEngine::AppendState). The shard must be drained or stopped —
  /// enforced by a contract check.
  core::AppendedFrame AppendState(std::string& out) const;
  /// Parse the engine frame at the front of `in` without touching the
  /// engine; the fleet server stages every shard before committing any
  /// (see FleetServer::RestoreCheckpoint).
  core::PredictionEngine::StagedState ParseState(std::string_view& in) const;
  /// Adopt a staged state (drained-shard contract; never throws past it).
  void CommitState(core::PredictionEngine::StagedState&& staged);

  // --- delta checkpoints (drained-shard contract throughout) ---------------
  /// Append this engine's dirty banks as a delta frame
  /// (PredictionEngine::AppendDeltaState); the dirty set is not cleared —
  /// call MarkCheckpointClean once the bytes are durable. Returns the
  /// frame's CRC-32 and the number of banks written.
  core::AppendedFrame AppendDeltaState(std::string& out) const;
  /// Parse a delta without touching the engine (lock-free, like ParseState).
  core::PredictionEngine::StagedDelta ParseDeltaState(
      std::string_view& in) const;
  /// Apply a staged delta on top of the current engine state.
  void CommitDeltaState(core::PredictionEngine::StagedDelta&& staged);
  /// Advance the engine's snapshot epoch (all banks become clean).
  void MarkCheckpointClean();
  std::size_t dirty_bank_count() const;
  std::size_t bank_count() const;

 private:
  enum class State : int { kIdle, kRunning, kStopping, kStopped };

  /// Hot-path metric handles, null when the shard is uninstrumented.
  struct QueueMetrics {
    obs::Gauge* depth = nullptr;
    obs::Histogram* latency = nullptr;  // submit → processed, seconds
    obs::Counter* submitted = nullptr;
    obs::Counter* processed = nullptr;
    obs::Counter* dropped_oldest = nullptr;
    obs::Counter* rejected = nullptr;
  };
  /// A queued record plus its enqueue instant (zero when unstamped).
  using QueueItem =
      std::pair<trace::MceRecord, std::chrono::steady_clock::time_point>;

  bool SubmitImpl(trace::MceRecord&& record);
  /// Push one already-built item, applying the overload policy. Returns
  /// false when the item was refused (kReject full, or stopping).
  bool PushWithPolicy(QueueItem&& item);
  /// Stride-sampled enqueue stamp for the record holding ticket `ticket`.
  std::chrono::steady_clock::time_point MaybeStamp(std::uint64_t ticket);
  bool StoppingOrStopped() const {
    const State s = state_.load(std::memory_order_acquire);
    return s == State::kStopping || s == State::kStopped;
  }
  /// True when every accepted record has been consumed (processed or
  /// dropped). Acquire loads, so a true answer also publishes the worker's
  /// engine writes to the caller. Drain waits for it, and every
  /// drained-shard contract check (AppendState, dirty_bank_count, ...) tests
  /// it, so a call right after Drain always passes its check.
  bool DrainedNow() const {
    return processed_.load(std::memory_order_acquire) +
               dropped_.load(std::memory_order_acquire) >=
           submitted_.load(std::memory_order_acquire);
  }
  void CountRejected(std::uint64_t n);
  void CountDropped(std::uint64_t n);
  void CountSubmitted(std::uint64_t n);
  void WorkerLoop();

  core::PredictionEngine engine_;
  QueueConfig queue_config_;
  ActionSink sink_;
  obs::MetricRegistry metrics_registry_;
  QueueMetrics queue_metrics_;

  MpscRing<QueueItem> ring_;
  /// Queue counters. Release on write / acquire on read so counters() and
  /// DrainedNow() observers see the work the counts describe.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> next_latency_stamp_{0};
  std::atomic<State> state_{State::kIdle};

  /// Park points (spin-then-park waiters only; never touched while the
  /// queue is moving). These are the surviving descendants of the pre-ring
  /// not_empty_/not_full_/idle_ condvars.
  ParkingSpot not_empty_;  ///< worker parks here when the ring is empty
  ParkingSpot not_full_;   ///< kBlock producers park here when full
  ParkingSpot idle_;       ///< Drain parks here until the shard quiesces

  /// Serializes Start/Stop/checkpoint calls (mutable: AppendState is const).
  mutable std::mutex control_mutex_;
  std::vector<QueueItem> drain_buf_;  ///< worker-local batch buffer
  std::thread worker_;
};

}  // namespace cordial::serve
