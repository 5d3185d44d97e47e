#include "serve/shard.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/check.hpp"

namespace cordial::serve {

namespace {

/// Bounded spin with periodic yields so an oversubscribed (or single-core)
/// host hands the cycles to whichever thread can make the condition true.
/// Returns the condition's final value.
template <typename Ready>
bool SpinFor(std::size_t budget, Ready&& ready) {
  for (std::size_t i = 0; i < budget; ++i) {
    if (ready()) return true;
    if ((i & 15u) == 15u) {
      std::this_thread::yield();
    } else {
      CpuRelax();
    }
  }
  return ready();
}

}  // namespace

EngineShard::EngineShard(const hbm::TopologyConfig& topology,
                         const core::PatternClassifier& classifier,
                         const core::CrossRowPredictor& single_predictor,
                         const core::CrossRowPredictor* double_predictor,
                         core::EngineConfig engine_config,
                         QueueConfig queue_config, ActionSink sink,
                         bool instrument, obs::Labels metric_labels)
    : engine_(topology, classifier, single_predictor, double_predictor,
              engine_config),
      queue_config_(queue_config),
      sink_(std::move(sink)),
      ring_([&] {
        CORDIAL_CHECK_MSG(queue_config.capacity >= 1,
                          "shard queue capacity must be >= 1");
        return queue_config.capacity;
      }()) {
  CORDIAL_CHECK_MSG(queue_config_.latency_sample_every >= 1,
                    "latency sample stride must be >= 1");
  CORDIAL_CHECK_MSG(queue_config_.batch_max >= 1,
                    "worker drain batch must be >= 1");
  if (instrument) {
    queue_metrics_.depth = &metrics_registry_.GetGauge(
        "cordial_shard_queue_depth", "Records waiting in the shard queue",
        metric_labels);
    queue_metrics_.latency = &metrics_registry_.GetHistogram(
        "cordial_shard_latency_seconds",
        "Submit-to-processed latency through the shard queue",
        obs::DefaultLatencyBuckets(), metric_labels);
    queue_metrics_.submitted = &metrics_registry_.GetCounter(
        "cordial_shard_records_submitted_total",
        "Records accepted into the shard queue", metric_labels);
    queue_metrics_.processed = &metrics_registry_.GetCounter(
        "cordial_shard_records_processed_total",
        "Records the shard's engine consumed", metric_labels);
    queue_metrics_.dropped_oldest = &metrics_registry_.GetCounter(
        "cordial_shard_records_dropped_oldest_total",
        "Queued records evicted under the drop-oldest overload policy",
        metric_labels);
    queue_metrics_.rejected = &metrics_registry_.GetCounter(
        "cordial_shard_records_rejected_total",
        "Records refused under the reject overload policy or while stopping",
        metric_labels);
    engine_.AttachMetrics(metrics_registry_, metric_labels,
                          queue_config_.latency_sample_every);
  }
}

EngineShard::~EngineShard() { Stop(); }

void EngineShard::Start() {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(state_.load(std::memory_order_acquire) == State::kIdle,
                    "shard already started or stopped");
  drain_buf_.resize(queue_config_.batch_max);
  state_.store(State::kRunning, std::memory_order_release);
  worker_ = std::thread(&EngineShard::WorkerLoop, this);
}

void EngineShard::AttachModelSlot(const core::ModelSlot& slot) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  // The engine belongs to the worker once started; a running shard must be
  // drained first so no Observe is in flight during the attach.
  CORDIAL_CHECK_MSG(state_.load(std::memory_order_acquire) != State::kRunning ||
                        DrainedNow(),
                    "attach a model slot before Start or while drained");
  engine_.AttachModelSlot(slot);
}

void EngineShard::CountRejected(std::uint64_t n) {
  rejected_.fetch_add(n, std::memory_order_release);
  if (queue_metrics_.rejected) queue_metrics_.rejected->Increment(n);
}

void EngineShard::CountDropped(std::uint64_t n) {
  dropped_.fetch_add(n, std::memory_order_release);
  if (queue_metrics_.dropped_oldest) {
    queue_metrics_.dropped_oldest->Increment(n);
  }
  // A drop can be the event that completes a Drain (every accepted record
  // consumed one way or the other) — wake it if it is parked.
  idle_.Notify();
}

void EngineShard::CountSubmitted(std::uint64_t n) {
  submitted_.fetch_add(n, std::memory_order_release);
  if (queue_metrics_.submitted) queue_metrics_.submitted->Increment(n);
}

std::chrono::steady_clock::time_point EngineShard::MaybeStamp(
    std::uint64_t ticket) {
  if (queue_metrics_.latency == nullptr) return {};
  // Threshold compare, not modulo: a u64 division per record is measurable
  // here. A zero time_point means "don't time this one" — the worker skips
  // the latency histogram for unstamped records. Concurrent producers may
  // race the threshold update and sample slightly off-stride; for a single
  // producer the stride is exact.
  if (ticket < next_latency_stamp_.load(std::memory_order_relaxed)) return {};
  next_latency_stamp_.store(ticket + queue_config_.latency_sample_every,
                            std::memory_order_relaxed);
  return std::chrono::steady_clock::now();
}

bool EngineShard::Submit(const trace::MceRecord& record) {
  return SubmitImpl(trace::MceRecord(record));
}

bool EngineShard::Submit(trace::MceRecord&& record) {
  return SubmitImpl(std::move(record));
}

bool EngineShard::SubmitImpl(trace::MceRecord&& record) {
  if (StoppingOrStopped()) {
    CountRejected(1);
    return false;
  }
  QueueItem item(std::move(record),
                 MaybeStamp(submitted_.load(std::memory_order_relaxed)));
  if (!PushWithPolicy(std::move(item))) return false;
  CountSubmitted(1);
  not_empty_.Notify();
  return true;
}

bool EngineShard::PushWithPolicy(QueueItem&& item) {
  if (ring_.TryPush(std::move(item))) return true;  // fast path: not full
  switch (queue_config_.policy) {
    case OverloadPolicy::kReject:
      CountRejected(1);
      return false;
    case OverloadPolicy::kDropOldest:
      // Evict from the head until the push lands. TryPop is MPMC-safe, so
      // this races cleanly with the worker draining (a worker pop between
      // our pop and push just means one fewer eviction).
      for (;;) {
        QueueItem victim;
        if (ring_.TryPop(victim)) CountDropped(1);
        if (ring_.TryPush(std::move(item))) return true;
      }
    case OverloadPolicy::kBlock:
      for (;;) {
        bool pushed = false;
        SpinFor(queue_config_.spin_budget, [&] {
          if (ring_.TryPush(std::move(item))) {
            pushed = true;
            return true;
          }
          return StoppingOrStopped();
        });
        if (pushed) return true;
        if (StoppingOrStopped()) {
          CountRejected(1);
          return false;
        }
        const std::uint64_t epoch = not_full_.PrepareWait();
        if (StoppingOrStopped() ||
            ring_.ApproxSize() < queue_config_.capacity) {
          not_full_.CancelWait();
          continue;
        }
        not_full_.Wait(epoch);
      }
  }
  return false;  // unreachable: the switch covers every policy
}

std::size_t EngineShard::SubmitBatch(
    std::span<const trace::MceRecord> records) {
  if (records.empty()) return 0;
  if (StoppingOrStopped()) {
    CountRejected(records.size());
    return 0;
  }
  // Stage span slices in a small stack chunk of ring items, then claim
  // contiguous slot runs. The chunk bounds per-call stack use; the ring
  // claim is still one CAS per contiguous run it manages to take.
  constexpr std::size_t kChunk = 64;
  QueueItem chunk[kChunk];
  std::size_t accepted = 0;
  std::size_t i = 0;
  while (i < records.size()) {
    const std::size_t len = std::min(kChunk, records.size() - i);
    const std::uint64_t base = submitted_.load(std::memory_order_relaxed);
    for (std::size_t j = 0; j < len; ++j) {
      chunk[j] = QueueItem(records[i + j], MaybeStamp(base + j));
    }
    std::size_t off = 0;
    while (off < len) {
      const std::size_t pushed = ring_.TryPushBatch(chunk + off, len - off);
      if (pushed > 0) {
        off += pushed;
        accepted += pushed;
        CountSubmitted(pushed);
        not_empty_.Notify();
        continue;
      }
      // Ring full: apply the overload policy to the un-pushed remainder.
      const std::size_t remaining = records.size() - i - off;
      if (queue_config_.policy == OverloadPolicy::kReject) {
        CountRejected(remaining);
        return accepted;
      }
      if (queue_config_.policy == OverloadPolicy::kDropOldest) {
        QueueItem victim;
        if (ring_.TryPop(victim)) CountDropped(1);
        continue;
      }
      // kBlock: spin for space, then park until the worker frees slots.
      SpinFor(queue_config_.spin_budget, [&] {
        return StoppingOrStopped() ||
               ring_.ApproxSize() < queue_config_.capacity;
      });
      if (StoppingOrStopped()) {
        CountRejected(remaining);
        return accepted;
      }
      const std::uint64_t epoch = not_full_.PrepareWait();
      if (StoppingOrStopped() ||
          ring_.ApproxSize() < queue_config_.capacity) {
        not_full_.CancelWait();
        continue;
      }
      not_full_.Wait(epoch);
    }
    i += len;
  }
  return accepted;
}

void EngineShard::Drain() {
  CORDIAL_CHECK_MSG(
      state_.load(std::memory_order_acquire) == State::kRunning ||
          ring_.ApproxEmpty(),
      "draining a non-empty shard requires a running worker");
  if (SpinFor(queue_config_.spin_budget, [&] { return DrainedNow(); })) {
    return;
  }
  for (;;) {
    const std::uint64_t epoch = idle_.PrepareWait();
    if (DrainedNow()) {
      idle_.CancelWait();
      return;
    }
    idle_.Wait(epoch);
  }
}

void EngineShard::Stop() {
  std::lock_guard<std::mutex> lock(control_mutex_);
  const State s = state_.load(std::memory_order_acquire);
  if (s == State::kStopped) return;
  if (s == State::kIdle) {
    // Never-started shards become terminal too.
    state_.store(State::kStopped, std::memory_order_release);
    return;
  }
  state_.store(State::kStopping, std::memory_order_seq_cst);
  not_empty_.Notify();  // wake the worker to drain and exit
  not_full_.Notify();   // wake blocked producers to reject and return
  worker_.join();
  state_.store(State::kStopped, std::memory_order_release);
}

ShardCounters EngineShard::counters() const {
  ShardCounters c;
  c.submitted = submitted_.load(std::memory_order_acquire);
  c.processed = processed_.load(std::memory_order_acquire);
  c.dropped_oldest = dropped_.load(std::memory_order_acquire);
  c.rejected = rejected_.load(std::memory_order_acquire);
  return c;
}

obs::RegistrySnapshot EngineShard::MetricsSnapshot() const {
  if (queue_metrics_.depth) {
    queue_metrics_.depth->Set(static_cast<std::int64_t>(queue_depth()));
  }
  return metrics_registry_.Snapshot();
}

core::AppendedFrame EngineShard::AppendState(std::string& out) const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(), "shard must be drained before checkpointing");
  return engine_.AppendState(out);
}

core::AppendedFrame EngineShard::AppendDeltaState(std::string& out) const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(), "shard must be drained before checkpointing");
  return engine_.AppendDeltaState(out);
}

core::PredictionEngine::StagedDelta EngineShard::ParseDeltaState(
    std::string_view& in) const {
  return engine_.ParseDeltaState(in);
}

void EngineShard::CommitDeltaState(
    core::PredictionEngine::StagedDelta&& staged) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(), "shard must be drained before restoring");
  engine_.CommitDeltaState(std::move(staged));
}

void EngineShard::MarkCheckpointClean() {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(),
                    "shard must be drained before marking a checkpoint clean");
  engine_.MarkCheckpointClean();
}

std::size_t EngineShard::dirty_bank_count() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(),
                    "shard must be drained before reading dirty state");
  return engine_.dirty_bank_count();
}

std::size_t EngineShard::bank_count() const {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(),
                    "shard must be drained before reading dirty state");
  return engine_.bank_count();
}

core::PredictionEngine::StagedState EngineShard::ParseState(
    std::string_view& in) const {
  return engine_.ParseState(in);
}

void EngineShard::CommitState(core::PredictionEngine::StagedState&& staged) {
  std::lock_guard<std::mutex> lock(control_mutex_);
  CORDIAL_CHECK_MSG(DrainedNow(), "shard must be drained before restoring");
  engine_.CommitState(std::move(staged));
}

void EngineShard::WorkerLoop() {
  QueueItem* const buf = drain_buf_.data();
  const std::size_t batch_max = queue_config_.batch_max;
  for (;;) {
    const std::size_t n = ring_.TryPopBatch(buf, batch_max);
    if (n == 0) {
      idle_.Notify();  // a Drain may be parked on exactly this moment
      const bool stopping =
          state_.load(std::memory_order_acquire) == State::kStopping;
      if (stopping && ring_.ApproxEmpty()) return;
      const auto ready = [&] {
        return ring_.PoppableNow() ||
               state_.load(std::memory_order_acquire) == State::kStopping;
      };
      if (SpinFor(queue_config_.spin_budget, ready)) continue;
      const std::uint64_t epoch = not_empty_.PrepareWait();
      if (ready()) {
        not_empty_.CancelWait();
      } else {
        not_empty_.Wait(epoch);
      }
      continue;
    }
    // Freed n slots: wake kBlock producers before the engine work, not
    // after, so they refill the ring while the engine computes.
    not_full_.Notify();
    for (std::size_t i = 0; i < n; ++i) {
      const QueueItem& item = buf[i];
      const core::IsolationActions actions = engine_.Observe(item.first);
      if (sink_) sink_(item.first, actions);
      if (queue_metrics_.latency &&
          item.second != std::chrono::steady_clock::time_point{}) {
        queue_metrics_.latency->Observe(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          item.second)
                .count());
      }
    }
    // The release publishes the batch's engine writes to every DrainedNow
    // reader: Drain and the drained-shard contract checks.
    processed_.fetch_add(n, std::memory_order_release);
    if (queue_metrics_.processed) queue_metrics_.processed->Increment(n);
    if (ring_.ApproxEmpty()) idle_.Notify();
  }
}

}  // namespace cordial::serve
