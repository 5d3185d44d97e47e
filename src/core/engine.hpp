// Online prediction engine: the single ingestion/inference path shared by
// the offline pipeline, the ICR replay and live streaming deployment.
//
// One `PredictionEngine` owns the trained models' wiring, a sparing ledger
// and per-bank incremental state (a `core::BankProfile`, whose UER block
// carries the bank's `CordialBankState` from its first UER on);
// `Observe(record)` consumes one MCE record and returns the isolation
// actions the Cordial policy took for it. The decision logic itself lives in
// the free function `StepCordial`, which the offline `CordialStrategy`
// replays through as well — so batch evaluation and live monitoring cannot
// drift apart.
//
// Every decision is computed from a BankProfile, never by rescanning raw
// event lists: ICR replay drops from O(events^2) to O(events) per bank, and
// the engine keeps no raw records at all — its per-bank map of profiles and
// decision state is the only per-bank store, so streaming memory is
// O(distinct error rows), not O(records).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/crossrow.hpp"
#include "core/model_slot.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/address.hpp"
#include "hbm/sparing.hpp"
#include "obs/metrics.hpp"
#include "trace/mce_record.hpp"

namespace cordial::core {

/// Inclusive row range [first, last] within one bank.
struct RowSpan {
  std::uint32_t first = 0;
  std::uint32_t last = 0;

  friend bool operator==(const RowSpan&, const RowSpan&) = default;
};

struct CordialPolicyConfig {
  /// Bank-spare scattered-classified banks.
  bool bank_spare_scattered = true;
};

/// What the Cordial policy decided (and, in the engine, what happened) for
/// one observed record.
struct IsolationActions {
  // -- coverage accounting (filled by PredictionEngine::Observe only) --
  bool first_failure = false;  ///< record is a row's first UER in its bank
  bool covered_by_row_spare = false;
  bool covered_by_bank_spare = false;
  /// Rows this record's prediction newly isolated (ledger successes).
  std::size_t rows_newly_spared = 0;

  // -- policy decisions (filled by StepCordial) --
  bool classified_now = false;  ///< the bank was classified on this record
  hbm::FailureClass bank_class = hbm::FailureClass::kScattered;
  bool bank_spare = false;  ///< policy asks for a bank spare
  bool prediction_issued = false;
  std::vector<RowSpan> predicted_spans;  ///< rows the policy asks to spare

  bool covered() const { return covered_by_row_spare || covered_by_bank_spare; }

  friend bool operator==(const IsolationActions&,
                         const IsolationActions&) = default;
};

/// Advance the Cordial policy by one record whose bank state is `profile`
/// (which must already have absorbed the record). Pure decision logic: the
/// caller applies `bank_spare` / `predicted_spans` to its ledger. Shared by
/// PredictionEngine (live) and CordialStrategy (offline replay).
IsolationActions StepCordial(CordialBankState& state, const BankProfile& profile,
                             const trace::MceRecord& record,
                             const PatternClassifier& classifier,
                             const CrossRowPredictor& single_predictor,
                             const CrossRowPredictor& double_predictor,
                             const CordialPolicyConfig& policy);

/// The feed-order contract Observe enforces against the engine clock (the
/// newest accepted timestamp).
struct StreamPolicy {
  trace::TimeSkewPolicy skew_policy = trace::TimeSkewPolicy::kThrow;
};

struct EngineConfig {
  CordialPolicyConfig policy;
  hbm::SparingBudget budget;
  /// What Observe does with a record older than the engine clock. (The name
  /// is historical; the benchmark harness still spells it.)
  StreamPolicy retention;
  /// Logical->physical row map of the device feeding this engine. With a
  /// non-identity mapping every incoming record's row is remapped to
  /// physical space before ingestion, so locality features, predictions,
  /// ledger rows and checkpoints all live in physical row coordinates.
  /// Like the rest of the config it is NOT serialized: a restoring engine
  /// must be constructed with the same mapping.
  hbm::RowMapping row_mapping;
};

/// A checkpoint frame appended to a buffer: the CRC-32 of the whole frame,
/// header line included, so a frame that nests it combines instead of
/// reading it again (Crc32Combine), and the banks it carries.
struct AppendedFrame {
  std::uint32_t crc32 = 0;
  std::uint64_t banks = 0;
};

/// Payload encoding of an engine snapshot. Binary (the
/// persist/binary_io.hpp codec) is the only one; the enum remains as the
/// type of FleetServer::SaveCheckpoint's encoding argument.
enum class StateEncoding {
  kBinary,
};

/// Running tallies over everything the engine observed.
struct EngineStats {
  std::size_t events = 0;
  std::size_t uer_events = 0;
  std::size_t banks_classified = 0;
  std::size_t banks_bank_spared = 0;
  std::size_t predictions_issued = 0;
  std::size_t rows_isolated = 0;
  std::size_t uer_rows_total = 0;
  std::size_t uer_rows_covered = 0;  ///< first failure hit a spared row
  std::size_t uer_rows_covered_by_bank = 0;
  /// Records rejected by the time-skew drop policy; such records never
  /// reach a profile or the policy and are excluded from `events`.
  std::size_t records_skew_dropped = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;

  /// The paper's ICR: row-level coverage only (matches IcrResult::Icr).
  double Icr() const {
    return uer_rows_total == 0
               ? 0.0
               : static_cast<double>(uer_rows_covered) /
                     static_cast<double>(uer_rows_total);
  }
  double IcrWithBankSparing() const {
    return uer_rows_total == 0
               ? 0.0
               : static_cast<double>(uer_rows_covered +
                                     uer_rows_covered_by_bank) /
                     static_cast<double>(uer_rows_total);
  }
};

/// Owns the online deployment state: stream ingestion, per-bank profiles,
/// Cordial decision state, the sparing ledger and coverage stats. Models are
/// held by reference and must be trained and outlive the engine.
class PredictionEngine {
 public:
  /// `double_predictor` may be nullptr; the single-row predictor then serves
  /// both clustering classes (as the examples do when no double-row training
  /// banks exist).
  PredictionEngine(const hbm::TopologyConfig& topology,
                   const PatternClassifier& classifier,
                   const CrossRowPredictor& single_predictor,
                   const CrossRowPredictor* double_predictor = nullptr,
                   EngineConfig config = {});

  /// Ingest one record (records must arrive in non-decreasing time order
  /// across the whole fleet) and apply the Cordial policy for its bank.
  /// A record older than now() is a ContractViolation under
  /// TimeSkewPolicy::kThrow; under kDrop it is counted in
  /// `stats().records_skew_dropped` and returns empty actions. An equal
  /// timestamp is accepted.
  IsolationActions Observe(const trace::MceRecord& record);

  /// Checkpoint the full mutable state (stats, the clock, ledger, per-bank
  /// profiles and Cordial decision state) as one versioned binary frame
  /// appended to `out`, encoded in place: each bank record straight into
  /// `out`, its length back-patched, and the frame header inserted in
  /// front when the payload is complete. Deterministic: equal state
  /// serializes byte-identically. Models and config are NOT serialized — a
  /// restoring engine must be constructed with the same models, topology
  /// and config. Returns the frame's CRC-32 and bank count.
  AppendedFrame AppendState(std::string& out) const;

  /// A fully parsed — but not yet adopted — AppendState frame (opaque,
  /// move-only). Restoring is ParseState + CommitState: ParseState never
  /// touches the engine and CommitState never throws, so a multi-engine
  /// checkpoint (serve::FleetServer) can parse every section before
  /// committing any of them — a corrupt shard N must not leave shards
  /// 0..N-1 restored and the rest stale.
  class StagedState {
   public:
    StagedState(StagedState&&) noexcept;
    StagedState& operator=(StagedState&&) noexcept;
    ~StagedState();

   private:
    friend class PredictionEngine;
    StagedState();
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };
  /// Parse the frame at the front of `in` in place and advance `in` past
  /// it (common/framing.hpp ReadFramedView). Throws ParseError on malformed
  /// input, version mismatch, or a bank profile whose truncation depth
  /// differs from this engine's classifier's.
  StagedState ParseState(std::string_view& in) const;
  /// Adopt a parsed state; the engine then resumes bit-identically to the
  /// engine that appended it.
  void CommitState(StagedState&& staged);

  // --- delta checkpoints ---------------------------------------------------
  // The engine tracks which banks changed since the last checkpoint: every
  // Observe stamps the record's bank with the current snapshot epoch, and
  // MarkCheckpointClean (called after a checkpoint is durably on disk)
  // advances the epoch, making every bank clean in O(1). A delta snapshot
  // carries only the dirty banks plus all global counters; applied on top of
  // the full snapshot it chains from, it restores bit-identically to a full
  // snapshot taken at the same record boundary.

  /// Append a cordial_engine_delta frame (encoded in place like
  /// AppendState) to `out`: the banks dirtied since the last
  /// MarkCheckpointClean, plus stats, the clock and the ledger counters.
  /// Const — the dirty set is NOT cleared here, so a failed write loses
  /// nothing; call MarkCheckpointClean once the bytes are durable. Returns
  /// the frame's CRC-32 and the number of banks written.
  AppendedFrame AppendDeltaState(std::string& out) const;

  /// Start a new snapshot epoch: every bank becomes clean. Call only after
  /// the snapshot (full or delta) that captured the current state is
  /// durably persisted.
  void MarkCheckpointClean();

  /// Banks dirtied since the last MarkCheckpointClean.
  std::size_t dirty_bank_count() const { return dirty_banks_; }
  std::size_t bank_count() const { return banks_.size(); }

  /// Parsed-but-unapplied delta (opaque, move-only), mirroring StagedState:
  /// ParseDeltaState never touches the engine, CommitDeltaState never
  /// throws, and a fleet checkpoint stages every shard's delta before
  /// committing any of them.
  class StagedDelta {
   public:
    StagedDelta(StagedDelta&&) noexcept;
    StagedDelta& operator=(StagedDelta&&) noexcept;
    ~StagedDelta();

   private:
    friend class PredictionEngine;
    StagedDelta();
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };
  /// Parse the delta frame at the front of `in` in place and advance `in`
  /// past it. Every bank blob is decoded once to validate it, but staged
  /// as a view into `in`'s bytes, which must outlive CommitDeltaState; the
  /// commit decodes each blob again straight into the engine's bank map.
  StagedDelta ParseDeltaState(std::string_view& in) const;
  /// Upsert the delta's banks over the current state and overwrite the
  /// global counters. Committed banks come out clean (they now match the
  /// checkpoint that carried them).
  void CommitDeltaState(StagedDelta&& staged);

  /// Register this engine's live metrics (`cordial_engine_*` counters and
  /// the Observe latency histogram) in `registry` and start feeding them.
  /// `labels` is attached to every metric (a serving shard passes its shard
  /// index). The registry must outlive the engine. Without an attach,
  /// Observe pays nothing — null-pointer checks only. Counters are
  /// process-local and monotonic: CommitState rewinds stats() but never
  /// the attached counters (Prometheus counter semantics).
  ///
  /// `latency_sample_every` strides the Observe latency histogram: only
  /// every Nth call is timed (counters stay exact — they cost relaxed
  /// atomics, while timing costs two clock reads per sample). 1 times every
  /// call; serving shards default to a coarser stride (QueueConfig).
  void AttachMetrics(obs::MetricRegistry& registry,
                     const obs::Labels& labels = {},
                     std::size_t latency_sample_every = 1);
  bool instrumented() const { return metrics_.observe_latency != nullptr; }

  /// Subscribe this engine to a published model slot. From now on every
  /// Observe polls the slot's version (one relaxed atomic load) and, when a
  /// new generation was published, adopts it BEFORE ingesting the record —
  /// a swap always lands on an exact record boundary, and an in-flight
  /// Observe finishes entirely on the generation it started with. The new
  /// generation must keep the feature layout compatible with the engine's
  /// accumulated per-bank state (same classification truncation depth and
  /// cross-row trigger contract); violations are a ContractViolation at
  /// swap time, leaving the previous generation serving.
  ///
  /// The slot must outlive the engine. Call while no Observe is in flight
  /// (single-threaded engines anywhere; sharded engines before Start or
  /// while drained). The constructor-time models keep serving until the
  /// slot's version moves past the attached generation. Model versions are
  /// NOT persisted by AppendState: a restored engine serves whatever its
  /// slot currently publishes, which is what keeps checkpoints byte-
  /// identical across swap histories.
  void AttachModelSlot(const ModelSlot& slot);
  /// Version of the generation currently serving (0 when never attached).
  /// Safe to read from any thread while the engine runs (relaxed atomic) —
  /// the /modelz admin page polls it against live shard workers.
  std::uint64_t model_version() const {
    return model_version_.load(std::memory_order_relaxed);
  }
  /// Generations adopted since construction (attach itself not counted).
  std::uint64_t model_swaps() const {
    return model_swaps_.load(std::memory_order_relaxed);
  }

  const EngineStats& stats() const { return stats_; }
  const hbm::SparingLedger& ledger() const { return ledger_; }
  const hbm::AddressCodec& codec() const { return codec_; }
  const EngineConfig& config() const { return config_; }

  /// Incremental profile of a bank, or nullptr if it produced no events.
  const BankProfile* FindProfile(std::uint64_t bank_key) const;

  /// The engine clock: timestamp of the newest accepted record (0 before
  /// any). Checkpointed, so a restored engine's skew gate resumes exactly.
  double now() const { return now_; }

 private:
  /// A bank's profile, whose UER block holds its Cordial state, and its
  /// dirty stamp.
  struct BankState {
    BankProfile profile;
    /// Snapshot epoch this bank was last mutated in; dirty iff it equals
    /// the engine's current snapshot_epoch_. 0 (pre-first-epoch) == clean.
    std::uint64_t dirty_epoch = 0;
    explicit BankState(std::size_t max_uers) : profile(max_uers) {}
    explicit BankState(BankProfile&& restored) : profile(std::move(restored)) {}
  };

  /// Hot-path metric handles, all null until AttachMetrics.
  struct Metrics {
    obs::Histogram* observe_latency = nullptr;
    obs::Counter* events = nullptr;
    obs::Counter* uer_events = nullptr;
    obs::Counter* banks_classified = nullptr;
    obs::Counter* banks_spared = nullptr;
    obs::Counter* block_predictions = nullptr;
    obs::Counter* rows_spared = nullptr;
    obs::Counter* skew_dropped = nullptr;
    obs::Gauge* model_version = nullptr;
    obs::Counter* model_swaps = nullptr;
  };

  /// Adopt the slot's current generation (record-boundary call site).
  void RefreshModels();

  /// The binary payload full and delta frames share: the state header
  /// section, then one length-prefixed record per bank in `keys` order.
  void AppendBinaryPayload(std::string& out,
                           const std::vector<std::uint64_t>& keys) const;

  hbm::AddressCodec codec_;
  // Always non-null; constructor-time referees until a slot swap replaces
  // them with the active ModelSet's models (kept alive by active_models_).
  const PatternClassifier* classifier_;
  const CrossRowPredictor* single_;
  const CrossRowPredictor* double_;
  const ModelSlot* model_slot_ = nullptr;
  std::shared_ptr<const ModelSet> active_models_;
  /// Generation serving / generations adopted. Written only by the Observe
  /// thread; atomic (relaxed) so status pages can read them while running.
  /// Never persisted — checkpoints stay byte-identical across swap
  /// histories.
  std::atomic<std::uint64_t> model_version_{0};
  std::atomic<std::uint64_t> model_swaps_{0};
  EngineConfig config_;
  Metrics metrics_;
  std::size_t latency_sample_every_ = 1;
  std::size_t observe_calls_ = 0;  ///< for latency sampling; never persisted
  std::size_t next_timed_ = 0;     ///< observe_calls_ value to time next
  double now_ = 0.0;  ///< the skew gate's clock; see now()
  hbm::SparingLedger ledger_;
  std::unordered_map<std::uint64_t, BankState> banks_;
  EngineStats stats_;
  /// Current snapshot epoch (starts at 1 so default dirty_epoch 0 = clean)
  /// and an O(1)-maintained count of banks stamped with it.
  std::uint64_t snapshot_epoch_ = 1;
  std::size_t dirty_banks_ = 0;
};

}  // namespace cordial::core
