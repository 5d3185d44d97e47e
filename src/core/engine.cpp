#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "persist/binary_io.hpp"

namespace cordial::core {

using hbm::ErrorType;
using hbm::FailureClass;

IsolationActions StepCordial(CordialBankState& state,
                             const BankProfile& profile,
                             const trace::MceRecord& record,
                             const PatternClassifier& classifier,
                             const CrossRowPredictor& single_predictor,
                             const CrossRowPredictor& double_predictor,
                             const CordialPolicyConfig& policy) {
  IsolationActions actions;
  if (record.type != ErrorType::kUer) return actions;
  ++state.uer_events_seen;

  const std::size_t trigger = single_predictor.config().trigger_uers;
  if (state.uer_events_seen < trigger) return actions;

  if (!state.classified) {
    // The profile's classification view truncates at the trigger-th UER,
    // which is exactly the current event — no lookahead.
    state.bank_class = classifier.ClassifyProfile(profile);
    state.classified = true;
    actions.classified_now = true;
    actions.bank_class = state.bank_class;
    if (state.bank_class == FailureClass::kScattered) {
      actions.bank_spare = policy.bank_spare_scattered;
      return actions;
    }
  }
  actions.bank_class = state.bank_class;
  if (state.bank_class == FailureClass::kScattered) return actions;

  // Re-anchor at every new UER row, mirroring CrossRowPredictor::AnchorsOf.
  if (static_cast<std::int64_t>(record.address.row) == state.last_anchor_row) {
    return actions;
  }
  if (state.anchors_used >= single_predictor.config().max_anchors_per_bank) {
    return actions;
  }
  state.last_anchor_row = record.address.row;
  ++state.anchors_used;

  const CrossRowPredictor& predictor =
      state.bank_class == FailureClass::kSingleRowClustering
          ? single_predictor
          : double_predictor;
  const Anchor anchor{record.time_s, record.address.row,
                      state.uer_events_seen};
  const std::vector<int> blocks =
      predictor.PredictBlocksFromProfile(profile, anchor);
  const BlockWindow window = predictor.extractor().WindowAt(anchor.row);
  actions.prediction_issued = true;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b] != 1) continue;
    const auto range = window.BlockRange(b);
    if (!range.has_value()) continue;
    actions.predicted_spans.push_back(RowSpan{range->first, range->second});
  }
  return actions;
}

PredictionEngine::PredictionEngine(const hbm::TopologyConfig& topology,
                                   const PatternClassifier& classifier,
                                   const CrossRowPredictor& single_predictor,
                                   const CrossRowPredictor* double_predictor,
                                   EngineConfig config)
    : codec_(topology),
      classifier_(&classifier),
      single_(&single_predictor),
      double_(double_predictor != nullptr ? double_predictor
                                          : &single_predictor),
      config_(config),
      ledger_(config.budget) {
  CORDIAL_CHECK_MSG(classifier_->trained(), "classifier must be trained");
  CORDIAL_CHECK_MSG(single_->trained() && double_->trained(),
                    "cross-row predictors must be trained");
  // With the trigger at or past the truncation depth, the classification
  // cutoff can never be later than the triggering event — the profile view
  // is guaranteed lookahead-free.
  CORDIAL_CHECK_MSG(
      single_->config().trigger_uers >= classifier_->extractor().max_uers(),
      "cross-row trigger must not precede the classification truncation");
}

void PredictionEngine::AttachModelSlot(const ModelSlot& slot) {
  model_slot_ = &slot;
  // Adopting the attach-time generation is wiring, not a swap — neither
  // model_swaps() nor the swap counter moves.
  RefreshModels();
}

void PredictionEngine::RefreshModels() {
  std::shared_ptr<const ModelSet> set = model_slot_->Acquire();
  const PatternClassifier& classifier = *set->classifier;
  const CrossRowPredictor& single = *set->single;
  const CrossRowPredictor& double_row =
      set->double_row != nullptr ? *set->double_row : *set->single;
  // A generation that changes the feature layout or trigger contract would
  // silently misread the accumulated per-bank profiles — refuse it and
  // keep serving the current one.
  CORDIAL_CHECK_MSG(
      classifier.extractor().max_uers() == classifier_->extractor().max_uers(),
      "model swap must keep the classification truncation depth");
  CORDIAL_CHECK_MSG(
      single.config().trigger_uers >= classifier.extractor().max_uers(),
      "cross-row trigger must not precede the classification truncation");
  classifier_ = &classifier;
  single_ = &single;
  double_ = &double_row;
  active_models_ = std::move(set);
  model_version_.store(active_models_->version, std::memory_order_relaxed);
  if (metrics_.model_version) {
    metrics_.model_version->Set(
        static_cast<std::int64_t>(active_models_->version));
  }
}

void PredictionEngine::AttachMetrics(obs::MetricRegistry& registry,
                                     const obs::Labels& labels,
                                     std::size_t latency_sample_every) {
  CORDIAL_CHECK_MSG(latency_sample_every >= 1,
                    "latency sample stride must be >= 1");
  latency_sample_every_ = latency_sample_every;
  metrics_.observe_latency = &registry.GetHistogram(
      "cordial_engine_observe_seconds",
      "Latency of PredictionEngine::Observe (ingest + policy + ledger)",
      obs::DefaultLatencyBuckets(), labels);
  metrics_.events = &registry.GetCounter(
      "cordial_engine_events_total", "MCE records the engine accepted",
      labels);
  metrics_.uer_events = &registry.GetCounter(
      "cordial_engine_uer_events_total", "Accepted records that were UERs",
      labels);
  metrics_.banks_classified = &registry.GetCounter(
      "cordial_engine_banks_classified_total",
      "Banks whose failure pattern was classified", labels);
  metrics_.banks_spared = &registry.GetCounter(
      "cordial_engine_banks_spared_total",
      "Banks the sparing ledger actually retired", labels);
  metrics_.block_predictions = &registry.GetCounter(
      "cordial_engine_block_predictions_total",
      "Cross-row block predictions issued", labels);
  metrics_.rows_spared = &registry.GetCounter(
      "cordial_engine_rows_spared_total",
      "Rows newly isolated by predictions (idempotent re-spares excluded)",
      labels);
  metrics_.skew_dropped = &registry.GetCounter(
      "cordial_engine_records_skew_dropped_total",
      "Stale records discarded by the time-skew drop policy", labels);
  metrics_.model_version = &registry.GetGauge(
      "cordial_engine_model_version",
      "Model-slot generation this engine is serving (0 = no slot attached)",
      labels);
  metrics_.model_version->Set(static_cast<std::int64_t>(model_version()));
  metrics_.model_swaps = &registry.GetCounter(
      "cordial_engine_model_swaps_total",
      "Model generations hot-swapped in at a record boundary", labels);
}

IsolationActions PredictionEngine::Observe(const trace::MceRecord& logical_record) {
  using Clock = std::chrono::steady_clock;
  // Device row scramble: operate in physical row space so locality features
  // and ledger rows reflect true adjacency. Identity mapping costs nothing.
  trace::MceRecord remapped_storage;
  const trace::MceRecord& record = [&]() -> const trace::MceRecord& {
    if (config_.row_mapping.identity()) return logical_record;
    remapped_storage = logical_record;
    remapped_storage.address.row =
        config_.row_mapping.ToPhysical(logical_record.address.row);
    return remapped_storage;
  }();
  // Record-boundary model swap: adopt a newly published generation BEFORE
  // this record is ingested, so every record is decided by exactly one
  // generation. Costs one relaxed atomic load when nothing was published.
  if (model_slot_ != nullptr &&
      model_slot_->version() != model_version_.load(std::memory_order_relaxed)) {
    RefreshModels();
    model_swaps_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_.model_swaps) metrics_.model_swaps->Increment();
  }
  // Threshold compare, not modulo — a division per record is measurable.
  const bool timed =
      metrics_.observe_latency != nullptr && observe_calls_ >= next_timed_;
  if (timed) next_timed_ = observe_calls_ + latency_sample_every_;
  ++observe_calls_;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  const auto record_latency = [&] {
    if (timed) {
      metrics_.observe_latency->Observe(
          std::chrono::duration<double>(Clock::now() - start).count());
    }
  };

  // The skew gate: a record older than the engine clock never reaches a
  // profile, the policy or any stat but the drop counter (keeps `events` ==
  // accepted records). An equal timestamp is in order.
  if (record.time_s < now_) {
    CORDIAL_CHECK_MSG(
        config_.retention.skew_policy == trace::TimeSkewPolicy::kDrop,
        "engine requires non-decreasing timestamps");
    ++stats_.records_skew_dropped;
    if (metrics_.skew_dropped) metrics_.skew_dropped->Increment();
    record_latency();
    return IsolationActions{};
  }
  now_ = record.time_s;
  ++stats_.events;
  if (metrics_.events) metrics_.events->Increment();
  const std::uint64_t bank_key = codec_.BankKey(record.address);
  const auto [it, inserted] =
      banks_.try_emplace(bank_key, classifier_->extractor().max_uers());
  BankState& state = it->second;
  // Dirty-bank tracking for delta checkpoints: every mutation below (the
  // profile, the Cordial state, this bank's ledger rows) touches only this
  // bank plus global counters — which every delta carries — so stamping
  // here is exact at record boundaries. O(1): one compare per record.
  if (state.dirty_epoch != snapshot_epoch_) {
    state.dirty_epoch = snapshot_epoch_;
    ++dirty_banks_;
  }

  IsolationActions coverage;
  if (record.type == ErrorType::kUer) {
    ++stats_.uer_events;
    if (metrics_.uer_events) metrics_.uer_events->Increment();
    // First-failure coverage, judged against the ledger as it stood before
    // this record (the profile has not absorbed it yet).
    if (!state.profile.HasUerRow(record.address.row)) {
      coverage.first_failure = true;
      ++stats_.uer_rows_total;
      if (ledger_.IsRowSpared(bank_key, record.address.row)) {
        coverage.covered_by_row_spare = true;
        ++stats_.uer_rows_covered;
      } else if (ledger_.IsBankSpared(bank_key)) {
        coverage.covered_by_bank_spare = true;
        ++stats_.uer_rows_covered_by_bank;
      }
    }
  }

  state.profile.Observe(record);
  // StepCordial decides only on UERs, so a bank without one has no
  // decision state to advance.
  CordialBankState* cordial = state.profile.cordial_state();
  IsolationActions actions =
      cordial == nullptr
          ? IsolationActions{}
          : StepCordial(*cordial, state.profile, record, *classifier_,
                        *single_, *double_, config_.policy);
  actions.first_failure = coverage.first_failure;
  actions.covered_by_row_spare = coverage.covered_by_row_spare;
  actions.covered_by_bank_spare = coverage.covered_by_bank_spare;

  if (actions.classified_now) {
    ++stats_.banks_classified;
    if (metrics_.banks_classified) metrics_.banks_classified->Increment();
  }
  if (actions.bank_spare) {
    // TrySpareBank is idempotent and may be unavailable; count only banks
    // the ledger actually retired, mirroring the row accounting below.
    const std::uint64_t banks_before = ledger_.banks_spared();
    ledger_.TrySpareBank(bank_key);
    const std::uint64_t banks_newly = ledger_.banks_spared() - banks_before;
    stats_.banks_bank_spared += banks_newly;
    if (metrics_.banks_spared) metrics_.banks_spared->Increment(banks_newly);
  }
  if (actions.prediction_issued) {
    ++stats_.predictions_issued;
    if (metrics_.block_predictions) metrics_.block_predictions->Increment();
  }
  // TrySpareRow is idempotent (true for an already-spared row), so count
  // newly isolated rows off the ledger's tally, not the return values.
  const std::uint64_t spared_before = ledger_.rows_spared();
  for (const RowSpan& span : actions.predicted_spans) {
    for (std::uint32_t row = span.first; row <= span.last; ++row) {
      ledger_.TrySpareRow(bank_key, row);
    }
  }
  actions.rows_newly_spared = ledger_.rows_spared() - spared_before;
  stats_.rows_isolated += actions.rows_newly_spared;
  if (metrics_.rows_spared) {
    metrics_.rows_spared->Increment(actions.rows_newly_spared);
  }
  record_latency();
  return actions;
}

const BankProfile* PredictionEngine::FindProfile(std::uint64_t bank_key) const {
  const auto it = banks_.find(bank_key);
  return it == banks_.end() ? nullptr : &it->second.profile;
}

// ------------------------------------------------------ binary state codec
//
// Full (cordial_engine_state v5) and delta (cordial_engine_delta v4)
// payloads share one self-delimiting shape:
//
//   u32 header_len | header | u64 bank_count | bank records...
//   bank record := u64 bank_key | u32 blob_len | blob
//   blob := var anchors_used | bool classified | u8 bank_class |
//           zigzag last_anchor_row | profile |
//           u8 ledger flags | [rows as first + ascending gaps]
//
// The header and the record frame are fixed-width; inside a blob, counts
// are varints and doubles raw bits behind presence masks, and nothing
// another field determines is written (BankProfile::SaveBinary; the
// Cordial state's uer_events_seen is the profile's UER count, and before
// the first UER the state is the default, which the decoder requires). The
// explicit lengths make the payload structurally parseable without models
// or topology: the offline inspector (persist::) folds a delta chain by
// overlaying bank records keyed by bank_key and keeping the newest header
// verbatim — producing exactly the bytes a live full save would. Bank records are emitted in
// strictly ascending key order, so equal states serialize identically, and
// the readers refuse any other order.

namespace {

/// Everything global in an engine snapshot: stats, the ledger's budget and
/// spend counters, and the skew gate's clock. Deltas carry the same header
/// as fulls — the counters are tiny and every one of them can move on any
/// record.
struct StateHeader {
  EngineStats stats;
  hbm::SparingBudget budget;
  std::uint64_t rows_spared = 0;
  std::uint64_t banks_spared = 0;
  double now = 0.0;
};

void EncodeStateHeader(persist::BinaryWriter& out, const EngineStats& stats,
                       const hbm::SparingLedger& ledger, double now) {
  out.U64(stats.events);
  out.U64(stats.uer_events);
  out.U64(stats.banks_classified);
  out.U64(stats.banks_bank_spared);
  out.U64(stats.predictions_issued);
  out.U64(stats.rows_isolated);
  out.U64(stats.uer_rows_total);
  out.U64(stats.uer_rows_covered);
  out.U64(stats.uer_rows_covered_by_bank);
  out.U64(stats.records_skew_dropped);
  const hbm::SparingBudget& budget = ledger.budget();
  out.U32(budget.rows_per_bank);
  out.Bool(budget.bank_sparing_available);
  out.F64(budget.row_spare_cost);
  out.F64(budget.bank_spare_cost);
  out.U64(ledger.rows_spared());
  out.U64(ledger.banks_spared());
  out.F64(now);
}

/// Consume the length-prefixed header section at the front of a payload.
StateHeader TakeStateHeader(persist::BinaryReader& payload) {
  const std::uint32_t header_len = payload.Count32(1);
  persist::BinaryReader in(payload.Bytes(header_len), "engine state header");
  StateHeader h;
  h.stats.events = static_cast<std::size_t>(in.U64());
  h.stats.uer_events = static_cast<std::size_t>(in.U64());
  h.stats.banks_classified = static_cast<std::size_t>(in.U64());
  h.stats.banks_bank_spared = static_cast<std::size_t>(in.U64());
  h.stats.predictions_issued = static_cast<std::size_t>(in.U64());
  h.stats.rows_isolated = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_total = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_covered = static_cast<std::size_t>(in.U64());
  h.stats.uer_rows_covered_by_bank = static_cast<std::size_t>(in.U64());
  h.stats.records_skew_dropped = static_cast<std::size_t>(in.U64());
  h.budget.rows_per_bank = in.U32();
  h.budget.bank_sparing_available = in.Bool();
  h.budget.row_spare_cost = in.F64();
  h.budget.bank_spare_cost = in.F64();
  h.rows_spared = in.U64();
  h.banks_spared = in.U64();
  h.now = in.F64();
  in.ExpectEnd();
  return h;
}

constexpr std::uint8_t kBlobHasLedgerEntry = 1u << 0;
constexpr std::uint8_t kBlobBankSpared = 1u << 1;
constexpr std::uint8_t kBlobFlags = kBlobHasLedgerEntry | kBlobBankSpared;

/// One bank's full slice of engine state: Cordial decision state (the
/// default before the first UER), the profile, and this bank's ledger
/// section, whose rows the ledger keeps sorted. The has-entry flag
/// distinguishes "no spared-row entry" from "an entry with zero rows" —
/// TrySpareRow creates the latter when rows_per_bank is 0, and a restored
/// ledger must hold exactly the entries the saved one did.
void EncodeBankBlob(persist::BinaryWriter& out, const BankProfile& profile,
                    const hbm::SparingLedger& ledger, std::uint64_t key) {
  const CordialBankState& cordial = profile.uer().cordial;
  out.Var(cordial.anchors_used);
  out.Bool(cordial.classified);
  out.U8(static_cast<std::uint8_t>(cordial.bank_class));
  out.VarSigned(cordial.last_anchor_row);
  profile.SaveBinary(out);

  const std::vector<std::uint32_t>* rows = ledger.FindRowEntry(key);
  std::uint8_t flags = 0;
  if (rows != nullptr) flags |= kBlobHasLedgerEntry;
  if (ledger.IsBankSpared(key)) flags |= kBlobBankSpared;
  out.U8(flags);
  if (rows != nullptr) out.AscendingU32(*rows);
}

/// A decoded bank blob: the profile carries the Cordial state.
struct BankBlob {
  BankProfile profile{1};
  bool has_ledger_entry = false;
  bool bank_spared = false;
  std::vector<std::uint32_t> rows;
};

/// Refuse, through `in`, a Cordial state on a bank without a UER:
/// StepCordial leaves it at its default until the bank's first UER.
void CheckDefaultBeforeFirstUer(const persist::BinaryReader& in,
                                const CordialBankState& cordial) {
  const CordialBankState initial;
  const auto refuse = [&](const char* field, const std::string& value) {
    in.Fail(std::string("Cordial state ") + field + " " + value +
            " before the bank's first UER");
  };
  if (cordial.anchors_used != initial.anchors_used) {
    refuse("anchors_used", std::to_string(cordial.anchors_used));
  }
  if (cordial.classified != initial.classified) refuse("classified", "true");
  if (cordial.bank_class != initial.bank_class) {
    refuse("bank_class",
           std::to_string(static_cast<int>(cordial.bank_class)));
  }
  if (cordial.last_anchor_row != initial.last_anchor_row) {
    refuse("last_anchor_row", std::to_string(cordial.last_anchor_row));
  }
}

/// Decode one whole bank blob of a payload whose header holds the clock
/// `now` and `events` accepted records, for an engine whose classifier
/// truncates at `max_uers`. A profile accumulated at another depth, or one
/// whose last event is past the clock (or NaN), is refused here: the bank's
/// next classification, or its next record at the clock, would otherwise
/// throw on a shard worker. So is one counting more events than the engine
/// accepted, since every accepted record lands in exactly one profile: its
/// counts could wrap at the bank's next record.
BankBlob DecodeBankBlob(std::string_view bytes, std::size_t max_uers,
                        double now, std::size_t events) {
  persist::BinaryReader in(bytes, "engine bank blob");
  BankBlob blob;
  CordialBankState cordial;
  cordial.anchors_used = static_cast<std::size_t>(in.Var());
  cordial.classified = in.Bool();
  const std::uint8_t bank_class = in.U8();
  if (bank_class > 2) in.Fail("unknown failure class");
  cordial.bank_class = static_cast<hbm::FailureClass>(bank_class);
  cordial.last_anchor_row = in.VarSigned();
  blob.profile = BankProfile::LoadBinary(in);
  if (blob.profile.max_uers() != max_uers) {
    in.Fail("profile truncation depth " +
            std::to_string(blob.profile.max_uers()) +
            " does not match this engine's depth " + std::to_string(max_uers));
  }
  if (!(blob.profile.last_time_s() <= now)) {
    in.Fail("profile's last event at " +
            std::to_string(blob.profile.last_time_s()) +
            " s is past the engine clock " + std::to_string(now) + " s");
  }
  if (blob.profile.event_count() > events) {
    in.Fail("profile counts " + std::to_string(blob.profile.event_count()) +
            " events, more than the engine's " + std::to_string(events));
  }
  if (CordialBankState* held = blob.profile.cordial_state()) {
    // StepCordial counts every UER the profile absorbs.
    cordial.uer_events_seen = blob.profile.uer_event_count();
    *held = cordial;
  } else {
    CheckDefaultBeforeFirstUer(in, cordial);
  }

  const std::uint8_t flags = in.U8();
  if ((flags & ~kBlobFlags) != 0) in.Fail("unknown ledger flags");
  blob.has_ledger_entry = (flags & kBlobHasLedgerEntry) != 0;
  blob.bank_spared = (flags & kBlobBankSpared) != 0;
  if (blob.has_ledger_entry) blob.rows = in.AscendingU32();
  in.ExpectEnd();
  return blob;
}

/// Consume the bank records that follow a payload's header, through to the
/// payload's end: `reserve(n)` once with the (capped) record count, then
/// `on_bank(key, blob)` per record in payload order, `blob` a view into
/// the payload.
template <typename Reserve, typename OnBank>
void TakeBankRecords(persist::BinaryReader& payload, Reserve&& reserve,
                     OnBank&& on_bank) {
  const std::uint64_t bank_count = payload.Count(8 + 4);
  // Cap the reserve: a corrupt count fails below on a read, and must not
  // pre-allocate an absurd table first.
  reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(bank_count, 1 << 16)));
  std::uint64_t prev_key = 0;
  for (std::uint64_t b = 0; b < bank_count; ++b) {
    const std::uint64_t key = payload.U64();
    if (b > 0 && key <= prev_key) {
      throw ParseError("engine state: bank keys not strictly ascending");
    }
    prev_key = key;
    const std::uint32_t blob_len = payload.Count32(1);
    on_bank(key, payload.Bytes(blob_len));
  }
  payload.ExpectEnd();
}

}  // namespace

void PredictionEngine::AppendBinaryPayload(
    std::string& out, const std::vector<std::uint64_t>& keys) const {
  persist::BinaryWriter writer(out);
  const std::size_t header = writer.BeginLength();
  EncodeStateHeader(writer, stats_, ledger_, now_);
  writer.EndLength(header);
  writer.U64(keys.size());
  for (const std::uint64_t key : keys) {
    const BankState& state = banks_.at(key);
    writer.U64(key);
    const std::size_t blob = writer.BeginLength();
    EncodeBankBlob(writer, state.profile, ledger_, key);
    writer.EndLength(blob);
  }
}

AppendedFrame PredictionEngine::AppendState(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(banks_.size());
  for (const auto& [key, state] : banks_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  const std::size_t frame = out.size();
  AppendBinaryPayload(out, keys);
  return {CloseFrame(out, frame, kEngineStateMagic, kEngineStateVersion),
          keys.size()};
}

AppendedFrame PredictionEngine::AppendDeltaState(std::string& out) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(dirty_banks_);
  for (const auto& [key, state] : banks_) {
    if (state.dirty_epoch == snapshot_epoch_) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());

  const std::size_t frame = out.size();
  AppendBinaryPayload(out, keys);
  return {CloseFrame(out, frame, kEngineDeltaMagic, kEngineDeltaVersion),
          keys.size()};
}

void PredictionEngine::MarkCheckpointClean() {
  ++snapshot_epoch_;
  dirty_banks_ = 0;
}

struct PredictionEngine::StagedState::Impl {
  EngineStats stats;
  double now = 0.0;
  hbm::SparingLedger ledger;
  std::unordered_map<std::uint64_t, BankState> banks;
};

PredictionEngine::StagedState::StagedState() : impl_(new Impl()) {}
PredictionEngine::StagedState::StagedState(StagedState&&) noexcept = default;
PredictionEngine::StagedState& PredictionEngine::StagedState::operator=(
    StagedState&&) noexcept = default;
PredictionEngine::StagedState::~StagedState() = default;

PredictionEngine::StagedState PredictionEngine::ParseState(
    std::string_view& in) const {
  StagedState staged;
  persist::BinaryReader reader(
      ReadFramedView(in, kEngineStateMagic, kEngineStateVersion),
      "engine state");
  const StateHeader header = TakeStateHeader(reader);
  staged.impl_->stats = header.stats;
  staged.impl_->now = header.now;
  hbm::SparingLedger ledger(header.budget);
  std::unordered_map<std::uint64_t, BankState>& banks = staged.impl_->banks;
  const std::size_t max_uers = classifier_->extractor().max_uers();
  TakeBankRecords(
      reader, [&](std::size_t n) { banks.reserve(n); },
      [&](std::uint64_t key, std::string_view bytes) {
        BankBlob blob = DecodeBankBlob(bytes, max_uers, header.now,
                                       header.stats.events);
        banks.try_emplace(key, std::move(blob.profile));
        ledger.RestoreBankSection(key, blob.has_ledger_entry,
                                  std::move(blob.rows), blob.bank_spared);
      });
  ledger.RestoreCounters(header.rows_spared, header.banks_spared);
  staged.impl_->ledger = std::move(ledger);
  return staged;
}

void PredictionEngine::CommitState(StagedState&& staged) {
  stats_ = staged.impl_->stats;
  now_ = staged.impl_->now;
  ledger_ = std::move(staged.impl_->ledger);
  banks_ = std::move(staged.impl_->banks);
  // Freshly parsed BankStates carry dirty_epoch 0, which can never equal
  // snapshot_epoch_ (>= 1): the restored state is entirely clean.
  dirty_banks_ = 0;
}

/// A delta's banks stay encoded until commit: (key, blob) views into the
/// parsed bytes, each blob validated once by a full decode at parse.
struct PredictionEngine::StagedDelta::Impl {
  StateHeader header;
  std::vector<std::pair<std::uint64_t, std::string_view>> banks;
};

PredictionEngine::StagedDelta::StagedDelta() : impl_(new Impl()) {}
PredictionEngine::StagedDelta::StagedDelta(StagedDelta&&) noexcept = default;
PredictionEngine::StagedDelta& PredictionEngine::StagedDelta::operator=(
    StagedDelta&&) noexcept = default;
PredictionEngine::StagedDelta::~StagedDelta() = default;

PredictionEngine::StagedDelta PredictionEngine::ParseDeltaState(
    std::string_view& in) const {
  StagedDelta staged;
  persist::BinaryReader reader(
      ReadFramedView(in, kEngineDeltaMagic, kEngineDeltaVersion),
      "engine delta");
  staged.impl_->header = TakeStateHeader(reader);
  auto& banks = staged.impl_->banks;
  const std::size_t max_uers = classifier_->extractor().max_uers();
  const StateHeader& header = staged.impl_->header;
  TakeBankRecords(
      reader, [&](std::size_t n) { banks.reserve(n); },
      [&](std::uint64_t key, std::string_view bytes) {
        DecodeBankBlob(bytes, max_uers, header.now, header.stats.events);
        banks.emplace_back(key, bytes);
      });
  return staged;
}

void PredictionEngine::CommitDeltaState(StagedDelta&& staged) {
  // The budget in a delta header describes the chain's full snapshot; the
  // live ledger already carries it, so only the counters are adopted.
  const StateHeader& header = staged.impl_->header;
  stats_ = header.stats;
  now_ = header.now;
  ledger_.RestoreCounters(header.rows_spared, header.banks_spared);
  const std::size_t max_uers = classifier_->extractor().max_uers();
  for (const auto& [key, bytes] : staged.impl_->banks) {
    // Validated at parse, so this second decode cannot fail.
    BankBlob blob =
        DecodeBankBlob(bytes, max_uers, header.now, header.stats.events);
    ledger_.RestoreBankSection(key, blob.has_ledger_entry,
                               std::move(blob.rows), blob.bank_spared);
    const auto [it, inserted] = banks_.try_emplace(key, max_uers);
    if (!inserted && it->second.dirty_epoch == snapshot_epoch_) {
      --dirty_banks_;
    }
    it->second.profile = std::move(blob.profile);
    // The committed bank now matches the checkpoint that carried it.
    it->second.dirty_epoch = 0;
  }
}

}  // namespace cordial::core
