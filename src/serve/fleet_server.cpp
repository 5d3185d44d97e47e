#include "serve/fleet_server.hpp"

#include <cmath>
#include <ostream>
#include <utility>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "serve/checkpoint.hpp"

namespace cordial::serve {

FleetServer::FleetServer(const hbm::TopologyConfig& topology,
                         const core::PatternClassifier& classifier,
                         const core::CrossRowPredictor& single_predictor,
                         const core::CrossRowPredictor* double_predictor,
                         FleetServerConfig config, ActionSink sink)
    : codec_(topology) {
  CORDIAL_CHECK_MSG(config.shard_count >= 1, "server needs at least 1 shard");
  shards_.reserve(config.shard_count);
  for (std::size_t s = 0; s < config.shard_count; ++s) {
    EngineShard::ActionSink shard_sink;
    if (sink) {
      shard_sink = [s, sink](const trace::MceRecord& record,
                             const core::IsolationActions& actions) {
        sink(s, record, actions);
      };
    }
    shards_.push_back(std::make_unique<EngineShard>(
        topology, classifier, single_predictor, double_predictor,
        config.engine, config.queue, std::move(shard_sink),
        config.instrument, obs::Labels{{"shard", std::to_string(s)}}));
    if (config.model_slot != nullptr) {
      shards_.back()->AttachModelSlot(*config.model_slot);
    }
  }
}

void FleetServer::Start() {
  for (auto& shard : shards_) shard->Start();
}

std::size_t FleetServer::ShardOf(std::uint64_t bank_key) const {
  return ShardIndexOf(bank_key, shards_.size());
}

std::size_t FleetServer::ShardIndexOf(std::uint64_t bank_key,
                                      std::size_t shard_count) {
  std::uint64_t state = bank_key;
  return static_cast<std::size_t>(SplitMix64(state) % shard_count);
}

void FleetServer::DrainShard(std::size_t index) {
  CORDIAL_CHECK_MSG(index < shards_.size(), "DrainShard: no such shard");
  shards_[index]->Drain();
}

std::string FleetServer::ExportShard(std::size_t index) {
  CORDIAL_CHECK_MSG(index < shards_.size(), "ExportShard: no such shard");
  shards_[index]->Drain();
  std::string state;
  shards_[index]->AppendState(state);
  return state;
}

void FleetServer::ImportShard(std::size_t index, const std::string& state) {
  CORDIAL_CHECK_MSG(index < shards_.size(), "ImportShard: no such shard");
  shards_[index]->Drain();
  std::string_view in(state);
  core::PredictionEngine::StagedState staged = shards_[index]->ParseState(in);
  ExpectNoTrailingBytes(in, "imported shard state");
  shards_[index]->CommitState(std::move(staged));
  state_installs_.fetch_add(1, std::memory_order_relaxed);
}

bool FleetServer::ValidRecord(const trace::MceRecord& record) const {
  return std::isfinite(record.time_s) && codec_.IsValid(record.address);
}

bool FleetServer::Submit(const trace::MceRecord& record) {
  if (!ValidRecord(record)) {
    invalid_records_.fetch_add(1, std::memory_order_relaxed);
    return true;  // consumed, not backpressure — see the header contract
  }
  return shards_[ShardOf(codec_.BankKey(record.address))]->Submit(record);
}

bool FleetServer::Submit(trace::MceRecord&& record) {
  if (!ValidRecord(record)) {
    invalid_records_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const std::size_t s = ShardOf(codec_.BankKey(record.address));
  return shards_[s]->Submit(std::move(record));
}

std::size_t FleetServer::SubmitBatch(
    std::span<const trace::MceRecord> records) {
  if (records.empty()) return 0;
  // Cheap validity scan first; the common all-valid batch pays no copy.
  std::size_t invalid = 0;
  for (const trace::MceRecord& record : records) {
    if (!ValidRecord(record)) ++invalid;
  }
  if (invalid > 0) {
    invalid_records_.fetch_add(invalid, std::memory_order_relaxed);
    std::vector<trace::MceRecord> filtered;
    filtered.reserve(records.size() - invalid);
    for (const trace::MceRecord& record : records) {
      if (ValidRecord(record)) filtered.push_back(record);
    }
    return invalid + SubmitBatch(std::span<const trace::MceRecord>(filtered));
  }
  if (shards_.size() == 1) return shards_[0]->SubmitBatch(records);
  std::vector<std::vector<trace::MceRecord>> buckets(shards_.size());
  const std::size_t hint = records.size() / shards_.size() + 1;
  for (auto& bucket : buckets) bucket.reserve(hint);
  for (const trace::MceRecord& record : records) {
    buckets[ShardOf(codec_.BankKey(record.address))].push_back(record);
  }
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!buckets[s].empty()) accepted += shards_[s]->SubmitBatch(buckets[s]);
  }
  return accepted;
}

void FleetServer::Drain() {
  for (auto& shard : shards_) shard->Drain();
}

void FleetServer::Stop() {
  for (auto& shard : shards_) shard->Stop();
}

core::EngineStats FleetServer::AggregateStats() const {
  core::EngineStats total;
  for (const auto& shard : shards_) {
    const core::EngineStats& s = shard->engine().stats();
    total.events += s.events;
    total.uer_events += s.uer_events;
    total.banks_classified += s.banks_classified;
    total.banks_bank_spared += s.banks_bank_spared;
    total.predictions_issued += s.predictions_issued;
    total.rows_isolated += s.rows_isolated;
    total.uer_rows_total += s.uer_rows_total;
    total.uer_rows_covered += s.uer_rows_covered;
    total.uer_rows_covered_by_bank += s.uer_rows_covered_by_bank;
    total.records_skew_dropped += s.records_skew_dropped;
  }
  return total;
}

ShardCounters FleetServer::AggregateCounters() const {
  ShardCounters total;
  for (const auto& shard : shards_) {
    const ShardCounters c = shard->counters();
    total.submitted += c.submitted;
    total.processed += c.processed;
    total.dropped_oldest += c.dropped_oldest;
    total.rejected += c.rejected;
  }
  return total;
}

std::vector<std::uint64_t> FleetServer::ModelVersions() const {
  std::vector<std::uint64_t> versions;
  versions.reserve(shards_.size());
  for (const auto& shard : shards_) versions.push_back(shard->model_version());
  return versions;
}

obs::RegistrySnapshot FleetServer::MetricsSnapshot() const {
  std::vector<obs::RegistrySnapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(shard->MetricsSnapshot());
  return obs::MergeSnapshots(parts);
}

std::string FleetServer::StatusTable() const {
  TextTable table({"Shard", "Submitted", "Processed", "Queued", "Dropped",
                   "Rejected", "Events", "UERs", "Rows spared",
                   "Banks spared"});
  ShardCounters totals;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardCounters c = shards_[s]->counters();
    totals.submitted += c.submitted;
    totals.processed += c.processed;
    totals.dropped_oldest += c.dropped_oldest;
    totals.rejected += c.rejected;
    const obs::RegistrySnapshot snap = shards_[s]->MetricsSnapshot();
    const auto engine_counter = [&](const char* name) {
      return shards_[s]->instrumented()
                 ? std::to_string(obs::SumCounterSamples(snap, name))
                 : std::string("-");
    };
    table.AddRow({std::to_string(s), std::to_string(c.submitted),
                  std::to_string(c.processed),
                  std::to_string(shards_[s]->queue_depth()),
                  std::to_string(c.dropped_oldest), std::to_string(c.rejected),
                  engine_counter("cordial_engine_events_total"),
                  engine_counter("cordial_engine_uer_events_total"),
                  engine_counter("cordial_engine_rows_spared_total"),
                  engine_counter("cordial_engine_banks_spared_total")});
  }
  const obs::RegistrySnapshot merged = MetricsSnapshot();
  const auto total_counter = [&](const char* name) {
    return std::to_string(obs::SumCounterSamples(merged, name));
  };
  table.AddSeparator();
  table.AddRow({"total", std::to_string(totals.submitted),
                std::to_string(totals.processed), "",
                std::to_string(totals.dropped_oldest),
                std::to_string(totals.rejected),
                total_counter("cordial_engine_events_total"),
                total_counter("cordial_engine_uer_events_total"),
                total_counter("cordial_engine_rows_spared_total"),
                total_counter("cordial_engine_banks_spared_total")});
  return table.Render("fleet server (" + std::to_string(shards_.size()) +
                      " shards)");
}

namespace {

/// Append one fleet frame to `out`: the shard count line, then each
/// shard's engine frame through `append_shard`. The payload's CRC-32 is
/// combined from the line's and the engine frames', so no byte of an
/// engine frame is read twice.
core::AppendedFrame AppendFleetFrame(
    std::string& out, const std::vector<std::unique_ptr<EngineShard>>& shards,
    std::string_view magic, std::uint32_t version,
    core::AppendedFrame (EngineShard::*append_shard)(std::string&) const) {
  const std::size_t frame = out.size();
  out += ShardCountLine(shards.size());
  std::uint32_t payload_crc = Crc32(std::string_view(out).substr(frame));
  std::uint64_t banks = 0;
  for (const auto& shard : shards) {
    const std::size_t start = out.size();
    const core::AppendedFrame section = ((*shard).*append_shard)(out);
    payload_crc =
        Crc32Combine(payload_crc, section.crc32, out.size() - start);
    banks += section.banks;
  }
  return {CloseFrame(out, frame, magic, version, payload_crc), banks};
}

}  // namespace

core::AppendedFrame FleetServer::AppendCheckpoint(std::string& out) const {
  return AppendFleetFrame(out, shards_, kFleetCheckpointMagic,
                          kFleetCheckpointVersion, &EngineShard::AppendState);
}

void FleetServer::SaveCheckpoint(std::ostream& out,
                                 core::StateEncoding /*encoding*/) const {
  std::string member;
  AppendCheckpoint(member);
  out.write(member.data(), static_cast<std::streamsize>(member.size()));
}

core::AppendedFrame FleetServer::AppendDeltaCheckpoint(
    std::string& out) const {
  return AppendFleetFrame(out, shards_, kFleetDeltaMagic, kFleetDeltaVersion,
                          &EngineShard::AppendDeltaState);
}

std::uint64_t FleetServer::SaveDeltaCheckpoint(std::ostream& out) const {
  std::string member;
  const std::uint64_t banks_written = AppendDeltaCheckpoint(member).banks;
  out.write(member.data(), static_cast<std::streamsize>(member.size()));
  return banks_written;
}

void FleetServer::ApplyDeltaCheckpoint(std::string_view member) {
  std::string_view payload =
      ReadFramedView(member, kFleetDeltaMagic, kFleetDeltaVersion);
  ExpectNoTrailingBytes(member, "delta checkpoint member");
  const std::uint64_t shard_count =
      TakeShardCount(payload, "delta checkpoint");
  if (shard_count != shards_.size()) {
    throw ParseError("delta checkpoint holds " + std::to_string(shard_count) +
                     " shard(s) but this server has " +
                     std::to_string(shards_.size()) +
                     " — shard counts must match to restore");
  }
  // Stage-all-then-commit-all, exactly like RestoreCheckpoint: a corrupt
  // shard N must leave every shard on its pre-delta state.
  std::vector<core::PredictionEngine::StagedDelta> staged;
  staged.reserve(shards_.size());
  for (auto& shard : shards_) {
    staged.push_back(shard->ParseDeltaState(payload));
  }
  ExpectNoTrailingBytes(payload, "delta checkpoint payload");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->CommitDeltaState(std::move(staged[s]));
  }
  state_installs_.fetch_add(1, std::memory_order_relaxed);
}

void FleetServer::MarkCheckpointClean() {
  for (auto& shard : shards_) shard->MarkCheckpointClean();
}

std::size_t FleetServer::DirtyBankCount() const {
  std::size_t dirty = 0;
  for (const auto& shard : shards_) dirty += shard->dirty_bank_count();
  return dirty;
}

std::size_t FleetServer::TotalBankCount() const {
  std::size_t banks = 0;
  for (const auto& shard : shards_) banks += shard->bank_count();
  return banks;
}

void FleetServer::RestoreCheckpoint(std::string_view member) {
  std::string_view payload =
      ReadFramedView(member, kFleetCheckpointMagic, kFleetCheckpointVersion);
  ExpectNoTrailingBytes(member, "checkpoint member");
  const std::uint64_t shard_count = TakeShardCount(payload, "checkpoint");
  if (shard_count != shards_.size()) {
    throw ParseError("checkpoint holds " + std::to_string(shard_count) +
                     " shard(s) but this server has " +
                     std::to_string(shards_.size()) +
                     " — shard counts must match to restore");
  }
  // Parse every shard's section before committing any of them: a corrupt
  // shard N must fail the whole restore with the server unchanged, never
  // leave shards 0..N-1 on the new state and the rest on the old (the
  // recovery path retries older checkpoints on this same server).
  std::vector<core::PredictionEngine::StagedState> staged;
  staged.reserve(shards_.size());
  for (auto& shard : shards_) staged.push_back(shard->ParseState(payload));
  ExpectNoTrailingBytes(payload, "checkpoint payload");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->CommitState(std::move(staged[s]));
  }
  state_installs_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace cordial::serve
