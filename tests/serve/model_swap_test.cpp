// Hot-swap determinism: model generations published through a ModelSlot are
// adopted at exact record boundaries, so a run with K swaps of an identical
// model is byte-identical to a no-swap run, and a checkpoint taken across
// swap history restores and resumes bit-exactly.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "core/model_slot.hpp"
#include "support/serve_world.hpp"

namespace cordial::serve {
namespace {

using test_support::SharedWorld;
using test_support::World;

/// A ModelSet carrying the World's (champion) models — publishing it again
/// is a swap that changes the version but not one bit of behaviour.
core::ModelSet SameModels(const World& w) {
  core::ModelSet set;
  set.classifier = core::UnownedModel(w.classifier);
  set.single = core::UnownedModel(w.single_pred);
  if (w.double_ok) set.double_row = core::UnownedModel(w.double_pred);
  return set;
}

trace::MceRecord MakeCe(double time_s, std::uint32_t row) {
  trace::MceRecord r;
  r.time_s = time_s;
  r.address.row = row;
  r.type = hbm::ErrorType::kCe;
  return r;
}

TEST(ModelSwap, KSwapsOfIdenticalModelAreByteIdenticalToNoSwap) {
  const World& w = SharedWorld();
  const std::vector<trace::MceRecord>& records = w.fleet.log.records();
  constexpr std::size_t kSwaps = 4;
  const std::size_t chunks = kSwaps + 1;
  const std::size_t chunk_len = (records.size() + chunks - 1) / chunks;

  const auto run = [&](core::ModelSlot* slot) {
    FleetServerConfig config;
    config.shard_count = 3;
    config.model_slot = slot;
    FleetServer server(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
    server.Start();
    for (std::size_t i = 0; i < records.size(); i += chunk_len) {
      const std::size_t n = std::min(chunk_len, records.size() - i);
      server.SubmitBatch(std::span<const trace::MceRecord>(&records[i], n));
      if (slot != nullptr && i + n < records.size()) {
        server.Drain();  // the publish lands between two whole chunks
        slot->Publish(SameModels(w));
      }
    }
    server.Stop();
    std::ostringstream checkpoint;
    server.SaveCheckpoint(checkpoint);

    if (slot != nullptr) {
      // Every shard that processed a record after the final publish serves
      // the final generation; swaps were counted.
      std::set<std::size_t> touched_after_last_publish;
      std::uint64_t total_swaps = 0;
      const std::size_t last_chunk_start = (chunks - 1) * chunk_len;
      for (std::size_t i = last_chunk_start; i < records.size(); ++i) {
        touched_after_last_publish.insert(
            server.ShardOf(server.codec().BankKey(records[i].address)));
      }
      const std::vector<std::uint64_t> versions = server.ModelVersions();
      for (const std::size_t s : touched_after_last_publish) {
        EXPECT_EQ(versions[s], slot->version());
      }
      for (std::size_t s = 0; s < server.shard_count(); ++s) {
        total_swaps += server.shard(s).engine().model_swaps();
      }
      EXPECT_GT(total_swaps, 0u);
    }
    return std::make_pair(server.AggregateStats(), checkpoint.str());
  };

  const auto [plain_stats, plain_bytes] = run(nullptr);
  core::ModelSlot slot(SameModels(w));
  const auto [swap_stats, swap_bytes] = run(&slot);
  EXPECT_EQ(slot.version(), kSwaps + 1);
  EXPECT_EQ(swap_stats, plain_stats);
  EXPECT_EQ(swap_bytes, plain_bytes);
}

TEST(ModelSwap, SwapLandsOnExactRecordBoundary) {
  const World& w = SharedWorld();
  core::ModelSlot slot(SameModels(w));

  // Single shard; the sink runs on the worker thread after every engine
  // step, so it reads the version the engine served THAT record with.
  std::vector<std::uint64_t> served_versions;
  EngineShard* self = nullptr;
  EngineShard shard(
      w.topology, w.classifier, w.single_pred, w.double_or_null(),
      core::EngineConfig{}, QueueConfig{},
      [&](const trace::MceRecord&, const core::IsolationActions&) {
        served_versions.push_back(self->model_version());
      });
  self = &shard;
  shard.AttachModelSlot(slot);
  shard.Start();

  constexpr std::size_t kBefore = 7;
  constexpr std::size_t kAfter = 5;
  for (std::size_t i = 0; i < kBefore; ++i) {
    ASSERT_TRUE(shard.Submit(MakeCe(static_cast<double>(i), 10 + i)));
  }
  shard.Drain();  // records 0..kBefore-1 fully served before the publish
  slot.Publish(SameModels(w));
  for (std::size_t i = 0; i < kAfter; ++i) {
    ASSERT_TRUE(
        shard.Submit(MakeCe(static_cast<double>(kBefore + i), 100 + i)));
  }
  shard.Stop();

  ASSERT_EQ(served_versions.size(), kBefore + kAfter);
  for (std::size_t i = 0; i < kBefore; ++i) {
    EXPECT_EQ(served_versions[i], 1u) << "record " << i;
  }
  for (std::size_t i = kBefore; i < served_versions.size(); ++i) {
    EXPECT_EQ(served_versions[i], 2u) << "record " << i;
  }
  EXPECT_EQ(shard.engine().model_swaps(), 1u);
}

TEST(ModelSwap, CheckpointAcrossSwapsRestoresAndResumesByteExactly) {
  const World& w = SharedWorld();
  const std::vector<trace::MceRecord>& records = w.fleet.log.records();
  const std::size_t half = records.size() / 2;
  const std::size_t rest = records.size() - half;

  core::ModelSlot slot(SameModels(w));
  FleetServerConfig config;
  config.shard_count = 2;
  config.model_slot = &slot;

  FleetServer original(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
  original.Start();
  original.SubmitBatch(std::span<const trace::MceRecord>(&records[0], half));
  original.Drain();
  slot.Publish(SameModels(w));  // the checkpoint is taken across this swap
  original.SubmitBatch(
      std::span<const trace::MceRecord>(&records[half], rest / 2));
  original.Drain();
  std::ostringstream mid;
  original.SaveCheckpoint(mid);

  // A fresh server (sharing the slot) restores the mid-run checkpoint; both
  // then consume the identical tail and must end bit-identical. The model
  // version is serving state, not engine state — it is NOT in the
  // checkpoint, so the restored server adopts the slot's current generation
  // at its first record, same as the original already did.
  FleetServer restored(w.topology, w.classifier, w.single_pred,
                       w.double_or_null(), config);
  restored.RestoreCheckpoint(mid.str());
  restored.Start();

  const std::size_t tail_start = half + rest / 2;
  const std::size_t tail_len = records.size() - tail_start;
  for (FleetServer* server : {&original, &restored}) {
    server->SubmitBatch(
        std::span<const trace::MceRecord>(&records[tail_start], tail_len));
    server->Stop();
  }
  std::ostringstream end_a, end_b;
  original.SaveCheckpoint(end_a);
  restored.SaveCheckpoint(end_b);
  EXPECT_EQ(end_a.str(), end_b.str());
  EXPECT_EQ(restored.AggregateStats(), original.AggregateStats());
}

}  // namespace
}  // namespace cordial::serve
