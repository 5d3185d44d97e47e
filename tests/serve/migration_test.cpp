// Live shard migration must be invisible to the model: a fleet feed split
// across two servers, with a shard's engine state exported from one and
// imported into the other mid-stream, must end in per-shard states — and a
// merged checkpoint — bit-identical to one server consuming the whole feed
// with no migration at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "serve/checkpoint.hpp"
#include "serve/fleet_server.hpp"
#include "support/serve_world.hpp"

namespace cordial::serve {
namespace {

using test_support::SharedWorld;
using test_support::World;

constexpr std::size_t kShards = 2;

FleetServerConfig TwoShardConfig() {
  FleetServerConfig config;
  config.shard_count = kShards;
  return config;
}

std::unique_ptr<FleetServer> MakeServer(const World& w) {
  return std::make_unique<FleetServer>(w.topology, w.classifier,
                                       w.single_pred, w.double_or_null(),
                                       TwoShardConfig());
}

/// The single-process, never-migrated reference: one server eats the whole
/// feed and writes one checkpoint.
std::string ReferenceCheckpoint(const World& w) {
  auto server = MakeServer(w);
  server->Start();
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    server->Submit(record);
  }
  server->Stop();
  std::ostringstream out;
  server->SaveCheckpoint(out);
  return out.str();
}

/// Assemble a fleet checkpoint from per-shard exports, exactly as
/// SaveCheckpoint lays it out: "shards N\n" then each shard's framed state
/// in index order.
std::string MergeExports(const std::vector<std::string>& shard_states) {
  std::string payload = "shards " + std::to_string(shard_states.size()) + "\n";
  for (const std::string& state : shard_states) payload += state;
  CloseFrame(payload, 0, kFleetCheckpointMagic, kFleetCheckpointVersion);
  return payload;
}

TEST(Migration, ShardIndexOfAgreesWithMemberRouting) {
  const World& w = SharedWorld();
  auto server = MakeServer(w);
  hbm::AddressCodec codec(w.topology);
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    const std::uint64_t key = codec.BankKey(record.address);
    EXPECT_EQ(server->ShardOf(key), FleetServer::ShardIndexOf(key, kShards));
  }
}

TEST(Migration, EmptyShardRoundTripsBetweenServers) {
  const World& w = SharedWorld();
  auto a = MakeServer(w);
  auto b = MakeServer(w);
  a->Start();
  b->Start();

  // No traffic at all: the exported state is a fresh engine's, and pushing
  // it through another server changes nothing.
  const std::string state = a->ExportShard(0);
  EXPECT_FALSE(state.empty());
  b->ImportShard(0, state);
  EXPECT_EQ(b->ExportShard(0), state);
  EXPECT_EQ(b->AggregateStats().events, 0u);
  a->Stop();
  b->Stop();
}

TEST(Migration, MalformedImportThrowsAndLeavesShardUnchanged) {
  const World& w = SharedWorld();
  auto server = MakeServer(w);
  server->Start();
  const std::string before = server->ExportShard(1);
  EXPECT_THROW(server->ImportShard(1, "not a framed engine state"),
               ParseError);
  EXPECT_EQ(server->ExportShard(1), before);
  server->Stop();
}

/// Drive the migrated topology: two servers, each constructed with the full
/// shard count; `owner[s]` says which server currently receives shard s's
/// records. Returns the merged checkpoint of the final owners.
std::string RunMigratedScenario(
    const World& w,
    const std::function<void(std::size_t record_index, FleetServer& a,
                             FleetServer& b, std::vector<FleetServer*>& owner)>&
        before_record) {
  auto a = MakeServer(w);
  auto b = MakeServer(w);
  a->Start();
  b->Start();
  hbm::AddressCodec codec(w.topology);

  std::vector<FleetServer*> owner(kShards, a.get());
  const auto& records = w.fleet.log.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    before_record(i, *a, *b, owner);
    const std::size_t shard =
        FleetServer::ShardIndexOf(codec.BankKey(records[i].address), kShards);
    EXPECT_TRUE(owner[shard]->Submit(records[i]));
  }
  a->Stop();
  b->Stop();

  std::vector<std::string> states;
  for (std::size_t s = 0; s < kShards; ++s) {
    states.push_back(owner[s]->ExportShard(s));
  }
  return MergeExports(states);
}

TEST(Migration, MidStreamMigrationIsBitIdenticalToNoMigration) {
  const World& w = SharedWorld();
  const std::string reference = ReferenceCheckpoint(w);
  const std::size_t half = w.fleet.log.size() / 2;

  const std::string merged = RunMigratedScenario(
      w, [&](std::size_t i, FleetServer& a, FleetServer& b,
             std::vector<FleetServer*>& owner) {
        if (i == half && owner[1] == &a) {
          b.ImportShard(1, a.ExportShard(1));
          owner[1] = &b;
        }
      });
  EXPECT_EQ(merged, reference);
}

TEST(Migration, DoubleMigrationReturnsHomeBitIdentically) {
  const World& w = SharedWorld();
  const std::string reference = ReferenceCheckpoint(w);
  const std::size_t third = w.fleet.log.size() / 3;

  // Shard 1 moves A→B at one third, then B→A at two thirds: a shard that
  // migrates twice must be indistinguishable from one that never moved.
  const std::string merged = RunMigratedScenario(
      w, [&](std::size_t i, FleetServer& a, FleetServer& b,
             std::vector<FleetServer*>& owner) {
        if (i == third) {
          b.ImportShard(1, a.ExportShard(1));
          owner[1] = &b;
        } else if (i == 2 * third) {
          a.ImportShard(1, b.ExportShard(1));
          owner[1] = &a;
        }
      });
  EXPECT_EQ(merged, reference);
}

TEST(Migration, InterleavedCheckpointRestoreDoesNotDisturbMigration) {
  const World& w = SharedWorld();
  const std::string reference = ReferenceCheckpoint(w);
  const std::size_t n = w.fleet.log.size();

  // Server A checkpoints itself and restores from that checkpoint right
  // before the migration, and again right after: a full save/restore cycle
  // between migrations must not perturb a single byte of the outcome.
  const auto cycle_checkpoint = [](FleetServer& server) {
    server.Drain();
    std::string snapshot;
    server.AppendCheckpoint(snapshot);
    server.RestoreCheckpoint(snapshot);
  };
  const std::string merged = RunMigratedScenario(
      w, [&](std::size_t i, FleetServer& a, FleetServer& b,
             std::vector<FleetServer*>& owner) {
        if (i == n / 4) {
          cycle_checkpoint(a);
        } else if (i == n / 2) {
          b.ImportShard(1, a.ExportShard(1));
          owner[1] = &b;
        } else if (i == (3 * n) / 4) {
          cycle_checkpoint(a);
          cycle_checkpoint(b);
        }
      });
  EXPECT_EQ(merged, reference);
}

TEST(Migration, ExportedShardMatchesCheckpointSection) {
  const World& w = SharedWorld();
  auto server = MakeServer(w);
  server->Start();
  for (const trace::MceRecord& record : w.fleet.log.records()) {
    server->Submit(record);
  }
  server->Drain();

  // Exports in index order, concatenated under the "shards N" line, ARE the
  // checkpoint payload — the exact property the migration driver's merged
  // collection relies on.
  std::vector<std::string> states;
  for (std::size_t s = 0; s < kShards; ++s) {
    states.push_back(server->ExportShard(s));
  }
  std::ostringstream checkpoint;
  server->SaveCheckpoint(checkpoint);
  EXPECT_EQ(MergeExports(states), checkpoint.str());
  server->Stop();
}

}  // namespace
}  // namespace cordial::serve
