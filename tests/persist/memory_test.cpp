// Deterministic peak-memory bounds for the checkpoint paths. Each member is
// encoded into one buffer and parsed in place (DESIGN.md §14), so writing,
// folding or recovering a member may hold only a small multiple of its
// bytes. This binary replaces the global operator new/delete with a
// counting pair to read live heap bytes — which is why it is a test
// executable of its own.
//
// Bounds (peak live heap above the level before the call):
//   * CheckpointChain::WriteFull, a delta Write, FoldChain: <= 3x the
//     member's bytes;
//   * CheckpointChain::Recover: <= 3x the largest member on top of the
//     state it restored.
// Plus the member itself: the full WriteFull writes here is at most a third
// of the bytes the fixed-width bank blobs of engine state v3 took. And the
// state behind it: an engine fed the whole feedstock holds at most 400
// bytes of live heap per bank, and a bank allocates its UER block at its
// first UER and not before, live or restored. And a model payload whose
// counts are forged
// (each as large as the bytes left allow) makes its decoder reserve at most
// 1.7x the payload's bytes before it is refused, and a decoded forest holds
// at most 18 bytes a split beyond its tables, importances and tree objects.
#include <dirent.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "core/persist.hpp"
#include "core/engine.hpp"
#include "ml/classifier.hpp"
#include "ml/forest.hpp"
#include "persist/binary_io.hpp"
#include "persist/chain.hpp"
#include "serve/fleet_server.hpp"
#include "support/serve_world.hpp"
#include "trace/fleet.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
/// Allocations of exactly g_watched_size bytes (0 watches none).
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::int64_t> g_watched_allocs{0};

/// Every block carries its size in a max-aligned prefix, so unsized
/// deletes can uncount it too.
constexpr std::size_t kPrefix = alignof(std::max_align_t);

void* CountedAlloc(std::size_t size) {
  void* raw = std::malloc(size + kPrefix);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  if (size == g_watched_size.load(std::memory_order_relaxed)) {
    g_watched_allocs.fetch_add(1);
  }
  const std::int64_t live =
      g_live_bytes.fetch_add(static_cast<std::int64_t>(size)) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(raw) + kPrefix;
}

void CountedFree(void* block) noexcept {
  if (block == nullptr) return;
  void* raw = static_cast<char*>(block) - kPrefix;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* block) noexcept { CountedFree(block); }
void operator delete[](void* block) noexcept { CountedFree(block); }
void operator delete(void* block, std::size_t) noexcept { CountedFree(block); }
void operator delete[](void* block, std::size_t) noexcept {
  CountedFree(block);
}

namespace cordial::persist {
namespace {

using serve::FleetServer;
using serve::test_support::SharedWorld;
using serve::test_support::World;

constexpr double kMaxMultiple = 3.0;

/// Bytes of WriteFull's member below under engine state v3, whose bank
/// blobs spent a u64 on every count and a raw f64 on every field and row.
constexpr std::uint64_t kFixedWidthFullBytes = 5'229'169;

/// Peak live heap above the level at construction.
class HeapProbe {
 public:
  HeapProbe() : before_(g_live_bytes.load()) { g_peak_bytes.store(before_); }
  std::int64_t before() const { return before_; }
  std::int64_t peak_above() const { return g_peak_bytes.load() - before_; }

 private:
  std::int64_t before_;
};

/// A fleet several times the shared world's, fed to models trained on the
/// shared world: several thousand banks with real classification and
/// cross-row state behind them.
const std::vector<trace::MceRecord>& Feedstock() {
  static const auto* records = [] {
    trace::CalibrationProfile profile;
    profile.scale = 0.5;
    auto fleet = trace::FleetGenerator(SharedWorld().topology, profile)
                     .Generate(17);
    return new std::vector<trace::MceRecord>(fleet.log.records());
  }();
  return *records;
}

FleetServer MakeServer() {
  const World& w = SharedWorld();
  serve::FleetServerConfig config;
  config.shard_count = 1;
  return FleetServer(w.topology, w.classifier, w.single_pred,
                     w.double_or_null(), config);
}

/// Feed the fraction [from, to) of the feedstock and leave the server
/// drained.
void Feed(FleetServer& server, double from, double to) {
  const auto& records = Feedstock();
  const auto at = [&](double f) {
    return static_cast<std::size_t>(f * static_cast<double>(records.size()));
  };
  for (std::size_t i = at(from); i < at(to); ++i) server.Submit(records[i]);
  server.Drain();
}

class ScratchDir {
 public:
  ScratchDir() {
    char templ[] = "/tmp/cordial_memory_XXXXXX";
    CORDIAL_CHECK_MSG(::mkdtemp(templ) != nullptr, "mkdtemp failed");
    path_ = templ;
  }
  ~ScratchDir() {
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (dirent* ent = ::readdir(dir)) {
        const std::string name = ent->d_name;
        if (name != "." && name != "..") {
          ::unlink((path_ + "/" + name).c_str());
        }
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void ExpectWithin(const char* what, std::int64_t peak, std::uint64_t base,
                  double max_multiple = kMaxMultiple) {
  const double multiple =
      static_cast<double>(peak) / static_cast<double>(base);
  std::printf("%s: peak %.2f MB above the call's start, %.2fx %.2f MB\n",
              what, static_cast<double>(peak) / 1e6, multiple,
              static_cast<double>(base) / 1e6);
  EXPECT_LE(multiple, max_multiple) << what;
}

TEST(CheckpointMemory, FeedstockHasSeveralThousandBanks) {
  FleetServer server = MakeServer();
  server.Start();
  Feed(server, 0.0, 1.0);
  EXPECT_GE(server.TotalBankCount(), 3000u);
  server.Stop();
}

TEST(CheckpointMemory, EngineHeapPerBankIsBounded) {
  // Most banks never see a UER, so they hold only their CE/UEO state and
  // no UER block; rows are held as u32, the ledger's too. The bound is on
  // everything the engine allocates while it ingests: profiles, Cordial
  // state, the bank map and the ledger.
  const World& w = SharedWorld();
  const std::vector<trace::MceRecord>& records = Feedstock();
  const std::int64_t before = g_live_bytes.load();
  core::PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                                w.double_or_null());
  for (const trace::MceRecord& record : records) engine.Observe(record);
  const std::int64_t heap = g_live_bytes.load() - before;
  const double per_bank =
      static_cast<double>(heap) / static_cast<double>(engine.bank_count());
  std::printf("engine heap: %.2f MB over %zu banks, %.0f bytes a bank\n",
              static_cast<double>(heap) / 1e6, engine.bank_count(), per_bank);
  EXPECT_LE(per_bank, 400.0);
}

/// Counts the allocations of one size made while it lives.
class SizeWatch {
 public:
  explicit SizeWatch(std::size_t size) {
    g_watched_allocs.store(0);
    g_watched_size.store(size);
  }
  ~SizeWatch() { g_watched_size.store(0); }
  std::int64_t count() const { return g_watched_allocs.load(); }
};

TEST(CheckpointMemory, UerBlockIsAllocatedAtTheFirstUerOnly) {
  // A bank keeps its UER-side state, classification view and Cordial
  // state in one block that its first UER allocates. A bank fed only CEs
  // and UEOs allocates none, its first UER exactly one, later records no
  // other, and restoring a blob of a bank without a UER none. Nothing else
  // allocated below has the block's size.
  const World& w = SharedWorld();
  const SizeWatch watch(sizeof(core::UerBlock));
  core::PredictionEngine engine(w.topology, w.classifier, w.single_pred,
                                w.double_or_null());
  trace::MceRecord record = w.fleet.log.records().front();
  const auto feed = [&](double t, std::uint32_t row, hbm::ErrorType type) {
    record.time_s = t;
    record.address.row = row;
    record.type = type;
    engine.Observe(record);
  };
  for (int i = 0; i < 40; ++i) {
    feed(i / 2, 100 + (i * 7) % 23,
         i % 3 == 0 ? hbm::ErrorType::kUeo : hbm::ErrorType::kCe);
  }
  EXPECT_EQ(watch.count(), 0);
  std::string uer_free;
  engine.AppendState(uer_free);

  feed(20, 110, hbm::ErrorType::kUer);
  EXPECT_EQ(watch.count(), 1);
  for (int i = 0; i < 8; ++i) {
    feed(21 + i, 104 + i, i % 2 == 0 ? hbm::ErrorType::kUer
                                     : hbm::ErrorType::kCe);
  }
  EXPECT_EQ(watch.count(), 1);
  ASSERT_GE(engine.stats().banks_classified, 1u);

  core::PredictionEngine restored(w.topology, w.classifier, w.single_pred,
                                  w.double_or_null());
  const std::int64_t before_restore = watch.count();
  std::string_view in(uer_free);
  restored.CommitState(restored.ParseState(in));
  EXPECT_EQ(watch.count(), before_restore);
  const core::BankProfile* profile =
      restored.FindProfile(restored.codec().BankKey(record.address));
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->event_count(), 40u);
  EXPECT_FALSE(profile->HasClassificationView());
}

/// A one-tree forest over one feature whose tree has a table of `entries`
/// class-frequency pairs and claims `nodes` nodes, then `filler` zero
/// bytes: a leaf that closes the tree at its first node, so the decoder
/// refuses it after it has sized its storage from the counts.
std::string ForgedForest(std::uint64_t entries, std::uint64_t nodes,
                         std::size_t filler) {
  std::string tree;
  persist::BinaryWriter tree_out(tree);
  tree_out.Var(2);
  tree_out.Var(entries);
  for (std::uint64_t e = 0; e < entries; ++e) {
    tree_out.F64(static_cast<double>(e));
    tree_out.F64(1.0);
  }
  tree_out.Var(nodes);
  tree.append(filler, '\0');
  std::string payload;
  persist::BinaryWriter out(payload);
  out.U8(static_cast<std::uint8_t>(ml::LearnerTag::kRandomForest));
  out.Var(2);
  out.Var(1);
  out.Var(tree.size());
  out.Bytes(tree);
  return payload;
}

TEST(ModelMemory, ForgedCountsReserveAtMostThreePayloadBytesEach) {
  // The node count is bounded by the bytes a valid tree of that many nodes
  // takes at least, (n - 1) / 2 splits of 9 bytes and (n + 1) / 2 leaves of
  // 2; only the (n - 1) / 2 splits are reserved, 18 bytes each (a 16-byte
  // record and a 2-byte feature), so 18 bytes per 11 payload bytes. The
  // table reserves its own bytes.
  constexpr double kMaxForgedMultiple = 1.7;
  constexpr std::size_t kFiller = 110'000;
  const std::uint64_t max_nodes = (kFiller - 2) / 11 * 2 + 1;
  const std::string forged_nodes = ForgedForest(1, max_nodes, kFiller);
  const std::string forged_table = ForgedForest(kFiller / 16, 1, 16);
  const std::string too_many = ForgedForest(1, max_nodes + 2, kFiller);
  for (const std::string* payload : {&forged_nodes, &forged_table}) {
    HeapProbe probe;
    persist::BinaryReader in(*payload, "forged model");
    EXPECT_THROW(ml::DecodeClassifier(in, 1), ParseError);
    ExpectWithin(payload == &forged_nodes ? "forged node count"
                                          : "forged table count",
                 probe.peak_above(), payload->size(), kMaxForgedMultiple);
  }
  // One node pair more than the bytes allow is refused at the count.
  HeapProbe probe;
  persist::BinaryReader in(too_many, "forged model");
  EXPECT_THROW(ml::DecodeClassifier(in, 1), ParseError);
  EXPECT_LT(probe.peak_above(), 10'000);
}

TEST(ModelMemory, DecodedForestHoldsEighteenBytesASplit) {
  // A decoded tree keeps only its splits, each a 16-byte record and a
  // 2-byte feature; leaves live in their parents' child references. Beyond
  // that a forest holds its trees' tables and importances and the tree
  // objects themselves.
  const World& w = SharedWorld();
  std::ostringstream saved;
  w.single_pred.SaveModel(saved);
  const std::string file = saved.str();
  std::string_view frame(file);
  persist::BinaryReader in(ReadFramedView(frame, core::kCrossRowModelMagic,
                                          core::kModelFrameVersion),
                           "crossrow model");
  const std::size_t features = in.Var();
  HeapProbe probe;
  const std::unique_ptr<ml::Classifier> model =
      ml::DecodeClassifier(in, features);
  const std::int64_t held = g_live_bytes.load() - probe.before();
  const auto& forest = dynamic_cast<const ml::RandomForestClassifier&>(*model);
  std::size_t splits = 0;
  std::size_t tables = 0;
  for (const ml::ClassificationTree& tree : forest.trees()) {
    splits += tree.split_count();
    tables += tree.table().size_bytes() +
              tree.feature_importance().size() * sizeof(double);
  }
  const std::size_t objects =
      sizeof(ml::RandomForestClassifier) +
      forest.trees().capacity() * sizeof(ml::ClassificationTree);
  const double per_split = static_cast<double>(held - tables - objects) /
                           static_cast<double>(splits);
  std::printf("decoded forest: %zu trees, %zu splits, %lld B held: %zu B "
              "tables and importances, %zu B objects, %.2f B a split\n",
              forest.tree_count(), splits, static_cast<long long>(held), tables,
              objects, per_split);
  EXPECT_GT(splits, 1000u);
  EXPECT_LE(per_split, 18.0);
}

TEST(CheckpointMemory, WriteFullHoldsAtMostThreeMembers) {
  ScratchDir dir;
  FleetServer server = MakeServer();
  server.Start();
  Feed(server, 0.0, 0.9);
  CheckpointChain chain(ChainConfig{dir.path(), 16});
  HeapProbe probe;
  const ChainWriteResult full = chain.WriteFull(server);
  ExpectWithin("WriteFull", probe.peak_above(), full.bytes);
  std::printf("WriteFull member: %llu bytes, %.2fx smaller than v3's\n",
              static_cast<unsigned long long>(full.bytes),
              static_cast<double>(kFixedWidthFullBytes) /
                  static_cast<double>(full.bytes));
  EXPECT_LE(full.bytes, kFixedWidthFullBytes / 3);
  server.Stop();
}

TEST(CheckpointMemory, DeltaWriteHoldsAtMostThreeMembers) {
  ScratchDir dir;
  FleetServer server = MakeServer();
  server.Start();
  Feed(server, 0.0, 0.6);
  CheckpointChain chain(ChainConfig{dir.path(), 16});
  chain.WriteFull(server);
  Feed(server, 0.6, 1.0);
  HeapProbe probe;
  const ChainWriteResult delta = chain.Write(server);
  ASSERT_FALSE(delta.full);
  ExpectWithin("delta Write", probe.peak_above(), delta.bytes);
  server.Stop();
}

/// A full at 60% of the feed plus two deltas; returns the largest member.
std::uint64_t WriteChain(const std::string& directory) {
  FleetServer server = MakeServer();
  server.Start();
  Feed(server, 0.0, 0.6);
  CheckpointChain chain(ChainConfig{directory, 16});
  std::uint64_t largest = chain.WriteFull(server).bytes;
  Feed(server, 0.6, 0.8);
  largest = std::max(largest, chain.Write(server).bytes);
  Feed(server, 0.8, 1.0);
  largest = std::max(largest, chain.Write(server).bytes);
  server.Stop();
  return largest;
}

TEST(CheckpointMemory, FoldHoldsAtMostThreeMembers) {
  ScratchDir dir;
  WriteChain(dir.path());
  HeapProbe probe;
  const std::string folded = FoldChain(dir.path());
  ExpectWithin("FoldChain", probe.peak_above(), folded.size());
}

TEST(CheckpointMemory, RecoverHoldsAtMostThreeLargestMembersOverItsState) {
  ScratchDir dir;
  const std::uint64_t largest = WriteChain(dir.path());
  FleetServer server = MakeServer();
  CheckpointChain chain(ChainConfig{dir.path(), 16});
  HeapProbe probe;
  const ChainRecoveryResult outcome = chain.Recover(server);
  ASSERT_EQ(outcome.applied.size(), 3u);
  const std::int64_t restored_state = g_live_bytes.load() - probe.before();
  ExpectWithin("Recover (over the restored state)",
               probe.peak_above() - restored_state, largest);
}

}  // namespace
}  // namespace cordial::persist
