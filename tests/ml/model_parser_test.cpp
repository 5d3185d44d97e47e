// The model decoder against crafted, truncated and mutated payloads. Model
// files come from outside the program, so every defect a payload can carry
// must end in a ParseError at load time: never an out-of-bounds read or an
// endless walk at predict time, and never an allocation sized by a corrupt
// count. What decodes re-encodes to the same bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "common/rng.hpp"
#include "core/crossrow.hpp"
#include "core/pattern_classifier.hpp"
#include "core/persist.hpp"
#include "ml/booster.hpp"
#include "ml/forest.hpp"
#include "persist/binary_io.hpp"

namespace cordial::ml {
namespace {

/// A one-split model over one feature, x <= 0.5 is class 0, else class 1,
/// written field by field as the encoder lays it out. Each defect test
/// changes one field.
struct Stump {
  bool booster = false;
  std::uint64_t classes = 2;       ///< the model's class count
  std::uint64_t tree_classes = 2;  ///< the forest tree's class count
  double learning_rate = 1.0;      ///< booster only
  std::uint64_t trees = 1;
  /// The tree's table of leaf tuples; empty for the stump's own: (1, 0)
  /// and (0, 1) in a forest, -2 and 2 in a booster.
  std::vector<double> table = {};
  /// The table's entry count as written; by default the table's.
  std::optional<std::uint64_t> entries = std::nullopt;
  /// The node count as written; by default the shape's.
  std::optional<std::uint64_t> nodes = std::nullopt;
  /// The nodes in pre-order: 'S' a split on `split_tag` at 0.5, 'L' a
  /// leaf using the next of `leaves`.
  std::string_view shape = "SLL";
  std::uint64_t split_tag = 1;  ///< a split's feature + 1
  std::vector<std::uint64_t> leaves = {0, 1};  ///< the leaves' entries
  std::size_t features = 1;  ///< importances written
  /// Applied to the tree's bytes before its length is written in front.
  std::function<void(std::string&)> edit_tree = nullptr;
  std::int64_t length_change = 0;  ///< added to the tree's written length

  std::string Bytes() const {
    std::string bytes;
    persist::BinaryWriter out(bytes);
    std::string tree;
    persist::BinaryWriter tree_out(tree);
    std::vector<double> values = table;
    std::uint64_t width = 1;
    if (booster) {
      out.U8(static_cast<std::uint8_t>(LearnerTag::kGradientBoosted));
      const std::string_view name = "XGBoost-style";
      out.Var(name.size());
      out.Bytes(name);
      out.Var(classes);
      out.F64(learning_rate);
      out.Var(trees);
      out.F64(0.0);  // base scores
      out.F64(0.0);
      if (values.empty()) values = {-2.0, 2.0};
    } else {
      out.U8(static_cast<std::uint8_t>(LearnerTag::kRandomForest));
      out.Var(classes);
      out.Var(trees);
      tree_out.Var(tree_classes);
      width = tree_classes;
      if (values.empty()) values = {1.0, 0.0, 0.0, 1.0};
    }
    tree_out.Var(entries.value_or(values.size() / width));
    for (const double v : values) tree_out.F64(v);
    tree_out.Var(nodes.value_or(shape.size()));
    std::size_t leaf = 0;
    for (const char node : shape) {
      if (node == 'S') {
        tree_out.Var(split_tag);
        tree_out.F64(0.5);
      } else {
        tree_out.Var(0);
        tree_out.Var(leaf < leaves.size() ? leaves[leaf++] : 0);
      }
    }
    for (std::size_t f = 0; f < features; ++f) {
      tree_out.F64(f == 0 ? 0.25 : 0.0);
    }
    if (edit_tree) edit_tree(tree);
    out.Var(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(tree.size()) + length_change));
    out.Bytes(tree);
    return bytes;
  }
};

template <typename Model>
std::string Encoded(const Model& model) {
  std::string bytes;
  persist::BinaryWriter out(bytes);
  model.Encode(out);
  return bytes;
}

/// The model payload's classifier, decoded as LoadModel decodes it: the
/// whole buffer, trailing bytes refused.
std::unique_ptr<Classifier> Load(std::string_view bytes,
                                 std::size_t num_features) {
  persist::BinaryReader in(bytes, "test model");
  std::unique_ptr<Classifier> model = DecodeClassifier(in, num_features);
  in.ExpectEnd();
  return model;
}

void ExpectRejected(const Stump& stump, std::size_t num_features = 1) {
  EXPECT_THROW(Load(stump.Bytes(), num_features), ParseError)
      << (stump.booster ? "booster" : "forest");
}

/// The ParseError message a stump's bytes are refused with, or "loaded".
std::string Refusal(const Stump& stump) {
  try {
    Load(stump.Bytes(), 1);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "loaded";
}

/// Expects `stump` refused with a message that contains `message`.
void ExpectRefusedWith(const Stump& stump, const std::string& message) {
  const std::string refusal = Refusal(stump);
  EXPECT_NE(refusal.find(message), std::string::npos)
      << (stump.booster ? "booster: " : "forest: ") << refusal;
}

TEST(ModelParser, HandWrittenStumpsLoadAndPredict) {
  const double low = 0.2, high = 0.9;
  for (const bool booster : {false, true}) {
    const std::string bytes = Stump{.booster = booster}.Bytes();
    const auto model = Load(bytes, 1);
    EXPECT_EQ(model->Predict(std::span<const double>(&low, 1)), 0) << booster;
    EXPECT_EQ(model->Predict(std::span<const double>(&high, 1)), 1) << booster;
    EXPECT_EQ(Encoded(*model), bytes);
  }
}

TEST(ModelParser, RejectsSplitFeatureOutsideTheModel) {
  // Loaded, this split would read features[999] of a 1-feature row.
  for (const bool booster : {false, true}) {
    ExpectRejected({.booster = booster, .split_tag = 1000});
    ExpectRejected({.booster = booster, .split_tag = 2});
  }
  // A split on feature 1 is valid in a 2-feature model.
  EXPECT_NO_THROW(Load(Stump{.split_tag = 2, .features = 2}.Bytes(), 2));
}

TEST(ModelParser, RejectsTagSequencesThatDoNotCloseIntoOneTree) {
  // No node stores a child: the tags alone give the tree its shape, so
  // they must close into exactly one binary tree at the last node.
  for (const bool booster : {false, true}) {
    // A tree that closes early: the nodes after it belong to no tree.
    ExpectRefusedWith(
        {.booster = booster, .shape = "SLLL", .leaves = {0, 1, 1}},
        "tree closes at node 2 of 4");
    ExpectRefusedWith({.booster = booster, .shape = "LSL"},
                      "tree closes at node 0 of 3");
    // Tags that never close: a split left without a right child, whether
    // the last node is a leaf or a split.
    ExpectRefusedWith({.booster = booster, .shape = "SSLL"},
                      "tree of 4 node(s) does not close at its last node");
    ExpectRefusedWith({.booster = booster, .shape = "SLS", .leaves = {0}},
                      "tree of 3 node(s) does not close at its last node");
    ExpectRefusedWith(
        {.booster = booster,
         .table = booster ? std::vector<double>{2.0}
                          : std::vector<double>{1.0, 0.0},
         .shape = "S"},
        "tree of 1 node(s) does not close at its last node");
  }
}

TEST(ModelParser, RejectsLeafEntriesPastTheTableOrOutOfFirstUseOrder) {
  for (const bool booster : {false, true}) {
    ExpectRefusedWith({.booster = booster, .leaves = {0, 2}},
                      "tree node 2 uses table entry 2 of 2");
    ExpectRefusedWith({.booster = booster, .leaves = {0, 1000000}},
                      "tree node 2 uses table entry 1000000 of 2");
    // Entries are numbered in the order the leaves first use them.
    ExpectRefusedWith({.booster = booster, .leaves = {1, 0}},
                      "tree node 1 uses table entry 1 before entry 0");
  }
}

TEST(ModelParser, RejectsTableEntriesRepeatedOrNeverUsed) {
  ExpectRefusedWith({.table = {0.5, 0.5, 0.5, 0.5}},
                    "tree table entries 0 and 1 are equal");
  ExpectRefusedWith({.booster = true, .table = {2.0, 2.0}},
                    "tree table entries 0 and 1 are equal");
  // Equal means equal bits: 0.0 and -0.0, or NaNs of two payloads, are two
  // entries, and their trees load and re-encode to their bytes.
  const double nan_a = std::bit_cast<double>(0x7ff8000000000001ULL);
  const double nan_b = std::bit_cast<double>(0x7ff8000000000002ULL);
  for (const std::vector<double>& table :
       {std::vector<double>{0.0, -0.0}, std::vector<double>{nan_a, nan_b}}) {
    const std::string bytes = Stump{.booster = true, .table = table}.Bytes();
    EXPECT_EQ(Encoded(*Load(bytes, 1)), bytes);
  }
  for (const bool booster : {false, true}) {
    ExpectRefusedWith({.booster = booster, .leaves = {0, 0}},
                      "tree table entry 1 of 2 is never used");
    // More entries than the tree has leaves is refused at the count.
    ExpectRefusedWith(
        {.booster = booster,
         .table = booster ? std::vector<double>{-2.0, 2.0, 3.0}
                          : std::vector<double>{1.0, 0.0, 0.0, 1.0, 0.5,
                                                0.5}},
        "tree table has 3 entries for at most 2 leaves");
  }
}

TEST(ModelParser, RejectsMoreFeaturesThanASplitCanName) {
  // Split features are 16-bit indices: a model that reads 65,536 features
  // is refused by name before its tree is read; 65,535 load.
  for (const bool booster : {false, true}) {
    const Stump widest{.booster = booster, .features = 65'535};
    EXPECT_NO_THROW(Load(widest.Bytes(), 65'535));
    try {
      Load(Stump{.booster = booster, .features = 65'536}.Bytes(), 65'536);
      ADD_FAILURE() << "loaded a model of 65,536 features";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("at most 65,535 features"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelParser, RejectsCountsThatDoNotFit) {
  for (const bool booster : {false, true}) {
    ExpectRejected({.booster = booster, .nodes = 4000000000});
    ExpectRejected({.booster = booster, .trees = 4000000000});
    ExpectRejected({.booster = booster, .classes = 4000000000});
    ExpectRejected({.booster = booster, .nodes = 1ull << 63});
    // A table count that cannot fit in the bytes left.
    ExpectRefusedWith({.booster = booster, .entries = 4000000000},
                      "tree table of 4000000000 entries");
    ExpectRejected({.booster = booster, .entries = 1ull << 63});
    // The node count is bounded by the bytes its nodes take at least: a
    // split 9, a leaf 2. After the count the stump holds a split, two
    // leaves and an importance, 21 bytes: 3 nodes need 13 of them, 5 need
    // 24.
    ExpectRefusedWith({.booster = booster, .nodes = 5},
                      "a tree of 5 nodes does not fit in the 21 bytes left");
  }
  ExpectRejected({.tree_classes = 4000000000});
  // Counts the tree would accept but the model's frame contradicts: a
  // 2-feature model reads a second importance the stump does not hold.
  EXPECT_THROW(Load(Stump{}.Bytes(), 2), ParseError);
  EXPECT_THROW(Load(Stump{.booster = true}.Bytes(), 2), ParseError);
}

TEST(ModelParser, BadCountsAreParseErrors) {
  ExpectRejected({.classes = 1, .tree_classes = 1});
  ExpectRejected({.tree_classes = 1});
  ExpectRejected({.tree_classes = 3});  // not the forest's class count
  // A tree of 3-class leaves that decodes on its own, in a 2-class forest:
  // each table entry gets a third frequency, 0.0, after its two.
  try {
    Load(Stump{.tree_classes = 3, .table = {1.0, 0.0, 0.0, 0.0, 1.0, 0.0}}
             .Bytes(),
         1);
    ADD_FAILURE() << "loaded a 3-class tree into a 2-class forest";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "test model tree 0: leaves carry 3 value(s), the model's 2"),
              std::string::npos)
        << e.what();
  }
  ExpectRejected({.nodes = 0});
  ExpectRejected({.trees = 0});
  ExpectRejected({.booster = true, .trees = 0});
  ExpectRejected({.booster = true, .nodes = 0});
  ExpectRejected({.booster = true, .classes = 1});
  for (const double rate :
       {0.0, -0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    ExpectRejected({.booster = true, .learning_rate = rate});
  }
}

TEST(ModelParser, RejectsMalformedFields) {
  const std::string forest = Stump{}.Bytes();
  // A learner tag that names no learner.
  for (const char tag : {'\0', '\x03', '\xff'}) {
    std::string bytes = forest;
    bytes[0] = tag;
    EXPECT_THROW(Load(bytes, 1), ParseError) << int(tag);
  }
  // In the forest tree's bytes: the class count, the table count, the
  // table's four doubles, the node count, the root's tag and threshold,
  // then each leaf's tag and entry.
  constexpr std::size_t kNodeCountAt = 2 + 4 * 8;
  constexpr std::size_t kRootAt = kNodeCountAt + 1;
  constexpr std::size_t kSecondLeafEntryAt = kRootAt + 9 + 3;
  const auto rewrite = [](std::size_t at, std::string_view bytes) {
    return Stump{.edit_tree = [=](std::string& tree) {
      tree.replace(at, 1, bytes);
    }};
  };
  // The root's tag as an overlong varint: 0x81 0x00 also reads 1.
  ExpectRejected(rewrite(kRootAt, std::string_view("\x81\x00", 2)));
  // A node varint past five bytes.
  ExpectRejected(
      rewrite(kRootAt, std::string_view("\x81\x80\x80\x80\x80\x00", 6)));
  // A leaf's entry as an overlong varint: 0x81 0x00 also reads 1.
  ExpectRejected(
      rewrite(kSecondLeafEntryAt, std::string_view("\x81\x00", 2)));
  // An overlong node count and an overlong table count.
  ExpectRejected(rewrite(kNodeCountAt, std::string_view("\x83\x00", 2)));
  ExpectRejected(rewrite(1, std::string_view("\x82\x00", 2)));
  // Unedited, the rewrites keep the stump.
  EXPECT_NO_THROW(Load(rewrite(kRootAt, "\x01").Bytes(), 1));
  EXPECT_NO_THROW(Load(rewrite(kSecondLeafEntryAt, "\x01").Bytes(), 1));
  // An overlong tree count.
  std::string count = forest;
  count.replace(2, 1, "\x81\x00", 2);
  EXPECT_THROW(Load(count, 1), ParseError);
  // A booster name longer than the payload.
  std::string name = Stump{.booster = true}.Bytes();
  name[1] = '\x7f';
  EXPECT_THROW(Load(name, 1), ParseError);
}

TEST(ModelParser, RejectsTreeLengthsThatDoNotFrameTheirTree) {
  for (const bool booster : {false, true}) {
    // A length one short cuts the tree's last importance.
    ExpectRefusedWith({.booster = booster, .length_change = -1},
                      "test model tree 0: truncated payload");
    // A length one long takes a byte the tree does not read.
    const auto pad = [](std::string& tree) { tree.push_back('\0'); };
    ExpectRefusedWith({.booster = booster, .edit_tree = pad},
                      "test model tree 0: 1 unexpected trailing byte(s)");
    // A length past the payload.
    ExpectRefusedWith({.booster = booster, .length_change = 1},
                      "test model: tree 0 takes");
  }
}

TEST(ModelParser, TrailingBytesAfterTheModelAreRefused) {
  core::CrossRowPredictor model(hbm::TopologyConfig{},
                                LearnerKind::kRandomForest);
  const std::size_t features = model.extractor().num_features();
  for (const bool booster : {false, true}) {
    SCOPED_TRACE(booster ? "booster" : "forest");
    std::string payload;
    persist::BinaryWriter(payload).Var(features);
    payload += Stump{.booster = booster, .features = features}.Bytes();
    const auto framed = [&](std::string bytes) {
      CloseFrame(bytes, 0, core::kCrossRowModelMagic, core::kModelFrameVersion);
      return bytes;
    };
    std::istringstream exact(framed(payload));
    EXPECT_NO_THROW(model.LoadModel(exact));

    // One extra payload byte behind a fresh CRC, and one byte after the
    // frame, as a chain member's frame refuses it.
    for (const std::string& bytes :
         {framed(payload + '\0'), framed(payload) + '\0'}) {
      core::CrossRowPredictor rejected(hbm::TopologyConfig{},
                                       LearnerKind::kRandomForest);
      std::istringstream longer(bytes);
      try {
        rejected.LoadModel(longer);
        ADD_FAILURE() << "loaded a model with a trailing byte";
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("1 unexpected trailing byte"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_FALSE(rejected.trained());
    }
  }
}

Dataset TwoFeatureBlobs() {
  Dataset data(2, 2);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    const double row[] = {label * 2.0 + rng.Normal(0, 0.8), rng.Normal(0, 1)};
    data.AddRow(std::span<const double>(row, 2), label);
  }
  return data;
}

/// A 3-tree forest and a 3-round booster on TwoFeatureBlobs, encoded.
std::vector<std::string> SmallSavedModels() {
  const Dataset data = TwoFeatureBlobs();
  RandomForestClassifier forest(RandomForestOptions{.n_trees = 3});
  BoosterOptions options;
  options.n_rounds = 3;
  const auto booster = MakeXgbStyleBooster(options);
  Rng rng(6);
  forest.Fit(data, rng);
  booster->Fit(data, rng);
  return {Encoded(forest), Encoded(*booster)};
}

TEST(ModelParser, RejectsEveryTruncationOfASavedForestAndBooster) {
  for (const std::string& saved : SmallSavedModels()) {
    ASSERT_NO_THROW(Load(saved, 2));
    for (std::size_t cut = 0; cut < saved.size(); ++cut) {
      EXPECT_THROW(Load(std::string_view(saved).substr(0, cut), 2),
                   ParseError)
          << "accepted a model cut at byte " << cut << " of "
          << saved.size();
    }
    EXPECT_GT(saved.size(), 100u);
  }
}

TEST(ModelParser, PayloadMutantsFailClosedOrDecodeCanonically) {
  // Behind a valid CRC the decoder is the only line of defence, so the
  // payload is decoded directly. Every single-bit flip at every offset of
  // a small saved forest and booster, then 10^4 seeded mutants of each
  // that rewrite 2 to 8 random bytes. A mutant either throws ParseError or
  // decodes to a model that re-encodes to exactly its bytes and predicts
  // over a feature grid; under ASan and UBSan (tier-1) a walk that left
  // its node array would fail the run.
  std::vector<double> grid;
  for (const double x : {-1e300, -3.0, -0.5, 0.0, 0.5, 1.0, 2.5, 1e300}) {
    for (const double y : {-2.0, 0.0, 0.25, 2.0}) {
      grid.push_back(x);
      grid.push_back(y);
    }
  }
  std::size_t refused = 0;
  std::size_t decoded = 0;
  const auto check = [&](const std::string& mutant, const std::string& what) {
    std::unique_ptr<Classifier> model;
    try {
      model = Load(mutant, 2);
    } catch (const ParseError&) {
      ++refused;
      return;
    } catch (const std::exception& e) {
      FAIL() << what << ": " << e.what();
    }
    ++decoded;
    EXPECT_EQ(Encoded(*model), mutant) << what;
    for (std::size_t i = 0; i < grid.size(); i += 2) {
      const std::vector<double> proba =
          model->PredictProba(std::span<const double>(&grid[i], 2));
      EXPECT_GE(proba.size(), 2u) << what;
    }
  };
  std::mt19937_64 rng(20261018);
  for (const std::string& saved : SmallSavedModels()) {
    std::string mutant = saved;
    for (std::size_t at = 0; at < saved.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        mutant[at] = static_cast<char>(saved[at] ^ (1 << bit));
        check(mutant, "byte " + std::to_string(at) + " bit " +
                          std::to_string(bit));
      }
      mutant[at] = saved[at];
    }
    for (int m = 0; m < 10000; ++m) {
      mutant = saved;
      const auto bytes = 2 + static_cast<int>(rng() % 7);
      for (int b = 0; b < bytes; ++b) {
        mutant[rng() % mutant.size()] = static_cast<char>(rng());
      }
      check(mutant, "mutant " + std::to_string(m));
    }
  }
  std::printf("model payload mutants: %zu refused, %zu decoded\n", refused,
              decoded);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(ModelParser, ModelOfAnotherClassCountIsRefusedAtLoad) {
  // A cross-row model scores a block as failing or not, and the pattern
  // model picks one of the three failure classes: a model file of another
  // class count decodes, but is refused at load, never at predict time.
  core::CrossRowPredictor crossrow(hbm::TopologyConfig{},
                                   LearnerKind::kRandomForest);
  core::PatternClassifier pattern(hbm::TopologyConfig{},
                                  LearnerKind::kRandomForest);
  const auto framed = [](const Stump& stump, std::size_t features,
                         const char* magic) {
    std::string payload;
    persist::BinaryWriter(payload).Var(features);
    payload += stump.Bytes();
    CloseFrame(payload, 0, magic, core::kModelFrameVersion);
    return payload;
  };
  const auto refusal = [](auto& model, const std::string& bytes) {
    std::istringstream in(bytes);
    try {
      model.LoadModel(in);
    } catch (const ParseError& e) {
      EXPECT_FALSE(model.trained());
      return std::string(e.what());
    }
    return std::string("loaded");
  };
  const std::size_t crossrow_features = crossrow.extractor().num_features();
  const std::size_t pattern_features = pattern.extractor().num_features();
  // A three-class forest stump: class 0 on the left, class 1 on the right.
  const auto three_class = [](std::size_t features) {
    return Stump{.classes = 3,
                 .tree_classes = 3,
                 .table = {1.0, 0.0, 0.0, 0.0, 1.0, 0.0},
                 .features = features};
  };

  EXPECT_EQ(refusal(crossrow, framed(Stump{.features = crossrow_features},
                                     crossrow_features,
                                     core::kCrossRowModelMagic)),
            "loaded");
  EXPECT_EQ(refusal(pattern, framed(three_class(pattern_features),
                                    pattern_features,
                                    core::kPatternModelMagic)),
            "loaded");

  core::CrossRowPredictor crossrow_rejected(hbm::TopologyConfig{},
                                            LearnerKind::kRandomForest);
  EXPECT_NE(refusal(crossrow_rejected,
                    framed(three_class(crossrow_features), crossrow_features,
                           core::kCrossRowModelMagic))
                .find("crossrow model: class count mismatch (model has 3, "
                      "predictor expects 2)"),
            std::string::npos);
  for (const bool booster : {false, true}) {
    SCOPED_TRACE(booster ? "booster" : "forest");
    core::PatternClassifier pattern_rejected(hbm::TopologyConfig{},
                                             LearnerKind::kRandomForest);
    EXPECT_NE(refusal(pattern_rejected,
                      framed(Stump{.booster = booster,
                                   .features = pattern_features},
                             pattern_features, core::kPatternModelMagic))
                  .find("pattern model: class count mismatch (model has 2, "
                        "predictor expects 3)"),
              std::string::npos);
  }
}

TEST(ModelParser, FramedModelWithOutOfRangeFeatureIsRejectedAtLoad) {
  core::CrossRowPredictor model(hbm::TopologyConfig{},
                                LearnerKind::kRandomForest);
  core::CrossRowPredictor rejected(hbm::TopologyConfig{},
                                   LearnerKind::kRandomForest);
  const std::size_t features = model.extractor().num_features();
  // The stump as a framed cross-row model, widened to the extractor's
  // features and splitting on `feature`.
  const auto framed = [&](std::size_t feature) {
    std::string payload;
    persist::BinaryWriter(payload).Var(features);
    payload += Stump{.split_tag = feature + 1, .features = features}.Bytes();
    CloseFrame(payload, 0, core::kCrossRowModelMagic, core::kModelFrameVersion);
    return payload;
  };

  std::istringstream last(framed(features - 1));
  EXPECT_NO_THROW(model.LoadModel(last));
  std::istringstream past(framed(features));
  EXPECT_THROW(rejected.LoadModel(past), ParseError);
  EXPECT_FALSE(rejected.trained());
}

}  // namespace
}  // namespace cordial::ml
