// Isolation strategies and the Isolation Coverage Rate evaluator (§V-A).
//
// ICR measures the proportion of UER rows that were already isolated when
// they first failed — i.e. failures that deployment would have prevented.
// The evaluator replays each bank's event stream in time order and lets a
// strategy spend sparing resources after every observed event, with no
// lookahead; a row counts as covered iff it was isolated strictly before
// its first UER.
//
// Strategies provided:
//   * InRowStrategy        — the traditional paradigm: a row is isolated
//                            once it shows a CE/UEO (its ICR ceiling is the
//                            non-sudden row ratio, 4.39% in the paper).
//   * NeighborRowsStrategy — the industrial baseline of Table IV: isolate
//                            the 8 rows adjacent to every observed UER row.
//   * CordialStrategy      — the paper's method: classify the bank at the
//                            3rd UER, then cross-row-predict blocks in the
//                            ±64-row window at every further UER; scattered
//                            banks are bank-spared (not counted in ICR, as
//                            that coverage does not come from cross-row
//                            prediction).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/crossrow.hpp"
#include "core/engine.hpp"
#include "core/pattern_classifier.hpp"
#include "hbm/sparing.hpp"
#include "trace/error_log.hpp"

namespace cordial::core {

class IsolationStrategy {
 public:
  virtual ~IsolationStrategy() = default;

  /// Reset per-bank state.
  virtual void OnBankStart(const trace::BankHistory& bank) = 0;

  /// Observe event `event_index` of `bank` (in time order) and optionally
  /// isolate rows/banks via `ledger`. Must not inspect later events.
  virtual void OnEvent(const trace::BankHistory& bank,
                       std::size_t event_index,
                       hbm::SparingLedger& ledger) = 0;

  /// Copy of this strategy's configuration (per-bank replay state need not
  /// be carried over — OnBankStart resets it). The evaluator replays banks
  /// in parallel through independent clones; the default of nullptr opts a
  /// strategy out, falling back to a serial single-instance replay.
  virtual std::unique_ptr<IsolationStrategy> Clone() const { return nullptr; }

  virtual const std::string& name() const = 0;
};

struct IcrResult {
  std::uint64_t covered_rows = 0;  ///< first failure hit an isolated row
  std::uint64_t covered_by_bank_spare = 0;
  std::uint64_t total_uer_rows = 0;
  std::uint64_t rows_spared = 0;
  std::uint64_t banks_spared = 0;
  double sparing_cost = 0.0;

  /// The paper's ICR: cross-row/row-level coverage only.
  double Icr() const {
    return total_uer_rows == 0
               ? 0.0
               : static_cast<double>(covered_rows) /
                     static_cast<double>(total_uer_rows);
  }
  /// Extension metric: counting bank-sparing coverage too.
  double IcrWithBankSparing() const {
    return total_uer_rows == 0
               ? 0.0
               : static_cast<double>(covered_rows + covered_by_bank_spare) /
                     static_cast<double>(total_uer_rows);
  }
};

class IcrEvaluator {
 public:
  IcrEvaluator(const hbm::TopologyConfig& topology,
               hbm::SparingBudget budget = {});

  /// Replay `banks` under `strategy`. Denominator: every distinct UER row
  /// in every bank (first UERs included — they are never predictable).
  IcrResult Evaluate(const std::vector<const trace::BankHistory*>& banks,
                     IsolationStrategy& strategy) const;

 private:
  hbm::TopologyConfig topology_;
  hbm::SparingBudget budget_;
};

// ------------------------------------------------------------- strategies

class InRowStrategy final : public IsolationStrategy {
 public:
  void OnBankStart(const trace::BankHistory&) override {}
  void OnEvent(const trace::BankHistory& bank, std::size_t event_index,
               hbm::SparingLedger& ledger) override;
  std::unique_ptr<IsolationStrategy> Clone() const override {
    return std::make_unique<InRowStrategy>(*this);
  }
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "In-row";
};

class NeighborRowsStrategy final : public IsolationStrategy {
 public:
  /// Row bounds come from the deployment topology — no hardcoded bank
  /// geometry.
  NeighborRowsStrategy(std::uint32_t adjacency,
                       const hbm::TopologyConfig& topology);
  void OnBankStart(const trace::BankHistory&) override {}
  void OnEvent(const trace::BankHistory& bank, std::size_t event_index,
               hbm::SparingLedger& ledger) override;
  std::unique_ptr<IsolationStrategy> Clone() const override {
    return std::make_unique<NeighborRowsStrategy>(*this);
  }
  const std::string& name() const override { return name_; }

 private:
  std::uint32_t adjacency_;
  std::uint32_t rows_per_bank_;
  std::string name_ = "Neighbor Rows";
};

class CordialStrategy final : public IsolationStrategy {
 public:
  /// All referenced components must outlive the strategy and be trained.
  CordialStrategy(const PatternClassifier& classifier,
                  const CrossRowPredictor& single_predictor,
                  const CrossRowPredictor& double_predictor,
                  CordialPolicyConfig config = {});

  void OnBankStart(const trace::BankHistory& bank) override;
  void OnEvent(const trace::BankHistory& bank, std::size_t event_index,
               hbm::SparingLedger& ledger) override;
  std::unique_ptr<IsolationStrategy> Clone() const override {
    return std::make_unique<CordialStrategy>(*this);
  }
  const std::string& name() const override { return name_; }

 private:
  const PatternClassifier& classifier_;
  const CrossRowPredictor& single_predictor_;
  const CrossRowPredictor& double_predictor_;
  CordialPolicyConfig config_;
  std::string name_ = "Cordial";

  // Per-bank replay state: an incrementally maintained profile, whose UER
  // block carries the Cordial decision state (decisions delegate to
  // StepCordial, the same code path PredictionEngine runs live). The feed
  // cursor absorbs whole same-timestamp groups before each decision,
  // matching the batch extractors' closed-history tie semantics.
  BankProfile profile_;
  std::size_t feed_cursor_ = 0;
};

}  // namespace cordial::core
