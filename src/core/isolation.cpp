#include "core/isolation.hpp"

#include <set>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "hbm/address.hpp"

namespace cordial::core {

using hbm::ErrorType;

IcrEvaluator::IcrEvaluator(const hbm::TopologyConfig& topology,
                           hbm::SparingBudget budget)
    : topology_(topology), budget_(budget) {
  topology_.Validate();
}

namespace {

/// Replay one bank's event stream, tallying coverage into `result`.
void ReplayBank(const trace::BankHistory& bank, IsolationStrategy& strategy,
                hbm::SparingLedger& ledger, IcrResult& result) {
  strategy.OnBankStart(bank);
  std::set<std::uint32_t> failed_rows;
  for (std::size_t i = 0; i < bank.events.size(); ++i) {
    const trace::MceRecord& r = bank.events[i];
    if (r.type == ErrorType::kUer && failed_rows.insert(r.address.row).second) {
      ++result.total_uer_rows;
      if (ledger.IsRowSpared(bank.bank_key, r.address.row)) {
        ++result.covered_rows;
      } else if (ledger.IsBankSpared(bank.bank_key)) {
        ++result.covered_by_bank_spare;
      }
    }
    strategy.OnEvent(bank, i, ledger);
  }
}

}  // namespace

IcrResult IcrEvaluator::Evaluate(
    const std::vector<const trace::BankHistory*>& banks,
    IsolationStrategy& strategy) const {
  for (const trace::BankHistory* bank : banks) {
    CORDIAL_CHECK_MSG(bank != nullptr, "null bank in evaluation set");
  }

  // Banks are independent replays: strategy state resets at OnBankStart and
  // the ledger's budgets are per bank key, so per-bank local ledgers summed
  // afterwards equal one shared ledger exactly. Strategies that cannot be
  // cloned (Clone() == nullptr) replay serially through the one instance.
  if (banks.size() > 1 && ThreadCount() > 1 && strategy.Clone() != nullptr) {
    const std::vector<IcrResult> per_bank = ParallelMap<IcrResult>(
        banks.size(), [&](std::size_t b) {
          const std::unique_ptr<IsolationStrategy> local = strategy.Clone();
          hbm::SparingLedger ledger(budget_);
          IcrResult r;
          ReplayBank(*banks[b], *local, ledger, r);
          r.rows_spared = ledger.rows_spared();
          r.banks_spared = ledger.banks_spared();
          r.sparing_cost = ledger.total_cost();
          return r;
        });
    IcrResult result;
    for (const IcrResult& r : per_bank) {
      result.covered_rows += r.covered_rows;
      result.covered_by_bank_spare += r.covered_by_bank_spare;
      result.total_uer_rows += r.total_uer_rows;
      result.rows_spared += r.rows_spared;
      result.banks_spared += r.banks_spared;
      result.sparing_cost += r.sparing_cost;
    }
    return result;
  }

  IcrResult result;
  hbm::SparingLedger ledger(budget_);
  for (const trace::BankHistory* bank : banks) {
    ReplayBank(*bank, strategy, ledger, result);
  }
  result.rows_spared = ledger.rows_spared();
  result.banks_spared = ledger.banks_spared();
  result.sparing_cost = ledger.total_cost();
  return result;
}

// ----------------------------------------------------------------- in-row

void InRowStrategy::OnEvent(const trace::BankHistory& bank,
                            std::size_t event_index,
                            hbm::SparingLedger& ledger) {
  const trace::MceRecord& r = bank.events[event_index];
  if (r.type == ErrorType::kUer) return;
  // A row that sheds correctable errors is predicted to fail in-row.
  ledger.TrySpareRow(bank.bank_key, r.address.row);
}

// ---------------------------------------------------------- neighbor rows

NeighborRowsStrategy::NeighborRowsStrategy(std::uint32_t adjacency,
                                           const hbm::TopologyConfig& topology)
    : adjacency_(adjacency), rows_per_bank_(topology.rows_per_bank) {
  CORDIAL_CHECK_MSG(adjacency_ > 0, "adjacency must be positive");
  CORDIAL_CHECK_MSG(rows_per_bank_ > 0, "topology must have rows");
}

void NeighborRowsStrategy::OnEvent(const trace::BankHistory& bank,
                                   std::size_t event_index,
                                   hbm::SparingLedger& ledger) {
  const trace::MceRecord& r = bank.events[event_index];
  if (r.type != ErrorType::kUer) return;
  const std::int64_t row = r.address.row;
  for (std::int64_t d = 1; d <= static_cast<std::int64_t>(adjacency_); ++d) {
    for (const std::int64_t neighbor : {row - d, row + d}) {
      if (neighbor < 0 || neighbor >= static_cast<std::int64_t>(rows_per_bank_)) {
        continue;
      }
      ledger.TrySpareRow(bank.bank_key, static_cast<std::uint32_t>(neighbor));
    }
  }
}

// ----------------------------------------------------------------- cordial

CordialStrategy::CordialStrategy(const PatternClassifier& classifier,
                                 const CrossRowPredictor& single_predictor,
                                 const CrossRowPredictor& double_predictor,
                                 CordialPolicyConfig config)
    : classifier_(classifier),
      single_predictor_(single_predictor),
      double_predictor_(double_predictor),
      config_(config),
      profile_(classifier.extractor().max_uers()) {
  CORDIAL_CHECK_MSG(classifier_.trained(), "classifier must be trained");
  CORDIAL_CHECK_MSG(single_predictor_.trained() && double_predictor_.trained(),
                    "cross-row predictors must be trained");
  CORDIAL_CHECK_MSG(
      single_predictor_.config().trigger_uers >=
          classifier_.extractor().max_uers(),
      "cross-row trigger must not precede the classification truncation");
}

void CordialStrategy::OnBankStart(const trace::BankHistory&) {
  profile_ = BankProfile(classifier_.extractor().max_uers());
  feed_cursor_ = 0;
}

void CordialStrategy::OnEvent(const trace::BankHistory& bank,
                              std::size_t event_index,
                              hbm::SparingLedger& ledger) {
  const trace::MceRecord& r = bank.events[event_index];

  // Absorb the whole same-timestamp group before deciding: the batch
  // extractors see every event with time <= the anchor time, including ones
  // recorded after the triggering event in the log, and the closed replay
  // history makes them available here. (The live engine, which has no such
  // lookahead, simply never sees the not-yet-arrived ties.)
  while (feed_cursor_ < bank.events.size() &&
         bank.events[feed_cursor_].time_s <= r.time_s) {
    profile_.Observe(bank.events[feed_cursor_]);
    ++feed_cursor_;
  }

  // The decision state lives in the profile's UER block; before the
  // bank's first UER there is nothing to decide.
  CordialBankState* state = profile_.cordial_state();
  if (state == nullptr) return;
  const IsolationActions actions =
      StepCordial(*state, profile_, r, classifier_, single_predictor_,
                  double_predictor_, config_);
  if (actions.bank_spare) ledger.TrySpareBank(bank.bank_key);
  for (const RowSpan& span : actions.predicted_spans) {
    for (std::uint32_t row = span.first; row <= span.last; ++row) {
      ledger.TrySpareRow(bank.bank_key, row);
    }
  }
}

}  // namespace cordial::core
