#include "learn/outcome_log.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace cordial::learn {

namespace {

/// Salt separating the holdout hash from the shard-routing hash: a bank's
/// shard must not correlate with its train/holdout side.
constexpr std::uint64_t kHoldoutSalt = 0x9d5cb1a9u;

}  // namespace

OutcomeCollector::OutcomeCollector(const hbm::TopologyConfig& topology,
                                   CollectorConfig config)
    : codec_(topology), labeler_(topology), config_(config) {
  CORDIAL_CHECK_MSG(config_.stripes >= 1, "collector needs >= 1 stripe");
  CORDIAL_CHECK_MSG(config_.holdout_modulus >= 2,
                    "holdout modulus must be >= 2 (1 would hold out all)");
  CORDIAL_CHECK_MSG(config_.per_bank_event_cap >= 1,
                    "per-bank event cap must be >= 1");
  CORDIAL_CHECK_MSG(config_.max_replay_banks >= 1,
                    "replay store must hold >= 1 bank");
  stripes_.reserve(config_.stripes);
  for (std::size_t s = 0; s < config_.stripes; ++s) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

OutcomeCollector::Stripe& OutcomeCollector::StripeOf(std::uint64_t bank_key) {
  std::uint64_t state = bank_key;
  return *stripes_[SplitMix64(state) % stripes_.size()];
}

const OutcomeCollector::Stripe& OutcomeCollector::StripeOf(
    std::uint64_t bank_key) const {
  std::uint64_t state = bank_key;
  return *stripes_[SplitMix64(state) % stripes_.size()];
}

bool OutcomeCollector::IsHoldoutKey(std::uint64_t bank_key) const {
  std::uint64_t state = bank_key ^ kHoldoutSalt;
  return SplitMix64(state) % config_.holdout_modulus == 0;
}

void OutcomeCollector::Record(const trace::MceRecord& record,
                              const core::IsolationActions& actions) {
  const std::uint64_t key = codec_.BankKey(record.address);
  Stripe& stripe = StripeOf(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  stripe.max_time_s = std::max(stripe.max_time_s, record.time_s);
  if (actions.classified_now) {
    ++stripe.live_class_mix[static_cast<std::size_t>(actions.bank_class)];
  }
  if (stripe.retired.contains(key)) return;  // one outcome per bank
  ++stripe.events_recorded;
  const auto [it, inserted] = stripe.open.try_emplace(key);
  OpenBank& open = it->second;
  if (inserted) open.bank.bank_key = key;
  if (record.type == hbm::ErrorType::kUer) {
    if (!open.has_uer) {
      open.has_uer = true;
      open.first_uer_s = record.time_s;
    }
    ++open.uer_events;
  }
  if (actions.first_failure) {
    ++open.live_first_failures;
    if (actions.covered()) ++open.live_covered;
  }
  if (open.bank.events.size() < config_.per_bank_event_cap) {
    open.bank.events.push_back(record);
  } else {
    open.truncated = true;
    ++stripe.events_dropped_cap;
  }
}

std::size_t OutcomeCollector::HarvestMature(double now_s) {
  std::vector<std::shared_ptr<const LabelledOutcome>> matured;
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    std::lock_guard<std::mutex> lock(stripe.mutex);
    for (auto it = stripe.open.begin(); it != stripe.open.end();) {
      OpenBank& open = it->second;
      if (!open.has_uer || open.uer_events < config_.min_uers ||
          now_s - open.first_uer_s < config_.label_maturity_s) {
        ++it;
        continue;
      }
      auto outcome = std::make_shared<LabelledOutcome>();
      outcome->bank = std::move(open.bank);
      outcome->label = labeler_.LabelClass(outcome->bank);
      outcome->truncated = open.truncated;
      outcome->live_first_failures = open.live_first_failures;
      outcome->live_covered = open.live_covered;
      matured.push_back(std::move(outcome));
      stripe.retired.insert(it->first);
      it = stripe.open.erase(it);
    }
  }
  if (matured.empty()) return 0;
  // Harvest order within one call is stripe/table order — nondeterministic
  // across runs. Sorting here keeps the replay store's FIFO order (and so
  // its eviction choices) deterministic per harvest batch.
  std::sort(matured.begin(), matured.end(),
            [](const auto& a, const auto& b) {
              return a->bank.bank_key < b->bank.bank_key;
            });
  std::lock_guard<std::mutex> lock(replay_mutex_);
  for (auto& outcome : matured) replay_.push_back(std::move(outcome));
  matured_total_ += matured.size();
  if (replay_.size() > config_.max_replay_banks) {
    const std::size_t excess = replay_.size() - config_.max_replay_banks;
    replay_.erase(replay_.begin(),
                  replay_.begin() + static_cast<std::ptrdiff_t>(excess));
    evicted_total_ += excess;
  }
  return matured.size();
}

double OutcomeCollector::MaxTimeSeen() const {
  double max_time = 0.0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    max_time = std::max(max_time, stripe->max_time_s);
  }
  return max_time;
}

OutcomeCollector::ReplaySplit OutcomeCollector::SnapshotReplay() const {
  std::vector<std::shared_ptr<const LabelledOutcome>> all;
  {
    std::lock_guard<std::mutex> lock(replay_mutex_);
    all = replay_;
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a->bank.bank_key < b->bank.bank_key;
  });
  ReplaySplit split;
  for (auto& outcome : all) {
    (IsHoldoutKey(outcome->bank.bank_key) ? split.holdout : split.train)
        .push_back(std::move(outcome));
  }
  return split;
}

std::array<std::uint64_t, 3> OutcomeCollector::LiveClassMix() const {
  std::array<std::uint64_t, 3> mix{};
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    for (std::size_t c = 0; c < mix.size(); ++c) {
      mix[c] += stripe->live_class_mix[c];
    }
  }
  return mix;
}

CollectorStats OutcomeCollector::Stats() const {
  CollectorStats stats;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    stats.events_recorded += stripe->events_recorded;
    stats.events_dropped_cap += stripe->events_dropped_cap;
    stats.open_banks += stripe->open.size();
  }
  std::lock_guard<std::mutex> lock(replay_mutex_);
  stats.matured_total = matured_total_;
  stats.evicted_total = evicted_total_;
  stats.replay_banks = replay_.size();
  return stats;
}

}  // namespace cordial::learn
