// Outcome collection for the online learning loop: turning served records
// into labelled training data.
//
// An OutcomeCollector taps the serving path (a FleetServer ActionSink or any
// per-record hook) and accumulates per-bank event histories plus the live
// decisions the engine took for them. A bank's outcome is *labelled* only in
// hindsight: once the bank has at least `min_uers` UER events and the label
// maturity horizon has elapsed since its first UER, the rule-based
// analysis::PatternLabeler assigns its ground-truth failure class and the
// bank moves into a bounded replay store. The replay store is what the
// ShadowTrainer retrains from — split deterministically into train and
// held-out sets by a hash of the bank key, so the challenger is never
// evaluated on banks it trained on.
//
// Concurrency: Record() is called from every shard's worker thread
// concurrently. Open banks are striped by SplitMix64(bank_key) % stripes,
// each stripe behind its own mutex — two workers contend only when their
// banks share a stripe. Harvest and snapshot take the stripe locks briefly
// and never block the hot path for long.
//
// Determinism: each bank's history and tallies are deterministic (a bank's
// records arrive on one shard in submission order), and the read-side view
// (SnapshotReplay) is sorted by bank key — so the training set, and
// everything downstream of it, is independent of thread interleaving while
// the replay store stays under its cap.
//
// The collector lives in memory only: a restarted daemon starts its replay
// store empty and relearns from the stream.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/labeler.hpp"
#include "core/engine.hpp"
#include "hbm/address.hpp"
#include "trace/error_log.hpp"

namespace cordial::learn {

struct CollectorConfig {
  /// Seconds after a bank's FIRST UER before its label is trusted (the
  /// label-maturity horizon): by then the failure pattern has unfolded
  /// enough for the hindsight labeler to read its shape.
  double label_maturity_s = 600.0;
  /// Banks with fewer UER events than this never mature — too little
  /// signal for a pattern label (3 = the classification trigger).
  std::size_t min_uers = 3;
  /// Events retained per open bank. Later events are counted but dropped
  /// (the outcome is marked truncated); bounds memory on noisy banks.
  std::size_t per_bank_event_cap = 512;
  /// Labelled outcomes retained in the replay store; harvesting past the
  /// cap evicts the oldest-harvested outcome (FIFO).
  std::size_t max_replay_banks = 4096;
  /// 1-in-N banks (by key hash) land in the held-out set the trainer
  /// evaluates on; the rest train. Must be >= 2.
  std::uint64_t holdout_modulus = 5;
  /// Lock stripes for the open-bank table. Must be >= 1.
  std::size_t stripes = 16;
};

/// One matured, hindsight-labelled bank: its (possibly truncated) event
/// history, the ground-truth class, and what serving did for it live.
struct LabelledOutcome {
  trace::BankHistory bank;
  hbm::FailureClass label = hbm::FailureClass::kScattered;
  bool truncated = false;  ///< per_bank_event_cap dropped later events
  // Live serving tallies, accumulated while the bank was open:
  std::size_t live_first_failures = 0;  ///< distinct UER rows observed
  std::size_t live_covered = 0;         ///< of those, already isolated
};

/// Collector-wide tallies (merged across stripes; exact under quiescence).
struct CollectorStats {
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped_cap = 0;  ///< over per_bank_event_cap
  std::uint64_t open_banks = 0;          ///< currently accumulating
  std::uint64_t matured_total = 0;       ///< outcomes ever harvested
  std::uint64_t evicted_total = 0;       ///< outcomes FIFO-evicted
  std::uint64_t replay_banks = 0;        ///< outcomes currently stored
};

class OutcomeCollector {
 public:
  explicit OutcomeCollector(const hbm::TopologyConfig& topology,
                            CollectorConfig config = {});

  /// Hot-path tap: absorb one served record and the actions the engine took
  /// for it. Thread-safe (striped); call from shard ActionSinks. Records
  /// for banks that already matured are ignored — one outcome per bank.
  void Record(const trace::MceRecord& record,
              const core::IsolationActions& actions);

  /// Move every open bank whose label has matured (>= min_uers UERs and
  /// first UER at least label_maturity_s before `now_s`) into the replay
  /// store, labelling it via the hindsight PatternLabeler. Returns how many
  /// matured. Thread-safe, but meant for the trainer thread.
  std::size_t HarvestMature(double now_s);

  /// Largest record time ever recorded (0 before any record) — the
  /// trainer's notion of "now" so maturity follows stream time, not wall
  /// time.
  double MaxTimeSeen() const;

  /// Deterministic view of the replay store, split into train and held-out
  /// outcomes by bank-key hash and sorted by bank key. The shared_ptrs keep
  /// outcomes alive across subsequent eviction.
  struct ReplaySplit {
    std::vector<std::shared_ptr<const LabelledOutcome>> train;
    std::vector<std::shared_ptr<const LabelledOutcome>> holdout;
  };
  ReplaySplit SnapshotReplay() const;

  /// Live classification mix: how often the serving engines classified a
  /// bank into each class (indexed by FailureClass). Feeds drift detection.
  std::array<std::uint64_t, 3> LiveClassMix() const;

  CollectorStats Stats() const;

  const CollectorConfig& config() const { return config_; }

  /// True iff the key's bank belongs to the held-out split.
  bool IsHoldoutKey(std::uint64_t bank_key) const;

 private:
  struct OpenBank {
    trace::BankHistory bank;
    std::size_t uer_events = 0;
    double first_uer_s = 0.0;
    bool has_uer = false;
    bool truncated = false;
    std::size_t live_first_failures = 0;
    std::size_t live_covered = 0;
  };
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, OpenBank> open;
    std::unordered_set<std::uint64_t> retired;  ///< matured keys, ignored
    double max_time_s = 0.0;
    std::uint64_t events_recorded = 0;
    std::uint64_t events_dropped_cap = 0;
    std::array<std::uint64_t, 3> live_class_mix{};
  };

  Stripe& StripeOf(std::uint64_t bank_key);
  const Stripe& StripeOf(std::uint64_t bank_key) const;

  hbm::AddressCodec codec_;
  analysis::PatternLabeler labeler_;
  CollectorConfig config_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  /// Replay store: matured outcomes in harvest order (FIFO eviction).
  mutable std::mutex replay_mutex_;
  std::vector<std::shared_ptr<const LabelledOutcome>> replay_;
  std::uint64_t matured_total_ = 0;
  std::uint64_t evicted_total_ = 0;
};

}  // namespace cordial::learn
