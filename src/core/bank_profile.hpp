// Incremental per-bank error-state accumulator (the online engine's core).
//
// A BankProfile ingests a bank's MCE records one at a time (non-decreasing
// timestamps) and maintains, in O(log d) per event and O(d) memory (d =
// distinct error rows), every spatial/temporal/count statistic the two
// feature extractors need:
//
//  * a CROSS-ROW view — untruncated running statistics over the full prefix:
//    per-type sorted distinct rows as u32 (window proximity and range counts
//    by binary search, comparing double(row) as the batch scans compare
//    their double rows), consecutive row-difference and inter-arrival
//    chains, and the sorted gaps between distinct UER rows (so
//    EstimateRowStride's "smallest gap above the adjacency floor" is an
//    O(log d) query instead of a rescan).
//
//  * a CLASSIFICATION view — the history truncated at the `max_uers`-th UER
//    exactly as TruncateAtUer defines it (CE/UEO up to and including the
//    cutoff timestamp, UERs capped). Until the cap every record is in the
//    truncated view, so at each accepted UER the view is a snapshot of the
//    cross-row view; after it, the view absorbs only the CEs and UEOs tied
//    with its cutoff. The snapshot carries the cross-row view's
//    left-to-right sums, so derived features are bit-identical to scanning
//    the truncated events.
//
// Only a bank with a UER is ever classified or predicted for, and most
// banks never see one. So a profile holds the CE/UEO side of the cross-row
// view itself, and one UerBlock, allocated at the bank's first UER, holds
// everything else: the UER side of the cross-row view, the classification
// view and the Cordial decision state. Before that UER the profile keeps
// two same-timestamp CE/UEO counters, from which the block's first-UER
// densities are fixed. Nothing another field determines is stored: a
// chain's difference count is its type's record count less one, the record
// count is the sum of the type counts, row extrema are the ends of the
// sorted row sets, and the view's UER count and first UER time follow from
// the cross-row view and the depth.
//
// Feeding a profile the prefix of events with time <= t reproduces, bit for
// bit, what the batch extractors compute from a BankHistory scanned up to t;
// tests/core/bank_profile_test.cpp pins this property against reference
// implementations of the pre-refactor scans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hbm/fault.hpp"
#include "trace/error_log.hpp"

namespace cordial::persist {
class BinaryWriter;
class BinaryReader;
}  // namespace cordial::persist

namespace cordial::core {

/// Running min/max/sum over consecutive absolute differences of a pushed
/// sequence, matching Summarize(ConsecutiveAbsDiffs(values)) of the batch
/// extractors: `min`/`max` compare with `<`/`>` in push order and `sum`
/// accumulates left to right, so queries are bit-identical to the batch
/// reduction. The chain does not count its pushes: its owner's record
/// count does, so Push takes it and a reader divides by it less one.
struct DiffChain {
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double last = 0.0;  ///< the newest pushed value, +0.0 before the first

  /// Push `value` after `pushed` earlier values.
  void Push(double value, std::size_t pushed) {
    if (pushed > 0) {
      const double d = value >= last ? value - last : last - value;
      if (pushed == 1 || d < min) min = d;
      if (pushed == 1 || d > max) max = d;
      sum += d;
    }
    last = value;
  }
};

/// The extrema of a sorted distinct row set: its ends, or +0.0 when empty.
/// Rows are exact in double, so these are the bits a running min/max over
/// the same rows holds.
inline std::pair<double, double> RowEnds(
    const std::vector<std::uint32_t>& rows) {
  if (rows.empty()) return {0.0, 0.0};
  return {static_cast<double>(rows.front()), static_cast<double>(rows.back())};
}

/// Per-bank Cordial decision state, advanced one UER event at a time by
/// StepCordial (core/engine.hpp).
struct CordialBankState {
  std::size_t uer_events_seen = 0;
  std::size_t anchors_used = 0;
  bool classified = false;
  hbm::FailureClass bank_class = hbm::FailureClass::kScattered;
  std::int64_t last_anchor_row = -1;
};

/// The classification (truncated) view's own fields. Its UER count is
/// BankProfile::classification_uer_count(), its first UER time the
/// cross-row one and its UER row extrema the ends of distinct_uer_rows.
/// Each chain has pushed its type's count of the view's records, and
/// all_row_diff every one of them. Cheap to copy: the only dynamic member
/// is the distinct-UER-row vector, capped at max_uers.
struct ClassAccumulator {
  std::size_t ce_total = 0, ueo_total = 0;
  double ce_row_min = 0.0, ce_row_max = 0.0;
  double ueo_row_min = 0.0, ueo_row_max = 0.0;
  DiffChain uer_row_diff, all_row_diff;  ///< rows, event order
  DiffChain ce_dt, ueo_dt, uer_dt;       ///< timestamps, per type
  double last_uer_time = 0.0;  ///< the cutoff: the last accepted UER's time
  std::vector<std::uint32_t> distinct_uer_rows;  ///< ascending, <= max_uers
  double ce_before_first_uer = 0.0, ueo_before_first_uer = 0.0;

  /// Absorb a CE or UEO record (never a UER) tied with last_uer_time into
  /// a view holding `uer_events` UERs.
  void Absorb(const trace::MceRecord& record, std::size_t uer_events);
};

/// What a bank holds from its first UER on, in one allocation.
struct UerBlock {
  // The UER side of the cross-row view.
  std::size_t uer_count = 0;
  DiffChain uer_row_diff, uer_dt;
  double first_uer_time = 0.0;
  std::vector<std::uint32_t> uer_rows;  ///< sorted distinct
  /// Gaps between neighbouring distinct UER rows, ascending with repeats.
  std::vector<std::uint32_t> uer_row_gaps;
  /// StepCordial's state, which it advances only on UERs. The profile
  /// itself never reads it.
  CordialBankState cordial;
  ClassAccumulator view;

  /// EstimateRowStride over the distinct UER rows: the smallest gap above
  /// `adjacency_floor`, or 0 when none exists. O(log d).
  std::uint32_t EstimatedUerStride(std::uint32_t adjacency_floor = 4) const {
    const auto it = std::upper_bound(uer_row_gaps.begin(), uer_row_gaps.end(),
                                     adjacency_floor);
    return it == uer_row_gaps.end() ? 0 : *it;
  }
};

class BankProfile {
 public:
  explicit BankProfile(std::size_t max_uers = 3);
  BankProfile(const BankProfile& other);
  BankProfile& operator=(const BankProfile& other);
  BankProfile(BankProfile&&) noexcept = default;
  BankProfile& operator=(BankProfile&&) noexcept = default;

  /// Ingest one record. Records must arrive in non-decreasing time order.
  void Observe(const trace::MceRecord& record);
  /// Feed an entire (time-sorted) history.
  void ObserveAll(const trace::BankHistory& bank);

  std::size_t max_uers() const { return max_uers_; }

  // --- cross-row (untruncated) view --------------------------------------
  std::size_t ce_count() const { return ce_count_; }
  std::size_t ueo_count() const { return ueo_count_; }
  /// Total UER events observed (untruncated).
  std::size_t uer_event_count() const {
    return uer_ != nullptr ? uer_->uer_count : 0;
  }
  std::size_t event_count() const {
    return ce_count_ + ueo_count_ + uer_event_count();
  }
  bool empty() const { return event_count() == 0; }
  /// Timestamp of the newest observed record (only valid when !empty()).
  double last_time_s() const { return last_event_time_; }
  const std::vector<std::uint32_t>& ce_rows() const { return ce_rows_; }
  const std::vector<std::uint32_t>& ueo_rows() const { return ueo_rows_; }
  /// The chains over every record's row and each CE's and UEO's time; they
  /// pushed event_count(), ce_count() and ueo_count() values.
  const DiffChain& all_row_diff() const { return all_row_diff_; }
  const DiffChain& ce_dt() const { return ce_dt_; }
  const DiffChain& ueo_dt() const { return ueo_dt_; }
  /// The UER side: the bank's block, or an empty one before its first UER.
  const UerBlock& uer() const;
  /// Whether `row` has already shown a UER — O(log d).
  bool HasUerRow(std::uint32_t row) const;

  // --- classification (truncated) view -----------------------------------
  /// True once at least one UER has been accepted into the truncated view.
  bool HasClassificationView() const { return uer_ != nullptr; }
  /// Time of the last accepted UER == TruncateAtUer(...).cutoff_s.
  double classification_cutoff_s() const;
  /// UER events in the truncated view == TruncateAtUer(...).uer_count.
  std::size_t classification_uer_count() const {
    return std::min(uer_event_count(), max_uers_);
  }
  /// The truncated view's statistics (all defaults before the first UER).
  const ClassAccumulator& classification() const { return uer().view; }

  /// The bank's Cordial decision state, held in its UER block: null before
  /// the first UER, when StepCordial has nothing to decide.
  CordialBankState* cordial_state() {
    return uer_ != nullptr ? &uer_->cordial : nullptr;
  }

  /// Serialize what no other field determines (engine-state and delta
  /// payloads, DESIGN.md §14): the depth, the cross-row view's per-type
  /// counts, first-UER and last-event times, chain sums/extrema/lasts and
  /// row sets, then before the first UER the two same-timestamp counters
  /// and after it the classification view without the fields the cross-row
  /// view and the depth determine. The Cordial state is the caller's to
  /// write. Counts are varints, sorted rows first value plus gaps, doubles
  /// raw bit patterns behind presence masks. A profile restored by
  /// LoadBinary continues absorbing events bit-identically to the original
  /// (the checkpoint/restore layer depends on this).
  void SaveBinary(persist::BinaryWriter& out) const;

  /// Decode SaveBinary's bytes, allocating the UER block only for a bank
  /// with a UER, and recompute the UER row gaps (every other derived field
  /// is derived on read). Refuses (ParseError, naming the field) depth 0,
  /// type counts whose sum overflows, a row set that is empty other than
  /// when its count is 0 or holds more rows than it, a first UER time
  /// other than +0.0 before the first UER, a chain with sum, min or max
  /// other than +0.0 before its first difference, last other than +0.0
  /// before its first push, or min above max, a same-timestamp counter
  /// above its type's count, and a classification view with more CEs or
  /// UEOs than the cross-row view or a distinct UER row it lacks.
  static BankProfile LoadBinary(persist::BinaryReader& in);

 private:
  /// Set the view to the cross-row view as it stands: every record so far
  /// is in the truncated view. The first-UER densities are kept.
  void SnapshotCrossRow();

  std::size_t max_uers_;
  std::size_t ce_count_ = 0, ueo_count_ = 0;
  /// CE/UEO records at the newest timestamp, kept only until the first
  /// UER, whose densities count the records strictly before it.
  std::size_t ce_at_last_time_ = 0, ueo_at_last_time_ = 0;
  DiffChain all_row_diff_, ce_dt_, ueo_dt_;
  double last_event_time_ = 0.0;
  std::vector<std::uint32_t> ce_rows_, ueo_rows_;  ///< sorted distinct
  std::unique_ptr<UerBlock> uer_;  ///< null until the first UER
};

}  // namespace cordial::core
