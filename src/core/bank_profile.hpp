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
//    chains, row extrema, and the sorted gaps between distinct UER rows (so
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
//    the truncated events. Only a bank with a UER is ever classified, so the
//    view is allocated at the bank's first UER, which also fixes its two
//    first-UER densities from the cross-row counts and two same-timestamp
//    CE/UEO counters kept until then. A bank without a UER holds no
//    classification state.
//
// Feeding a profile the prefix of events with time <= t reproduces, bit for
// bit, what the batch extractors compute from a BankHistory scanned up to t;
// tests/core/bank_profile_test.cpp pins this property against reference
// implementations of the pre-refactor scans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

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
/// reduction.
struct DiffChain {
  std::size_t count = 0;  ///< number of differences (pushes - 1, if any)
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_last = false;
  double last = 0.0;

  void Push(double value) {
    if (has_last) {
      const double d = value >= last ? value - last : last - value;
      if (count == 0 || d < min) min = d;
      if (count == 0 || d > max) max = d;
      sum += d;
      ++count;
    }
    has_last = true;
    last = value;
  }
};

/// Statistics of the truncated (classification) view. Cheap to copy: the
/// only dynamic member is the distinct-UER-row vector, capped at max_uers.
struct ClassAccumulator {
  std::size_t ce_total = 0, ueo_total = 0, uer_events = 0;
  double ce_row_min = 0.0, ce_row_max = 0.0;
  double ueo_row_min = 0.0, ueo_row_max = 0.0;
  double uer_row_min = 0.0, uer_row_max = 0.0;
  DiffChain uer_row_diff, all_row_diff;  ///< rows, event order
  DiffChain ce_dt, ueo_dt, uer_dt;       ///< timestamps, per type
  double first_uer_time = 0.0;
  double last_uer_time = 0.0;  ///< the cutoff: the last accepted UER's time
  std::vector<std::uint32_t> distinct_uer_rows;  ///< ascending, <= max_uers
  double ce_before_first_uer = 0.0, ueo_before_first_uer = 0.0;

  /// Absorb a CE or UEO record (never a UER) tied with last_uer_time.
  void Absorb(const trace::MceRecord& record);
};

/// Untruncated running statistics over the full event prefix.
struct CrossRowAccumulator {
  std::size_t ce_count = 0, ueo_count = 0, uer_count = 0, all_count = 0;
  DiffChain uer_row_diff, all_row_diff;
  DiffChain ce_dt, ueo_dt, uer_dt;
  double uer_row_min = 0.0, uer_row_max = 0.0;
  double first_uer_time = 0.0;
  double last_event_time = 0.0;
  std::vector<std::uint32_t> ce_rows, ueo_rows, uer_rows;  ///< sorted distinct
  /// Gaps between neighbouring distinct UER rows, ascending with repeats.
  std::vector<std::uint32_t> uer_row_gaps;

  void Absorb(const trace::MceRecord& record);

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
  std::size_t event_count() const { return crossrow_.all_count; }
  bool empty() const { return crossrow_.all_count == 0; }
  /// Timestamp of the newest observed record (only valid when !empty()).
  double last_time_s() const { return crossrow_.last_event_time; }

  // --- classification (truncated) view -----------------------------------
  /// True once at least one UER has been accepted into the truncated view.
  bool HasClassificationView() const { return view_ != nullptr; }
  /// Time of the last accepted UER == TruncateAtUer(...).cutoff_s.
  double classification_cutoff_s() const;
  /// UER events in the truncated view == TruncateAtUer(...).uer_count.
  std::size_t classification_uer_count() const {
    return view_ != nullptr ? view_->uer_events : 0;
  }
  /// The truncated view's statistics (all defaults before the first UER).
  const ClassAccumulator& classification() const;

  // --- cross-row (untruncated) view --------------------------------------
  const CrossRowAccumulator& crossrow() const { return crossrow_; }
  /// Total UER events observed (untruncated).
  std::size_t uer_event_count() const { return crossrow_.uer_count; }
  std::size_t distinct_uer_row_count() const {
    return crossrow_.uer_rows.size();
  }
  /// Whether `row` has already shown a UER — O(log d).
  bool HasUerRow(std::uint32_t row) const;

  /// Serialize what no other field determines (engine-state and delta
  /// payloads, DESIGN.md §14): the depth, the cross-row view's per-type
  /// counts, first-UER and last-event times, chain sums/extrema/lasts and
  /// row sets, then before the first UER the two same-timestamp counters
  /// and after it the classification view without the fields the cross-row
  /// view and the depth determine. Counts are varints, sorted rows first
  /// value plus gaps, doubles raw bit patterns behind presence masks. A
  /// profile restored by LoadBinary continues absorbing events
  /// bit-identically to the original (the checkpoint/restore layer depends
  /// on this).
  void SaveBinary(persist::BinaryWriter& out) const;

  /// Decode SaveBinary's bytes and recompute what they leave out: the
  /// cross-row all_count, UER row extrema and gaps, every chain's count and
  /// has_last, and the view's presence, UER count (min(UERs, depth)), UER
  /// row extrema and first UER time. Refuses (ParseError, naming the field)
  /// depth 0, type counts whose sum overflows, a row set that is empty
  /// other than when its count is 0 or holds more rows than it, a first
  /// UER time other than +0.0 before the first UER, a chain with sum, min
  /// or max other than +0.0 before its first difference, last other than
  /// +0.0 before its first push, or min above max, a same-timestamp
  /// counter above its type's count, and a classification view with more
  /// CEs or UEOs than the cross-row view or a distinct UER row it lacks.
  static BankProfile LoadBinary(persist::BinaryReader& in);

 private:
  /// Set the view to the cross-row view as it stands: every record so far
  /// is in the truncated view. The first-UER densities are kept.
  void SnapshotCrossRow();

  std::size_t max_uers_;
  /// CE/UEO records at the newest timestamp, kept only until the first
  /// UER, whose densities count the records strictly before it.
  std::size_t ce_at_last_time_ = 0, ueo_at_last_time_ = 0;
  std::unique_ptr<ClassAccumulator> view_;  ///< null until the first UER
  CrossRowAccumulator crossrow_;
};

}  // namespace cordial::core
