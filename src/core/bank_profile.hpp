// Incremental per-bank error-state accumulator (the online engine's core).
//
// A BankProfile ingests a bank's MCE records one at a time (non-decreasing
// timestamps) and maintains, in O(log d) per event and O(d) memory (d =
// distinct error rows), every spatial/temporal/count statistic the two
// feature extractors need:
//
//  * a CLASSIFICATION view — the history truncated at the `max_uers`-th UER
//    exactly as TruncateAtUer defines it (CE/UEO up to and including the
//    cutoff timestamp, UERs capped), maintained as a *live* accumulator plus
//    a *frozen* snapshot taken at each accepted UER. The snapshot-at-UER
//    construction preserves the batch path's left-to-right summation order,
//    so derived features are bit-identical to scanning the truncated events.
//    Only a bank with a UER is ever classified, so the view is allocated at
//    the bank's first UER. Before it, the live accumulator would have
//    absorbed exactly the cross-row view's records and the snapshot would
//    be empty, so both are derived when needed (the encoder, the first UER):
//    from the cross-row view plus two same-timestamp CE/UEO counters. A bank
//    without a UER holds no classification state.
//
//  * a CROSS-ROW view — untruncated running statistics over the full prefix:
//    per-type sorted distinct rows as u32 (window proximity and range counts
//    by binary search, comparing double(row) as the batch scans compare
//    their double rows), consecutive row-difference and inter-arrival
//    chains, row extrema, and the sorted gaps between distinct UER rows (so
//    EstimateRowStride's "smallest gap above the adjacency floor" is an
//    O(log d) query instead of a rescan).
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
  double first_uer_time = 0.0, last_uer_time = 0.0;
  std::vector<std::uint32_t> distinct_uer_rows;  ///< ascending, <= max_uers
  double ce_before_first_uer = 0.0, ueo_before_first_uer = 0.0;

  // Counts at the newest timestamp, for the strictly-before-first-UER
  // semantics of the density features.
  bool any_event = false;
  double last_time = 0.0;
  std::size_t ce_at_last_time = 0, ueo_at_last_time = 0;

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
  std::size_t event_count() const { return events_; }
  bool empty() const { return events_ == 0; }
  /// Timestamp of the newest observed record (only valid when !empty()).
  double last_time_s() const { return last_time_; }

  // --- classification (truncated) view -----------------------------------
  /// True once at least one UER has been accepted into the truncated view.
  bool HasClassificationView() const { return view_ != nullptr; }
  /// Time of the last accepted UER == TruncateAtUer(...).cutoff_s.
  double classification_cutoff_s() const;
  /// UER events in the truncated view == TruncateAtUer(...).uer_count.
  std::size_t classification_uer_count() const {
    return view_ != nullptr ? view_->uer_accepted : 0;
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

  /// Serialize every accumulator (engine-state and delta payloads): varint
  /// counts, sorted rows as first value plus gaps, doubles as raw bit
  /// patterns behind presence masks. A profile restored by LoadBinary
  /// continues absorbing events bit-identically to the original (the
  /// checkpoint/restore layer depends on this), and LoadBinary refuses any
  /// byte sequence SaveBinary would not write (ParseError). Before the
  /// first UER the classification view is written as derived, and
  /// LoadBinary refuses any other view without an accepted UER. It also
  /// refuses cross-row counts that contradict what Absorb keeps with them
  /// (all_count, the per-type row sets, the UER row extrema and first UER
  /// time, each DiffChain against the pushes that fed it), an event count
  /// other than the cross-row all_count, and a classification view with
  /// more CEs or UEOs than the cross-row counts or a distinct UER row the
  /// cross-row view lacks, naming the fields.
  /// uer_row_gaps is derived, so it is rebuilt on load.
  void SaveBinary(persist::BinaryWriter& out) const;
  static BankProfile LoadBinary(persist::BinaryReader& in);

  /// Refuse, through `in`, a decoded profile whose classification view
  /// contradicts its counts: accepted UERs other than min(UERs observed,
  /// depth), a capped flag other than (accepted == depth), a live or frozen
  /// UER count other than accepted, and in either view a DiffChain that
  /// disagrees with the events that fed it or UER row extrema other than
  /// the ends of its distinct UER rows. The engine's bank-blob decoder runs
  /// this after its own depth and clock checks.
  void CheckViewCounts(const persist::BinaryReader& in) const;

 private:
  /// The classification view of a bank that has seen a UER.
  struct ClassView {
    std::size_t uer_accepted = 0;  ///< UERs in the truncated view
    bool capped = false;           ///< reached max_uers accepted UERs
    double cutoff = 0.0;           ///< time of the last accepted UER
    ClassAccumulator live;    ///< all pre-cap events, in arrival order
    ClassAccumulator frozen;  ///< snapshot at the last accepted UER (+ ties)
  };

  /// The view as it stands before the first UER: `live` holds what
  /// crossrow_ holds plus the same-timestamp counters, the rest defaults.
  ClassView DerivedView() const;

  std::size_t max_uers_;
  std::size_t events_ = 0;
  double last_time_ = 0.0;
  /// CE/UEO records at the newest timestamp, kept only until the first
  /// UER: the part of the derived live accumulator crossrow_ lacks.
  std::size_t ce_at_last_time_ = 0, ueo_at_last_time_ = 0;
  std::unique_ptr<ClassView> view_;  ///< null until the first UER
  CrossRowAccumulator crossrow_;
};

}  // namespace cordial::core
