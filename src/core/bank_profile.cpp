#include "core/bank_profile.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "persist/binary_io.hpp"

namespace cordial::core {

using hbm::ErrorType;

namespace {

/// Insert `row` into a sorted distinct vector; returns the insertion index
/// or SIZE_MAX when the row was already present.
std::size_t InsertDistinct(std::vector<std::uint32_t>& sorted,
                           std::uint32_t row) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), row);
  if (it != sorted.end() && *it == row) return static_cast<std::size_t>(-1);
  const auto index = static_cast<std::size_t>(it - sorted.begin());
  sorted.insert(it, row);
  return index;
}

/// Insert `gap` into an ascending vector that keeps repeats.
void InsertGap(std::vector<std::uint32_t>& gaps, std::uint32_t gap) {
  gaps.insert(std::upper_bound(gaps.begin(), gaps.end(), gap), gap);
}

/// The extrema of a sorted distinct row set: its ends, or +0.0 when empty.
/// Rows are exact in double, so these are the bits a running min/max over
/// the same rows holds.
std::pair<double, double> RowEnds(const std::vector<std::uint32_t>& rows) {
  if (rows.empty()) return {0.0, 0.0};
  return {static_cast<double>(rows.front()), static_cast<double>(rows.back())};
}

}  // namespace

// --------------------------------------------------------- classification

void ClassAccumulator::Absorb(const trace::MceRecord& record) {
  const double row = static_cast<double>(record.address.row);
  all_row_diff.Push(row);
  if (record.type == ErrorType::kCe) {
    if (ce_total == 0 || row < ce_row_min) ce_row_min = row;
    if (ce_total == 0 || row > ce_row_max) ce_row_max = row;
    ++ce_total;
    ce_dt.Push(record.time_s);
  } else {
    if (ueo_total == 0 || row < ueo_row_min) ueo_row_min = row;
    if (ueo_total == 0 || row > ueo_row_max) ueo_row_max = row;
    ++ueo_total;
    ueo_dt.Push(record.time_s);
  }
}

// -------------------------------------------------------------- cross-row

void CrossRowAccumulator::Absorb(const trace::MceRecord& record) {
  const double row = static_cast<double>(record.address.row);
  const double t = record.time_s;
  ++all_count;
  all_row_diff.Push(row);
  last_event_time = t;
  switch (record.type) {
    case ErrorType::kCe:
      ++ce_count;
      ce_dt.Push(t);
      InsertDistinct(ce_rows, record.address.row);
      break;
    case ErrorType::kUeo:
      ++ueo_count;
      ueo_dt.Push(t);
      InsertDistinct(ueo_rows, record.address.row);
      break;
    case ErrorType::kUer: {
      if (uer_count == 0) first_uer_time = t;
      if (uer_count == 0 || row < uer_row_min) uer_row_min = row;
      if (uer_count == 0 || row > uer_row_max) uer_row_max = row;
      ++uer_count;
      uer_dt.Push(t);
      uer_row_diff.Push(row);
      const std::uint32_t row_u32 = record.address.row;
      const std::size_t index = InsertDistinct(uer_rows, row_u32);
      if (index != static_cast<std::size_t>(-1)) {
        // Maintain the neighbour gaps: inserting between two existing rows
        // splits their gap in two.
        const bool has_prev = index > 0;
        const bool has_next = index + 1 < uer_rows.size();
        if (has_prev && has_next) {
          const std::uint32_t old_gap =
              uer_rows[index + 1] - uer_rows[index - 1];
          const auto it = std::lower_bound(uer_row_gaps.begin(),
                                           uer_row_gaps.end(), old_gap);
          CORDIAL_CHECK_MSG(it != uer_row_gaps.end() && *it == old_gap,
                            "UER gap bookkeeping out of sync");
          uer_row_gaps.erase(it);
        }
        if (has_prev) InsertGap(uer_row_gaps, row_u32 - uer_rows[index - 1]);
        if (has_next) InsertGap(uer_row_gaps, uer_rows[index + 1] - row_u32);
      }
      break;
    }
  }
}

// ------------------------------------------------------------ BankProfile

BankProfile::BankProfile(std::size_t max_uers) : max_uers_(max_uers) {
  CORDIAL_CHECK_MSG(max_uers_ >= 1, "must keep at least one UER");
}

BankProfile::BankProfile(const BankProfile& other)
    : max_uers_(other.max_uers_),
      ce_at_last_time_(other.ce_at_last_time_),
      ueo_at_last_time_(other.ueo_at_last_time_),
      view_(other.view_ != nullptr
                ? std::make_unique<ClassAccumulator>(*other.view_)
                : nullptr),
      crossrow_(other.crossrow_) {}

BankProfile& BankProfile::operator=(const BankProfile& other) {
  if (this != &other) *this = BankProfile(other);
  return *this;
}

void BankProfile::SnapshotCrossRow() {
  ClassAccumulator& view = *view_;
  const CrossRowAccumulator& x = crossrow_;
  view.ce_total = x.ce_count;
  view.ueo_total = x.ueo_count;
  view.uer_events = x.uer_count;
  std::tie(view.ce_row_min, view.ce_row_max) = RowEnds(x.ce_rows);
  std::tie(view.ueo_row_min, view.ueo_row_max) = RowEnds(x.ueo_rows);
  view.uer_row_min = x.uer_row_min;
  view.uer_row_max = x.uer_row_max;
  view.uer_row_diff = x.uer_row_diff;
  view.all_row_diff = x.all_row_diff;
  view.ce_dt = x.ce_dt;
  view.ueo_dt = x.ueo_dt;
  view.uer_dt = x.uer_dt;
  view.first_uer_time = x.first_uer_time;
  view.last_uer_time = x.last_event_time;
  view.distinct_uer_rows = x.uer_rows;
}

void BankProfile::Observe(const trace::MceRecord& record) {
  CORDIAL_CHECK_MSG(
      crossrow_.all_count == 0 || record.time_s >= crossrow_.last_event_time,
      "BankProfile requires non-decreasing timestamps");
  const bool uer = record.type == ErrorType::kUer;
  if (view_ == nullptr) {
    const bool tie = crossrow_.all_count > 0 &&
                     record.time_s == crossrow_.last_event_time;
    if (uer) {
      // The first UER: its densities count the CEs and UEOs strictly
      // before its timestamp, so the run tied with it comes off.
      view_ = std::make_unique<ClassAccumulator>();
      view_->ce_before_first_uer = static_cast<double>(
          crossrow_.ce_count - (tie ? ce_at_last_time_ : 0));
      view_->ueo_before_first_uer = static_cast<double>(
          crossrow_.ueo_count - (tie ? ueo_at_last_time_ : 0));
    } else {
      if (!tie) {
        ce_at_last_time_ = 0;
        ueo_at_last_time_ = 0;
      }
      ++(record.type == ErrorType::kCe ? ce_at_last_time_ : ueo_at_last_time_);
    }
  }
  crossrow_.Absorb(record);
  if (view_ == nullptr) return;

  if (uer) {
    // TruncateAtUer keeps the first max_uers UERs; later ones — including
    // same-timestamp ties with the cutoff — are outside the view.
    if (crossrow_.uer_count <= max_uers_) SnapshotCrossRow();
    return;
  }
  // CE/UEO: part of the truncated view iff time <= cutoff. The cutoff is
  // the newest accepted UER, so a record after it is in the view only as a
  // tie, until the next accepted UER's snapshot takes it in anyway.
  if (record.time_s == view_->last_uer_time) view_->Absorb(record);
}

void BankProfile::ObserveAll(const trace::BankHistory& bank) {
  for (const trace::MceRecord& record : bank.events) Observe(record);
}

double BankProfile::classification_cutoff_s() const {
  CORDIAL_CHECK_MSG(HasClassificationView(),
                    "classification cutoff requires a UER");
  return view_->last_uer_time;
}

const ClassAccumulator& BankProfile::classification() const {
  static const ClassAccumulator kBeforeFirstUer;
  return view_ != nullptr ? *view_ : kBeforeFirstUer;
}

bool BankProfile::HasUerRow(std::uint32_t row) const {
  return std::binary_search(crossrow_.uer_rows.begin(),
                            crossrow_.uer_rows.end(), row);
}

// ---------------------------------------------------------- serialization

namespace {

// Varint counts, rows as first value plus ascending gaps, doubles as raw
// bits behind presence masks (DESIGN.md §14). Nothing another field
// determines is written: the readers below recompute it.
//
// The checks run on every decoded blob, so they build a message only when
// they refuse: `view` names the accumulator ("cross-row", "classification
// view"), the other arguments its fields.

/// A chain's sum, min, max and last; its count and has_last follow from
/// the pushes that fed it.
void WriteChainBinary(persist::BinaryWriter& out, const DiffChain& chain) {
  out.MaskedF64({chain.sum, chain.min, chain.max, chain.last});
}

/// Read a chain that `pushes` calls of DiffChain::Push fed, refusing
/// through `in` fields those pushes cannot leave: sum, min and max stay
/// +0.0 until the first difference, and last until the first push; min
/// never exceeds max. The pushed rows are u32 and the pushed timestamps
/// finite (the ingest refuses any other), so no difference is NaN.
DiffChain ReadChainBinary(persist::BinaryReader& in, std::string_view view,
                          const char* chain_name, std::uint64_t pushes) {
  DiffChain chain;
  in.MaskedF64({&chain.sum, &chain.min, &chain.max, &chain.last});
  chain.has_last = pushes > 0;
  chain.count = static_cast<std::size_t>(pushes > 0 ? pushes - 1 : 0);
  const auto fail = [&](const std::string& what) {
    in.Fail(std::string(view) + " " + chain_name + " " + what);
  };
  const auto carried = [&](const char* field, double value, const char* why) {
    if (std::bit_cast<std::uint64_t>(value) != 0) {
      fail(field + (" " + std::to_string(value)) + why);
    }
  };
  if (chain.count == 0) {
    carried("sum", chain.sum, " with count 0");
    carried("min", chain.min, " with count 0");
    carried("max", chain.max, " with count 0");
  }
  if (!chain.has_last) carried("last", chain.last, " without has_last");
  if (chain.min > chain.max) {
    fail("min " + std::to_string(chain.min) + " > max " +
         std::to_string(chain.max));
  }
  return chain;
}

/// Refuse, through `in`, a row set that Absorb cannot leave beside its
/// count: the set is empty iff the count is 0, and holds no more rows than
/// the count.
void CheckRowCount(const persist::BinaryReader& in, std::string_view view,
                   const char* rows_name,
                   const std::vector<std::uint32_t>& rows,
                   const char* count_name, std::uint64_t count) {
  if (rows.empty() != (count == 0) || rows.size() > count) {
    in.Fail(std::string(view) + " " + rows_name + " holds " +
            std::to_string(rows.size()) + " row(s) for " + count_name + " " +
            std::to_string(count));
  }
}

/// Refuse, through `in`, a count above the cross-row count that bounds it:
/// every record the classification view holds went through the cross-row
/// view first, and a same-timestamp counter counts some of its records.
void CheckAtMost(const persist::BinaryReader& in, std::string_view what,
                 std::uint64_t count, const char* crossrow_field,
                 std::uint64_t crossrow_count) {
  if (count > crossrow_count) {
    in.Fail(std::string(what) + " " + std::to_string(count) + " > cross-row " +
            crossrow_field + " " + std::to_string(crossrow_count));
  }
}

void WriteCrossRowBinary(persist::BinaryWriter& out,
                         const CrossRowAccumulator& acc) {
  out.Var(acc.ce_count);
  out.Var(acc.ueo_count);
  out.Var(acc.uer_count);
  out.MaskedF64({acc.first_uer_time, acc.last_event_time});
  WriteChainBinary(out, acc.uer_row_diff);
  WriteChainBinary(out, acc.all_row_diff);
  WriteChainBinary(out, acc.ce_dt);
  WriteChainBinary(out, acc.ueo_dt);
  WriteChainBinary(out, acc.uer_dt);
  out.AscendingU32(acc.ce_rows);
  out.AscendingU32(acc.ueo_rows);
  out.AscendingU32(acc.uer_rows);
}

/// Read a cross-row view as CrossRowAccumulator::Absorb leaves it: every
/// record counts once in all_count and once in its type's count, adds its
/// row to its type's set and pushes its row and time into the chains; the
/// UER row extrema are the UER set's ends, and the first UER time stays
/// +0.0 until the first UER.
CrossRowAccumulator ReadCrossRowBinary(persist::BinaryReader& in) {
  constexpr std::string_view view = "cross-row";
  CrossRowAccumulator acc;
  const std::uint64_t ce = in.Var();
  const std::uint64_t ueo = in.Var();
  const std::uint64_t uer = in.Var();
  const std::uint64_t typed = ce + ueo;
  if (typed < ce || typed + uer < typed) {
    in.Fail("cross-row ce_count " + std::to_string(ce) + " + ueo_count " +
            std::to_string(ueo) + " + uer_count " + std::to_string(uer) +
            " overflows all_count");
  }
  acc.ce_count = static_cast<std::size_t>(ce);
  acc.ueo_count = static_cast<std::size_t>(ueo);
  acc.uer_count = static_cast<std::size_t>(uer);
  acc.all_count = static_cast<std::size_t>(typed + uer);
  in.MaskedF64({&acc.first_uer_time, &acc.last_event_time});
  if (uer == 0 && std::bit_cast<std::uint64_t>(acc.first_uer_time) != 0) {
    in.Fail("cross-row first_uer_time " + std::to_string(acc.first_uer_time) +
            " is not +0.0 before the first UER");
  }
  acc.uer_row_diff = ReadChainBinary(in, view, "uer_row_diff", uer);
  acc.all_row_diff = ReadChainBinary(in, view, "all_row_diff", acc.all_count);
  acc.ce_dt = ReadChainBinary(in, view, "ce_dt", ce);
  acc.ueo_dt = ReadChainBinary(in, view, "ueo_dt", ueo);
  acc.uer_dt = ReadChainBinary(in, view, "uer_dt", uer);
  acc.ce_rows = in.AscendingU32();
  acc.ueo_rows = in.AscendingU32();
  acc.uer_rows = in.AscendingU32();
  CheckRowCount(in, view, "ce_rows", acc.ce_rows, "ce_count", ce);
  CheckRowCount(in, view, "ueo_rows", acc.ueo_rows, "ueo_count", ueo);
  CheckRowCount(in, view, "uer_rows", acc.uer_rows, "uer_count", uer);
  std::tie(acc.uer_row_min, acc.uer_row_max) = RowEnds(acc.uer_rows);
  for (std::size_t i = 1; i < acc.uer_rows.size(); ++i) {
    acc.uer_row_gaps.push_back(acc.uer_rows[i] - acc.uer_rows[i - 1]);
  }
  std::sort(acc.uer_row_gaps.begin(), acc.uer_row_gaps.end());
  return acc;
}

void WriteClassBinary(persist::BinaryWriter& out, const ClassAccumulator& acc) {
  out.Var(acc.ce_total);
  out.Var(acc.ueo_total);
  out.MaskedF64({acc.ce_row_min, acc.ce_row_max, acc.ueo_row_min,
                 acc.ueo_row_max, acc.last_uer_time, acc.ce_before_first_uer,
                 acc.ueo_before_first_uer});
  WriteChainBinary(out, acc.uer_row_diff);
  WriteChainBinary(out, acc.all_row_diff);
  WriteChainBinary(out, acc.ce_dt);
  WriteChainBinary(out, acc.ueo_dt);
  WriteChainBinary(out, acc.uer_dt);
  out.AscendingU32(acc.distinct_uer_rows);
}

/// Read the classification view of a profile whose cross-row view is `x`
/// (at least one UER) and depth `max_uers`. The view holds the first
/// min(UERs, depth) UERs, the first UER time is the cross-row one, and the
/// UER row extrema are the ends of the distinct UER rows.
ClassAccumulator ReadClassBinary(persist::BinaryReader& in,
                                 const CrossRowAccumulator& x,
                                 std::size_t max_uers) {
  constexpr std::string_view view = "classification view";
  ClassAccumulator acc;
  acc.ce_total = static_cast<std::size_t>(in.Var());
  acc.ueo_total = static_cast<std::size_t>(in.Var());
  CheckAtMost(in, "classification view ce_total", acc.ce_total, "ce_count",
              x.ce_count);
  CheckAtMost(in, "classification view ueo_total", acc.ueo_total, "ueo_count",
              x.ueo_count);
  acc.uer_events = std::min(x.uer_count, max_uers);
  in.MaskedF64({&acc.ce_row_min, &acc.ce_row_max, &acc.ueo_row_min,
                &acc.ueo_row_max, &acc.last_uer_time, &acc.ce_before_first_uer,
                &acc.ueo_before_first_uer});
  // Bounded by the cross-row counts, whose sum does not overflow.
  const std::size_t events = acc.ce_total + acc.ueo_total + acc.uer_events;
  acc.uer_row_diff = ReadChainBinary(in, view, "uer_row_diff", acc.uer_events);
  acc.all_row_diff = ReadChainBinary(in, view, "all_row_diff", events);
  acc.ce_dt = ReadChainBinary(in, view, "ce_dt", acc.ce_total);
  acc.ueo_dt = ReadChainBinary(in, view, "ueo_dt", acc.ueo_total);
  acc.uer_dt = ReadChainBinary(in, view, "uer_dt", acc.uer_events);
  acc.distinct_uer_rows = in.AscendingU32();
  CheckRowCount(in, view, "distinct_uer_rows", acc.distinct_uer_rows,
                "uer_events", acc.uer_events);
  if (!std::includes(x.uer_rows.begin(), x.uer_rows.end(),
                     acc.distinct_uer_rows.begin(),
                     acc.distinct_uer_rows.end())) {
    in.Fail("classification view's distinct_uer_rows are not a subset of "
            "the cross-row uer_rows");
  }
  std::tie(acc.uer_row_min, acc.uer_row_max) = RowEnds(acc.distinct_uer_rows);
  acc.first_uer_time = x.first_uer_time;
  return acc;
}

}  // namespace

void BankProfile::SaveBinary(persist::BinaryWriter& out) const {
  out.Var(max_uers_);
  WriteCrossRowBinary(out, crossrow_);
  if (view_ == nullptr) {
    out.Var(ce_at_last_time_);
    out.Var(ueo_at_last_time_);
  } else {
    WriteClassBinary(out, *view_);
  }
}

BankProfile BankProfile::LoadBinary(persist::BinaryReader& in) {
  const std::uint64_t max_uers = in.Var();
  // The constructor CORDIAL_CHECKs max_uers >= 1; surface a corrupt value
  // as a ParseError so recovery's fail-closed path handles it.
  if (max_uers == 0) in.Fail("corrupt profile max_uers 0");
  BankProfile profile(static_cast<std::size_t>(max_uers));
  profile.crossrow_ = ReadCrossRowBinary(in);
  const CrossRowAccumulator& x = profile.crossrow_;
  if (x.uer_count > 0) {
    profile.view_ = std::make_unique<ClassAccumulator>(
        ReadClassBinary(in, x, profile.max_uers_));
    return profile;
  }
  const std::uint64_t ce_at = in.Var();
  const std::uint64_t ueo_at = in.Var();
  CheckAtMost(in, "same-timestamp CEs", ce_at, "ce_count", x.ce_count);
  CheckAtMost(in, "same-timestamp UEOs", ueo_at, "ueo_count", x.ueo_count);
  profile.ce_at_last_time_ = static_cast<std::size_t>(ce_at);
  profile.ueo_at_last_time_ = static_cast<std::size_t>(ueo_at);
  return profile;
}

}  // namespace cordial::core
