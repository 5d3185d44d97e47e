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

/// Absorb a UER into the UER side of the cross-row view.
void AbsorbUer(UerBlock& u, const trace::MceRecord& record) {
  const std::uint32_t row = record.address.row;
  u.uer_dt.Push(record.time_s, u.uer_count);
  u.uer_row_diff.Push(static_cast<double>(row), u.uer_count);
  ++u.uer_count;
  const std::size_t index = InsertDistinct(u.uer_rows, row);
  if (index == static_cast<std::size_t>(-1)) return;
  // Maintain the neighbour gaps: inserting between two existing rows
  // splits their gap in two.
  const bool has_prev = index > 0;
  const bool has_next = index + 1 < u.uer_rows.size();
  if (has_prev && has_next) {
    const std::uint32_t old_gap = u.uer_rows[index + 1] - u.uer_rows[index - 1];
    const auto it = std::lower_bound(u.uer_row_gaps.begin(),
                                     u.uer_row_gaps.end(), old_gap);
    CORDIAL_CHECK_MSG(it != u.uer_row_gaps.end() && *it == old_gap,
                      "UER gap bookkeeping out of sync");
    u.uer_row_gaps.erase(it);
  }
  if (has_prev) InsertGap(u.uer_row_gaps, row - u.uer_rows[index - 1]);
  if (has_next) InsertGap(u.uer_row_gaps, u.uer_rows[index + 1] - row);
}

}  // namespace

// --------------------------------------------------------- classification

void ClassAccumulator::Absorb(const trace::MceRecord& record,
                              std::size_t uer_events) {
  const double row = static_cast<double>(record.address.row);
  all_row_diff.Push(row, ce_total + ueo_total + uer_events);
  if (record.type == ErrorType::kCe) {
    if (ce_total == 0 || row < ce_row_min) ce_row_min = row;
    if (ce_total == 0 || row > ce_row_max) ce_row_max = row;
    ce_dt.Push(record.time_s, ce_total);
    ++ce_total;
  } else {
    if (ueo_total == 0 || row < ueo_row_min) ueo_row_min = row;
    if (ueo_total == 0 || row > ueo_row_max) ueo_row_max = row;
    ueo_dt.Push(record.time_s, ueo_total);
    ++ueo_total;
  }
}

// ------------------------------------------------------------ BankProfile

BankProfile::BankProfile(std::size_t max_uers) : max_uers_(max_uers) {
  CORDIAL_CHECK_MSG(max_uers_ >= 1, "must keep at least one UER");
}

BankProfile::BankProfile(const BankProfile& other)
    : max_uers_(other.max_uers_),
      ce_count_(other.ce_count_),
      ueo_count_(other.ueo_count_),
      ce_at_last_time_(other.ce_at_last_time_),
      ueo_at_last_time_(other.ueo_at_last_time_),
      all_row_diff_(other.all_row_diff_),
      ce_dt_(other.ce_dt_),
      ueo_dt_(other.ueo_dt_),
      last_event_time_(other.last_event_time_),
      ce_rows_(other.ce_rows_),
      ueo_rows_(other.ueo_rows_),
      uer_(other.uer_ != nullptr ? std::make_unique<UerBlock>(*other.uer_)
                                 : nullptr) {}

BankProfile& BankProfile::operator=(const BankProfile& other) {
  if (this != &other) *this = BankProfile(other);
  return *this;
}

void BankProfile::SnapshotCrossRow() {
  ClassAccumulator& view = uer_->view;
  view.ce_total = ce_count_;
  view.ueo_total = ueo_count_;
  std::tie(view.ce_row_min, view.ce_row_max) = RowEnds(ce_rows_);
  std::tie(view.ueo_row_min, view.ueo_row_max) = RowEnds(ueo_rows_);
  view.uer_row_diff = uer_->uer_row_diff;
  view.all_row_diff = all_row_diff_;
  view.ce_dt = ce_dt_;
  view.ueo_dt = ueo_dt_;
  view.uer_dt = uer_->uer_dt;
  view.last_uer_time = last_event_time_;
  view.distinct_uer_rows = uer_->uer_rows;
}

void BankProfile::Observe(const trace::MceRecord& record) {
  const double t = record.time_s;
  CORDIAL_CHECK_MSG(empty() || t >= last_event_time_,
                    "BankProfile requires non-decreasing timestamps");
  const bool tie = !empty() && t == last_event_time_;
  all_row_diff_.Push(static_cast<double>(record.address.row), event_count());
  last_event_time_ = t;

  if (record.type == ErrorType::kUer) {
    if (uer_ == nullptr) {
      // The first UER: its densities count the CEs and UEOs strictly
      // before its timestamp, so the run tied with it comes off.
      uer_ = std::make_unique<UerBlock>();
      uer_->first_uer_time = t;
      uer_->view.ce_before_first_uer =
          static_cast<double>(ce_count_ - (tie ? ce_at_last_time_ : 0));
      uer_->view.ueo_before_first_uer =
          static_cast<double>(ueo_count_ - (tie ? ueo_at_last_time_ : 0));
    }
    AbsorbUer(*uer_, record);
    // TruncateAtUer keeps the first max_uers UERs; later ones — including
    // same-timestamp ties with the cutoff — are outside the view.
    if (uer_->uer_count <= max_uers_) SnapshotCrossRow();
    return;
  }

  const bool ce = record.type == ErrorType::kCe;
  if (uer_ == nullptr) {
    if (!tie) {
      ce_at_last_time_ = 0;
      ueo_at_last_time_ = 0;
    }
    ++(ce ? ce_at_last_time_ : ueo_at_last_time_);
  }
  std::size_t& count = ce ? ce_count_ : ueo_count_;
  (ce ? ce_dt_ : ueo_dt_).Push(t, count);
  ++count;
  InsertDistinct(ce ? ce_rows_ : ueo_rows_, record.address.row);
  // CE/UEO: part of the truncated view iff time <= cutoff. The cutoff is
  // the newest accepted UER, so a record after it is in the view only as a
  // tie, until the next accepted UER's snapshot takes it in anyway.
  if (uer_ != nullptr && t == uer_->view.last_uer_time) {
    uer_->view.Absorb(record, classification_uer_count());
  }
}

void BankProfile::ObserveAll(const trace::BankHistory& bank) {
  for (const trace::MceRecord& record : bank.events) Observe(record);
}

const UerBlock& BankProfile::uer() const {
  static const UerBlock kBeforeFirstUer;
  return uer_ != nullptr ? *uer_ : kBeforeFirstUer;
}

double BankProfile::classification_cutoff_s() const {
  CORDIAL_CHECK_MSG(HasClassificationView(),
                    "classification cutoff requires a UER");
  return uer_->view.last_uer_time;
}

bool BankProfile::HasUerRow(std::uint32_t row) const {
  const std::vector<std::uint32_t>& rows = uer().uer_rows;
  return std::binary_search(rows.begin(), rows.end(), row);
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

/// A chain's sum, min, max and last; its count of pushes is its owner's.
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
  const auto fail = [&](const std::string& what) {
    in.Fail(std::string(view) + " " + chain_name + " " + what);
  };
  const auto carried = [&](const char* field, double value, const char* why) {
    if (std::bit_cast<std::uint64_t>(value) != 0) {
      fail(field + (" " + std::to_string(value)) + why);
    }
  };
  if (pushes < 2) {
    carried("sum", chain.sum, " with count 0");
    carried("min", chain.min, " with count 0");
    carried("max", chain.max, " with count 0");
  }
  if (pushes == 0) carried("last", chain.last, " without has_last");
  if (chain.min > chain.max) {
    fail("min " + std::to_string(chain.min) + " > max " +
         std::to_string(chain.max));
  }
  return chain;
}

/// Refuse, through `in`, a row set that Observe cannot leave beside its
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

/// Read the classification view of a profile with `ce` CEs, `ueo` UEOs and
/// the UER rows `uer_rows` in its cross-row view, whose truncated view
/// holds `uer_events` UERs.
ClassAccumulator ReadClassBinary(persist::BinaryReader& in, std::uint64_t ce,
                                 std::uint64_t ueo,
                                 const std::vector<std::uint32_t>& uer_rows,
                                 std::size_t uer_events) {
  constexpr std::string_view view = "classification view";
  ClassAccumulator acc;
  acc.ce_total = static_cast<std::size_t>(in.Var());
  acc.ueo_total = static_cast<std::size_t>(in.Var());
  CheckAtMost(in, "classification view ce_total", acc.ce_total, "ce_count",
              ce);
  CheckAtMost(in, "classification view ueo_total", acc.ueo_total, "ueo_count",
              ueo);
  in.MaskedF64({&acc.ce_row_min, &acc.ce_row_max, &acc.ueo_row_min,
                &acc.ueo_row_max, &acc.last_uer_time, &acc.ce_before_first_uer,
                &acc.ueo_before_first_uer});
  // Bounded by the cross-row counts, whose sum does not overflow.
  const std::size_t events = acc.ce_total + acc.ueo_total + uer_events;
  acc.uer_row_diff = ReadChainBinary(in, view, "uer_row_diff", uer_events);
  acc.all_row_diff = ReadChainBinary(in, view, "all_row_diff", events);
  acc.ce_dt = ReadChainBinary(in, view, "ce_dt", acc.ce_total);
  acc.ueo_dt = ReadChainBinary(in, view, "ueo_dt", acc.ueo_total);
  acc.uer_dt = ReadChainBinary(in, view, "uer_dt", uer_events);
  acc.distinct_uer_rows = in.AscendingU32();
  CheckRowCount(in, view, "distinct_uer_rows", acc.distinct_uer_rows,
                "uer_events", uer_events);
  if (!std::includes(uer_rows.begin(), uer_rows.end(),
                     acc.distinct_uer_rows.begin(),
                     acc.distinct_uer_rows.end())) {
    in.Fail("classification view's distinct_uer_rows are not a subset of "
            "the cross-row uer_rows");
  }
  return acc;
}

}  // namespace

void BankProfile::SaveBinary(persist::BinaryWriter& out) const {
  const UerBlock& u = uer();
  out.Var(max_uers_);
  out.Var(ce_count_);
  out.Var(ueo_count_);
  out.Var(u.uer_count);
  out.MaskedF64({u.first_uer_time, last_event_time_});
  WriteChainBinary(out, u.uer_row_diff);
  WriteChainBinary(out, all_row_diff_);
  WriteChainBinary(out, ce_dt_);
  WriteChainBinary(out, ueo_dt_);
  WriteChainBinary(out, u.uer_dt);
  out.AscendingU32(ce_rows_);
  out.AscendingU32(ueo_rows_);
  out.AscendingU32(u.uer_rows);
  if (uer_ == nullptr) {
    out.Var(ce_at_last_time_);
    out.Var(ueo_at_last_time_);
  } else {
    WriteClassBinary(out, uer_->view);
  }
}

BankProfile BankProfile::LoadBinary(persist::BinaryReader& in) {
  const std::uint64_t max_uers = in.Var();
  // The constructor CORDIAL_CHECKs max_uers >= 1; surface a corrupt value
  // as a ParseError so recovery's fail-closed path handles it.
  if (max_uers == 0) in.Fail("corrupt profile max_uers 0");
  BankProfile profile(static_cast<std::size_t>(max_uers));

  // The cross-row view as Observe leaves it: every record counts once in
  // its type's count, adds its row to its type's set and pushes its row
  // and time into the chains; the first UER time stays +0.0 until the
  // first UER.
  constexpr std::string_view view = "cross-row";
  const std::uint64_t ce = in.Var();
  const std::uint64_t ueo = in.Var();
  const std::uint64_t uer = in.Var();
  const std::uint64_t typed = ce + ueo;
  if (typed < ce || typed + uer < typed) {
    in.Fail("cross-row ce_count " + std::to_string(ce) + " + ueo_count " +
            std::to_string(ueo) + " + uer_count " + std::to_string(uer) +
            " overflows all_count");
  }
  profile.ce_count_ = static_cast<std::size_t>(ce);
  profile.ueo_count_ = static_cast<std::size_t>(ueo);
  double first_uer_time = 0.0;
  in.MaskedF64({&first_uer_time, &profile.last_event_time_});
  if (uer == 0 && std::bit_cast<std::uint64_t>(first_uer_time) != 0) {
    in.Fail("cross-row first_uer_time " + std::to_string(first_uer_time) +
            " is not +0.0 before the first UER");
  }
  const DiffChain uer_row_diff = ReadChainBinary(in, view, "uer_row_diff", uer);
  profile.all_row_diff_ =
      ReadChainBinary(in, view, "all_row_diff", typed + uer);
  profile.ce_dt_ = ReadChainBinary(in, view, "ce_dt", ce);
  profile.ueo_dt_ = ReadChainBinary(in, view, "ueo_dt", ueo);
  const DiffChain uer_dt = ReadChainBinary(in, view, "uer_dt", uer);
  profile.ce_rows_ = in.AscendingU32();
  profile.ueo_rows_ = in.AscendingU32();
  std::vector<std::uint32_t> uer_rows = in.AscendingU32();
  CheckRowCount(in, view, "ce_rows", profile.ce_rows_, "ce_count", ce);
  CheckRowCount(in, view, "ueo_rows", profile.ueo_rows_, "ueo_count", ueo);
  CheckRowCount(in, view, "uer_rows", uer_rows, "uer_count", uer);

  if (uer == 0) {
    // Before the first UER the UER chains and rows are checked empty
    // above, and the bank holds no block.
    const std::uint64_t ce_at = in.Var();
    const std::uint64_t ueo_at = in.Var();
    CheckAtMost(in, "same-timestamp CEs", ce_at, "ce_count", ce);
    CheckAtMost(in, "same-timestamp UEOs", ueo_at, "ueo_count", ueo);
    profile.ce_at_last_time_ = static_cast<std::size_t>(ce_at);
    profile.ueo_at_last_time_ = static_cast<std::size_t>(ueo_at);
    return profile;
  }
  auto block = std::make_unique<UerBlock>();
  block->uer_count = static_cast<std::size_t>(uer);
  block->uer_row_diff = uer_row_diff;
  block->uer_dt = uer_dt;
  block->first_uer_time = first_uer_time;
  block->view = ReadClassBinary(in, ce, ueo, uer_rows,
                                std::min(block->uer_count, profile.max_uers_));
  for (std::size_t i = 1; i < uer_rows.size(); ++i) {
    block->uer_row_gaps.push_back(uer_rows[i] - uer_rows[i - 1]);
  }
  std::sort(block->uer_row_gaps.begin(), block->uer_row_gaps.end());
  block->uer_rows = std::move(uer_rows);
  profile.uer_ = std::move(block);
  return profile;
}

}  // namespace cordial::core
