#include "core/bank_profile.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>

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

}  // namespace

// --------------------------------------------------------- classification

void ClassAccumulator::Absorb(const trace::MceRecord& record) {
  const double row = static_cast<double>(record.address.row);
  const double t = record.time_s;
  if (!any_event || t != last_time) {
    ce_at_last_time = 0;
    ueo_at_last_time = 0;
  }
  all_row_diff.Push(row);
  switch (record.type) {
    case ErrorType::kCe:
      if (ce_total == 0 || row < ce_row_min) ce_row_min = row;
      if (ce_total == 0 || row > ce_row_max) ce_row_max = row;
      ++ce_total;
      ce_dt.Push(t);
      ++ce_at_last_time;
      break;
    case ErrorType::kUeo:
      if (ueo_total == 0 || row < ueo_row_min) ueo_row_min = row;
      if (ueo_total == 0 || row > ueo_row_max) ueo_row_max = row;
      ++ueo_total;
      ueo_dt.Push(t);
      ++ueo_at_last_time;
      break;
    case ErrorType::kUer:
      if (uer_events == 0) {
        first_uer_time = t;
        // Density before the first UER counts events STRICTLY before its
        // timestamp: subtract the same-timestamp run absorbed just above.
        const bool same = any_event && last_time == t;
        ce_before_first_uer =
            static_cast<double>(ce_total - (same ? ce_at_last_time : 0));
        ueo_before_first_uer =
            static_cast<double>(ueo_total - (same ? ueo_at_last_time : 0));
      }
      if (uer_events == 0 || row < uer_row_min) uer_row_min = row;
      if (uer_events == 0 || row > uer_row_max) uer_row_max = row;
      ++uer_events;
      last_uer_time = t;
      uer_row_diff.Push(row);
      uer_dt.Push(t);
      InsertDistinct(distinct_uer_rows, record.address.row);
      break;
  }
  any_event = true;
  last_time = t;
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
      events_(other.events_),
      last_time_(other.last_time_),
      ce_at_last_time_(other.ce_at_last_time_),
      ueo_at_last_time_(other.ueo_at_last_time_),
      view_(other.view_ != nullptr ? std::make_unique<ClassView>(*other.view_)
                                   : nullptr),
      crossrow_(other.crossrow_) {}

BankProfile& BankProfile::operator=(const BankProfile& other) {
  if (this != &other) *this = BankProfile(other);
  return *this;
}

BankProfile::ClassView BankProfile::DerivedView() const {
  ClassView view;
  ClassAccumulator& live = view.live;
  const CrossRowAccumulator& x = crossrow_;
  live.ce_total = x.ce_count;
  live.ueo_total = x.ueo_count;
  // The extrema of a sorted distinct set are its ends; rows are exact in
  // double, so these are the bits live's own min/max would hold.
  if (!x.ce_rows.empty()) {
    live.ce_row_min = x.ce_rows.front();
    live.ce_row_max = x.ce_rows.back();
  }
  if (!x.ueo_rows.empty()) {
    live.ueo_row_min = x.ueo_rows.front();
    live.ueo_row_max = x.ueo_rows.back();
  }
  live.all_row_diff = x.all_row_diff;
  live.ce_dt = x.ce_dt;
  live.ueo_dt = x.ueo_dt;
  live.any_event = x.all_count > 0;
  live.last_time = x.last_event_time;
  live.ce_at_last_time = ce_at_last_time_;
  live.ueo_at_last_time = ueo_at_last_time_;
  return view;
}

void BankProfile::Observe(const trace::MceRecord& record) {
  CORDIAL_CHECK_MSG(events_ == 0 || record.time_s >= last_time_,
                    "BankProfile requires non-decreasing timestamps");
  if (view_ == nullptr) {
    if (record.type == ErrorType::kUer) {
      // The first UER: materialize the view that was derived until now.
      view_ = std::make_unique<ClassView>(DerivedView());
    } else {
      // ClassAccumulator::Absorb's same-timestamp bookkeeping, against the
      // derived live accumulator's last event (crossrow_'s).
      if (crossrow_.all_count == 0 ||
          record.time_s != crossrow_.last_event_time) {
        ce_at_last_time_ = 0;
        ueo_at_last_time_ = 0;
      }
      ++(record.type == ErrorType::kCe ? ce_at_last_time_ : ueo_at_last_time_);
    }
  }
  ++events_;
  last_time_ = record.time_s;
  crossrow_.Absorb(record);
  if (view_ == nullptr) return;
  ClassView& view = *view_;

  if (record.type == ErrorType::kUer) {
    // TruncateAtUer keeps the first max_uers UERs; later ones — including
    // same-timestamp ties with the cutoff — are outside the view.
    if (view.uer_accepted < max_uers_) {
      view.live.Absorb(record);
      ++view.uer_accepted;
      view.cutoff = record.time_s;
      view.frozen = view.live;
      if (view.uer_accepted == max_uers_) view.capped = true;
    }
    return;
  }

  // CE/UEO: part of the truncated view iff time <= cutoff. Pre-cap the
  // cutoff can still move forward, so everything is tracked in `live`;
  // same-timestamp ties with the current cutoff additionally land in
  // `frozen` so the snapshot equals the view at all times.
  if (!view.capped) view.live.Absorb(record);
  if (record.time_s == view.cutoff) view.frozen.Absorb(record);
}

void BankProfile::ObserveAll(const trace::BankHistory& bank) {
  for (const trace::MceRecord& record : bank.events) Observe(record);
}

double BankProfile::classification_cutoff_s() const {
  CORDIAL_CHECK_MSG(HasClassificationView(),
                    "classification cutoff requires a UER");
  return view_->cutoff;
}

const ClassAccumulator& BankProfile::classification() const {
  static const ClassAccumulator kBeforeFirstUer;
  return view_ != nullptr ? view_->frozen : kBeforeFirstUer;
}

bool BankProfile::HasUerRow(std::uint32_t row) const {
  return std::binary_search(crossrow_.uer_rows.begin(),
                            crossrow_.uer_rows.end(), row);
}

// ---------------------------------------------------------- serialization

namespace {

// Varint counts, rows as first value plus ascending gaps, doubles as raw
// bits behind presence masks (DESIGN.md §14).

void WriteChainBinary(persist::BinaryWriter& out, const DiffChain& chain) {
  out.Var(chain.count);
  out.Bool(chain.has_last);
  out.MaskedF64({chain.sum, chain.min, chain.max, chain.last});
}

DiffChain ReadChainBinary(persist::BinaryReader& in) {
  DiffChain chain;
  chain.count = static_cast<std::size_t>(in.Var());
  chain.has_last = in.Bool();
  in.MaskedF64({&chain.sum, &chain.min, &chain.max, &chain.last});
  return chain;
}

void WriteClassBinary(persist::BinaryWriter& out, const ClassAccumulator& acc) {
  out.Var(acc.ce_total);
  out.Var(acc.ueo_total);
  out.Var(acc.uer_events);
  out.MaskedF64({acc.ce_row_min, acc.ce_row_max, acc.ueo_row_min,
                 acc.ueo_row_max, acc.uer_row_min, acc.uer_row_max,
                 acc.first_uer_time, acc.last_uer_time,
                 acc.ce_before_first_uer, acc.ueo_before_first_uer,
                 acc.last_time});
  out.Bool(acc.any_event);
  out.Var(acc.ce_at_last_time);
  out.Var(acc.ueo_at_last_time);
  WriteChainBinary(out, acc.uer_row_diff);
  WriteChainBinary(out, acc.all_row_diff);
  WriteChainBinary(out, acc.ce_dt);
  WriteChainBinary(out, acc.ueo_dt);
  WriteChainBinary(out, acc.uer_dt);
  out.AscendingU32(acc.distinct_uer_rows);
}

ClassAccumulator ReadClassBinary(persist::BinaryReader& in) {
  ClassAccumulator acc;
  acc.ce_total = static_cast<std::size_t>(in.Var());
  acc.ueo_total = static_cast<std::size_t>(in.Var());
  acc.uer_events = static_cast<std::size_t>(in.Var());
  in.MaskedF64({&acc.ce_row_min, &acc.ce_row_max, &acc.ueo_row_min,
                &acc.ueo_row_max, &acc.uer_row_min, &acc.uer_row_max,
                &acc.first_uer_time, &acc.last_uer_time,
                &acc.ce_before_first_uer, &acc.ueo_before_first_uer,
                &acc.last_time});
  acc.any_event = in.Bool();
  acc.ce_at_last_time = static_cast<std::size_t>(in.Var());
  acc.ueo_at_last_time = static_cast<std::size_t>(in.Var());
  acc.uer_row_diff = ReadChainBinary(in);
  acc.all_row_diff = ReadChainBinary(in);
  acc.ce_dt = ReadChainBinary(in);
  acc.ueo_dt = ReadChainBinary(in);
  acc.uer_dt = ReadChainBinary(in);
  acc.distinct_uer_rows = in.AscendingU32();
  return acc;
}

void WriteCrossRowBinary(persist::BinaryWriter& out,
                         const CrossRowAccumulator& acc) {
  out.Var(acc.ce_count);
  out.Var(acc.ueo_count);
  out.Var(acc.uer_count);
  out.Var(acc.all_count);
  out.MaskedF64({acc.uer_row_min, acc.uer_row_max, acc.first_uer_time,
                 acc.last_event_time});
  WriteChainBinary(out, acc.uer_row_diff);
  WriteChainBinary(out, acc.all_row_diff);
  WriteChainBinary(out, acc.ce_dt);
  WriteChainBinary(out, acc.ueo_dt);
  WriteChainBinary(out, acc.uer_dt);
  out.AscendingU32(acc.ce_rows);
  out.AscendingU32(acc.ueo_rows);
  out.AscendingU32(acc.uer_rows);
  // uer_row_gaps is derived from uer_rows and rebuilt on load.
}

// The checks below run on every decoded blob, so they build a message
// only when they refuse: `view` names the accumulator ("cross-row", "live
// classification view", ...), the other names its fields.

/// Refuse, through `in`, a row set that Absorb cannot leave beside its
/// count: the set is empty iff the count is 0, and holds no more rows than
/// the count.
void CheckRowCount(const persist::BinaryReader& in, std::string_view view,
                   const char* rows_name,
                   const std::vector<std::uint32_t>& rows,
                   const char* count_name, std::size_t count) {
  if (rows.empty() != (count == 0) || rows.size() > count) {
    in.Fail(std::string(view) + " " + rows_name + " holds " +
            std::to_string(rows.size()) + " row(s) for " + count_name + " " +
            std::to_string(count));
  }
}

/// Refuse, through `in`, UER row extrema other than the ends of the sorted
/// distinct UER rows `rows`, or other than +0.0 while `rows` is empty. Bits
/// are compared, so -0.0 and NaN payloads count.
void CheckUerExtrema(const persist::BinaryReader& in, std::string_view view,
                     const char* rows_name,
                     const std::vector<std::uint32_t>& rows, double min,
                     double max) {
  const auto check_bits = [&](const char* name, double value, double want) {
    if (std::bit_cast<std::uint64_t>(value) !=
        std::bit_cast<std::uint64_t>(want)) {
      in.Fail(std::string(view) + " " + name + " " + std::to_string(value) +
              " is not " + std::to_string(want) +
              (rows.empty() ? std::string(" before the first UER")
                            : std::string(", the end of ") + rows_name));
    }
  };
  check_bits("uer_row_min", min,
             rows.empty() ? 0.0 : static_cast<double>(rows.front()));
  check_bits("uer_row_max", max,
             rows.empty() ? 0.0 : static_cast<double>(rows.back()));
}

/// Refuse, through `in`, a DiffChain that `pushes` calls of DiffChain::Push
/// cannot leave: from the first push on has_last is set and count is
/// pushes - 1, before it count is 0 and has_last clear; sum, min and max stay
/// +0.0 until the first difference, and last until the first push; min
/// never exceeds max. The pushed rows are u32 and the pushed timestamps
/// finite (the ingest refuses any other), so no difference is NaN.
void CheckChain(const persist::BinaryReader& in, std::string_view view,
                const char* chain_name, const DiffChain& chain,
                const char* pushes_name, std::size_t pushes) {
  const auto fail = [&](const std::string& what) {
    in.Fail(std::string(view) + " " + chain_name + " " + what);
  };
  if (chain.has_last != (pushes > 0) ||
      chain.count != (pushes > 0 ? pushes - 1 : 0)) {
    fail("holds count " + std::to_string(chain.count) +
         (chain.has_last ? " with" : " without") + " has_last for " +
         pushes_name + " " + std::to_string(pushes));
  }
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
}

/// Refuse, through `in`, a cross-row view whose counts contradict its row
/// sets or chains, which CrossRowAccumulator::Absorb keeps in step: every
/// record counts once in all_count and once in its type's count, adds its
/// row to its type's set and pushes its row and time into the chains; the
/// UER row extrema are the UER set's ends, and all three UER fields stay
/// +0.0 until the first UER.
void CheckCrossRow(const persist::BinaryReader& in,
                   const CrossRowAccumulator& acc) {
  if (acc.ce_count > acc.all_count ||
      acc.ueo_count > acc.all_count - acc.ce_count ||
      acc.uer_count != acc.all_count - acc.ce_count - acc.ueo_count) {
    in.Fail("cross-row all_count " + std::to_string(acc.all_count) +
            " != ce_count " + std::to_string(acc.ce_count) + " + ueo_count " +
            std::to_string(acc.ueo_count) + " + uer_count " +
            std::to_string(acc.uer_count));
  }
  constexpr std::string_view view = "cross-row";
  CheckRowCount(in, view, "ce_rows", acc.ce_rows, "ce_count", acc.ce_count);
  CheckRowCount(in, view, "ueo_rows", acc.ueo_rows, "ueo_count", acc.ueo_count);
  CheckRowCount(in, view, "uer_rows", acc.uer_rows, "uer_count", acc.uer_count);
  CheckUerExtrema(in, view, "uer_rows", acc.uer_rows, acc.uer_row_min,
                  acc.uer_row_max);
  if (acc.uer_count == 0 &&
      std::bit_cast<std::uint64_t>(acc.first_uer_time) != 0) {
    in.Fail("cross-row first_uer_time " + std::to_string(acc.first_uer_time) +
            " is not +0.0 before the first UER");
  }
  CheckChain(in, view, "all_row_diff", acc.all_row_diff, "all_count",
             acc.all_count);
  CheckChain(in, view, "uer_row_diff", acc.uer_row_diff, "uer_count",
             acc.uer_count);
  CheckChain(in, view, "ce_dt", acc.ce_dt, "ce_count", acc.ce_count);
  CheckChain(in, view, "ueo_dt", acc.ueo_dt, "ueo_count", acc.ueo_count);
  CheckChain(in, view, "uer_dt", acc.uer_dt, "uer_count", acc.uer_count);
}

/// Refuse, through `in`, a classification view whose chains or UER row
/// extrema contradict its counts, which ClassAccumulator::Absorb keeps in
/// step as CrossRowAccumulator::Absorb does: every absorbed record pushes
/// all_row_diff and its type's time chain, every UER uer_row_diff and the
/// sorted distinct UER rows, whose ends are the UER row extrema.
void CheckClassView(const persist::BinaryReader& in, std::string_view view,
                    const ClassAccumulator& acc) {
  const std::size_t typed = acc.ce_total + acc.ueo_total;
  if (typed < acc.ce_total || typed + acc.uer_events < typed) {
    in.Fail(std::string(view) + " event counts overflow");
  }
  CheckChain(in, view, "all_row_diff", acc.all_row_diff, "events",
             typed + acc.uer_events);
  CheckChain(in, view, "uer_row_diff", acc.uer_row_diff, "uer_events",
             acc.uer_events);
  CheckChain(in, view, "ce_dt", acc.ce_dt, "ce_total", acc.ce_total);
  CheckChain(in, view, "ueo_dt", acc.ueo_dt, "ueo_total", acc.ueo_total);
  CheckChain(in, view, "uer_dt", acc.uer_dt, "uer_events", acc.uer_events);
  CheckRowCount(in, view, "distinct_uer_rows", acc.distinct_uer_rows,
                "uer_events", acc.uer_events);
  CheckUerExtrema(in, view, "distinct_uer_rows", acc.distinct_uer_rows,
                  acc.uer_row_min, acc.uer_row_max);
}

CrossRowAccumulator ReadCrossRowBinary(persist::BinaryReader& in) {
  CrossRowAccumulator acc;
  acc.ce_count = static_cast<std::size_t>(in.Var());
  acc.ueo_count = static_cast<std::size_t>(in.Var());
  acc.uer_count = static_cast<std::size_t>(in.Var());
  acc.all_count = static_cast<std::size_t>(in.Var());
  in.MaskedF64({&acc.uer_row_min, &acc.uer_row_max, &acc.first_uer_time,
                &acc.last_event_time});
  acc.uer_row_diff = ReadChainBinary(in);
  acc.all_row_diff = ReadChainBinary(in);
  acc.ce_dt = ReadChainBinary(in);
  acc.ueo_dt = ReadChainBinary(in);
  acc.uer_dt = ReadChainBinary(in);
  acc.ce_rows = in.AscendingU32();
  acc.ueo_rows = in.AscendingU32();
  acc.uer_rows = in.AscendingU32();
  CheckCrossRow(in, acc);
  for (std::size_t i = 1; i < acc.uer_rows.size(); ++i) {
    acc.uer_row_gaps.push_back(acc.uer_rows[i] - acc.uer_rows[i - 1]);
  }
  std::sort(acc.uer_row_gaps.begin(), acc.uer_row_gaps.end());
  return acc;
}

std::string ClassBytes(const ClassAccumulator& acc) {
  std::string bytes;
  persist::BinaryWriter out(bytes);
  WriteClassBinary(out, acc);
  return bytes;
}

}  // namespace

void BankProfile::SaveBinary(persist::BinaryWriter& out) const {
  const ClassView derived = view_ == nullptr ? DerivedView() : ClassView{};
  const ClassView& view = view_ == nullptr ? derived : *view_;
  out.Var(max_uers_);
  out.Var(events_);
  out.Var(view.uer_accepted);
  out.Bool(view.capped);
  out.MaskedF64({last_time_, view.cutoff});
  WriteClassBinary(out, view.live);
  WriteClassBinary(out, view.frozen);
  WriteCrossRowBinary(out, crossrow_);
}

BankProfile BankProfile::LoadBinary(persist::BinaryReader& in) {
  const std::uint64_t max_uers = in.Var();
  // The constructor CORDIAL_CHECKs max_uers >= 1; surface a corrupt value
  // as a ParseError so recovery's fail-closed path handles it.
  if (max_uers == 0) in.Fail("corrupt profile max_uers 0");
  BankProfile profile(static_cast<std::size_t>(max_uers));
  profile.events_ = static_cast<std::size_t>(in.Var());
  ClassView view;
  view.uer_accepted = static_cast<std::size_t>(in.Var());
  view.capped = in.Bool();
  in.MaskedF64({&profile.last_time_, &view.cutoff});
  view.live = ReadClassBinary(in);
  view.frozen = ReadClassBinary(in);
  profile.crossrow_ = ReadCrossRowBinary(in);
  const CrossRowAccumulator& crossrow = profile.crossrow_;
  // Observe counts every record once in each.
  if (profile.events_ != crossrow.all_count) {
    in.Fail("profile events " + std::to_string(profile.events_) +
            " != cross-row all_count " + std::to_string(crossrow.all_count));
  }
  if (view.uer_accepted > 0) {
    // Every record a view absorbed went through the cross-row view first.
    for (const ClassAccumulator* acc : {&view.live, &view.frozen}) {
      const char* const name = acc == &view.live ? "live" : "frozen";
      const auto check_count = [&](const char* field, std::size_t count,
                                   const char* crossrow_field,
                                   std::size_t crossrow_count) {
        if (count > crossrow_count) {
          in.Fail(std::string(name) + " classification view " + field + " " +
                  std::to_string(count) + " > cross-row " + crossrow_field +
                  " " + std::to_string(crossrow_count));
        }
      };
      check_count("ce_total", acc->ce_total, "ce_count", crossrow.ce_count);
      check_count("ueo_total", acc->ueo_total, "ueo_count",
                  crossrow.ueo_count);
      if (!std::includes(crossrow.uer_rows.begin(), crossrow.uer_rows.end(),
                         acc->distinct_uer_rows.begin(),
                         acc->distinct_uer_rows.end())) {
        in.Fail(std::string(name) +
                " classification view's distinct_uer_rows are not a subset "
                "of the cross-row uer_rows");
      }
    }
    profile.view_ = std::make_unique<ClassView>(std::move(view));
    return profile;
  }

  // No accepted UER: the view is derived, so the blob must hold exactly
  // what SaveBinary derives. Encodings are compared, not values, so -0.0
  // and NaN payloads count.
  profile.ce_at_last_time_ = view.live.ce_at_last_time;
  profile.ueo_at_last_time_ = view.live.ueo_at_last_time;
  const ClassView derived = profile.DerivedView();
  if (view.capped || std::bit_cast<std::uint64_t>(view.cutoff) != 0 ||
      ClassBytes(view.live) != ClassBytes(derived.live) ||
      ClassBytes(view.frozen) != ClassBytes(derived.frozen)) {
    in.Fail("classification view without an accepted UER is not the one "
            "its cross-row view derives");
  }
  return profile;
}

void BankProfile::CheckViewCounts(const persist::BinaryReader& in) const {
  const std::size_t accepted = classification_uer_count();
  const std::size_t expected = std::min(crossrow_.uer_count, max_uers_);
  if (accepted != expected) {
    in.Fail("accepted UERs " + std::to_string(accepted) +
            " != min(cross-row UERs " + std::to_string(crossrow_.uer_count) +
            ", depth " + std::to_string(max_uers_) + ")");
  }
  if (view_ == nullptr) return;  // derived: uncapped, no UER in either
  if (view_->capped != (accepted == max_uers_)) {
    in.Fail(std::string("classification view ") +
            (view_->capped ? "capped" : "uncapped") + " at " +
            std::to_string(accepted) + " accepted UERs of depth " +
            std::to_string(max_uers_));
  }
  const auto check_uers = [&](const char* name, const ClassAccumulator& acc) {
    if (acc.uer_events != accepted) {
      in.Fail(std::string(name) + " classification view holds " +
              std::to_string(acc.uer_events) + " UERs, not the " +
              std::to_string(accepted) + " accepted");
    }
  };
  check_uers("live", view_->live);
  check_uers("frozen", view_->frozen);
  CheckClassView(in, "live classification view", view_->live);
  CheckClassView(in, "frozen classification view", view_->frozen);
}

}  // namespace cordial::core
