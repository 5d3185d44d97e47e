#include "core/bank_profile.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "persist/binary_io.hpp"

namespace cordial::core {

using hbm::ErrorType;

namespace {

/// Insert `row` into a sorted distinct vector; returns the insertion index
/// or SIZE_MAX when the row was already present.
std::size_t InsertDistinct(std::vector<double>& sorted, double row) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), row);
  if (it != sorted.end() && *it == row) return static_cast<std::size_t>(-1);
  const auto index = static_cast<std::size_t>(it - sorted.begin());
  sorted.insert(it, row);
  return index;
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
      InsertDistinct(distinct_uer_rows, row);
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
      InsertDistinct(ce_rows, row);
      break;
    case ErrorType::kUeo:
      ++ueo_count;
      ueo_dt.Push(t);
      InsertDistinct(ueo_rows, row);
      break;
    case ErrorType::kUer: {
      if (uer_count == 0) first_uer_time = t;
      if (uer_count == 0 || row < uer_row_min) uer_row_min = row;
      if (uer_count == 0 || row > uer_row_max) uer_row_max = row;
      ++uer_count;
      uer_dt.Push(t);
      uer_row_diff.Push(row);
      const std::size_t index = InsertDistinct(uer_rows, row);
      if (index != static_cast<std::size_t>(-1)) {
        // Maintain the neighbour-gap multiset: inserting between two
        // existing rows splits their gap in two.
        const auto u32 = [](double v) { return static_cast<std::uint32_t>(v); };
        const bool has_prev = index > 0;
        const bool has_next = index + 1 < uer_rows.size();
        if (has_prev && has_next) {
          const std::uint32_t old_gap =
              u32(uer_rows[index + 1]) - u32(uer_rows[index - 1]);
          const auto it = uer_row_gaps.find(old_gap);
          CORDIAL_CHECK_MSG(it != uer_row_gaps.end(),
                            "UER gap bookkeeping out of sync");
          uer_row_gaps.erase(it);
        }
        if (has_prev) {
          uer_row_gaps.insert(u32(row) - u32(uer_rows[index - 1]));
        }
        if (has_next) {
          uer_row_gaps.insert(u32(uer_rows[index + 1]) - u32(row));
        }
      }
      break;
    }
  }
}

// ------------------------------------------------------------ BankProfile

BankProfile::BankProfile(std::size_t max_uers) : max_uers_(max_uers) {
  CORDIAL_CHECK_MSG(max_uers_ >= 1, "must keep at least one UER");
}

void BankProfile::Observe(const trace::MceRecord& record) {
  CORDIAL_CHECK_MSG(events_ == 0 || record.time_s >= last_time_,
                    "BankProfile requires non-decreasing timestamps");
  ++events_;
  last_time_ = record.time_s;
  crossrow_.Absorb(record);

  if (record.type == ErrorType::kUer) {
    // TruncateAtUer keeps the first max_uers UERs; later ones — including
    // same-timestamp ties with the cutoff — are outside the view.
    if (uer_accepted_ < max_uers_) {
      live_.Absorb(record);
      ++uer_accepted_;
      cutoff_ = record.time_s;
      frozen_ = live_;
      if (uer_accepted_ == max_uers_) capped_ = true;
    }
    return;
  }

  // CE/UEO: part of the truncated view iff time <= cutoff. Pre-cap the
  // cutoff can still move forward, so everything is tracked in `live`;
  // same-timestamp ties with the current cutoff additionally land in
  // `frozen` so the snapshot equals the view at all times.
  if (!capped_) live_.Absorb(record);
  if (uer_accepted_ >= 1 && record.time_s == cutoff_) frozen_.Absorb(record);
}

void BankProfile::ObserveAll(const trace::BankHistory& bank) {
  for (const trace::MceRecord& record : bank.events) Observe(record);
}

double BankProfile::classification_cutoff_s() const {
  CORDIAL_CHECK_MSG(HasClassificationView(),
                    "classification cutoff requires a UER");
  return cutoff_;
}

bool BankProfile::HasUerRow(std::uint32_t row) const {
  const double value = static_cast<double>(row);
  const auto& rows = crossrow_.uer_rows;
  const auto it = std::lower_bound(rows.begin(), rows.end(), value);
  return it != rows.end() && *it == value;
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
  out.AscendingU32<double>(acc.distinct_uer_rows);
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
  acc.distinct_uer_rows = in.AscendingU32<double>();
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
  out.AscendingU32<double>(acc.ce_rows);
  out.AscendingU32<double>(acc.ueo_rows);
  out.AscendingU32<double>(acc.uer_rows);
  // uer_row_gaps is derived from uer_rows and rebuilt on load.
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
  acc.ce_rows = in.AscendingU32<double>();
  acc.ueo_rows = in.AscendingU32<double>();
  acc.uer_rows = in.AscendingU32<double>();
  for (std::size_t i = 1; i < acc.uer_rows.size(); ++i) {
    acc.uer_row_gaps.insert(static_cast<std::uint32_t>(acc.uer_rows[i]) -
                            static_cast<std::uint32_t>(acc.uer_rows[i - 1]));
  }
  return acc;
}

}  // namespace

void BankProfile::SaveBinary(persist::BinaryWriter& out) const {
  out.Var(max_uers_);
  out.Var(events_);
  out.Var(uer_accepted_);
  out.Bool(capped_);
  out.MaskedF64({last_time_, cutoff_});
  WriteClassBinary(out, live_);
  WriteClassBinary(out, frozen_);
  WriteCrossRowBinary(out, crossrow_);
}

BankProfile BankProfile::LoadBinary(persist::BinaryReader& in) {
  const std::uint64_t max_uers = in.Var();
  // The constructor CORDIAL_CHECKs max_uers >= 1; surface a corrupt value
  // as a ParseError so recovery's fail-closed path handles it.
  if (max_uers == 0) in.Fail("corrupt profile max_uers 0");
  BankProfile profile(static_cast<std::size_t>(max_uers));
  profile.events_ = static_cast<std::size_t>(in.Var());
  profile.uer_accepted_ = static_cast<std::size_t>(in.Var());
  profile.capped_ = in.Bool();
  in.MaskedF64({&profile.last_time_, &profile.cutoff_});
  profile.live_ = ReadClassBinary(in);
  profile.frozen_ = ReadClassBinary(in);
  profile.crossrow_ = ReadCrossRowBinary(in);
  return profile;
}

}  // namespace cordial::core
