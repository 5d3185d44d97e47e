// Property tests pinning BankProfile's incremental statistics to the
// pre-refactor batch scans. The Reference* functions below are verbatim
// copies of the event-list scans the extractors used before the profile
// refactor; every feature vector must match them bit for bit — profiles are
// the only ingestion path now, and these tests are what keeps it honest.
#include "core/bank_profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/features.hpp"

namespace cordial::core {
namespace {

using hbm::ErrorType;

trace::MceRecord Make(double t, std::uint32_t row, ErrorType type) {
  trace::MceRecord r;
  r.time_s = t;
  r.address.row = row;
  r.type = type;
  return r;
}

trace::BankHistory MakeBank(std::vector<trace::MceRecord> events) {
  trace::BankHistory bank;
  bank.events = std::move(events);
  return bank;
}

// ----------------------- pre-refactor reference implementations ----------

struct Summary {
  double min = kMissing;
  double max = kMissing;
  double avg = kMissing;
};

Summary Summarize(const std::vector<double>& values) {
  if (values.empty()) return {};
  Summary s;
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  double total = 0.0;
  for (double v : values) total += v;
  s.avg = total / static_cast<double>(values.size());
  return s;
}

std::vector<double> ConsecutiveAbsDiffs(const std::vector<double>& values) {
  std::vector<double> diffs;
  for (std::size_t i = 1; i < values.size(); ++i) {
    diffs.push_back(std::fabs(values[i] - values[i - 1]));
  }
  return diffs;
}

std::vector<double> ReferenceClassFeatures(const trace::BankHistory& bank,
                                           const hbm::TopologyConfig& topology,
                                           std::size_t max_uers) {
  const TruncatedHistory view = TruncateAtUer(bank, max_uers);

  std::vector<double> ce_rows, ueo_rows, uer_rows, all_rows;
  std::vector<double> ce_times, ueo_times, uer_times;
  double first_uer_t = std::numeric_limits<double>::infinity();
  for (const trace::MceRecord& r : view.events) {
    const auto row = static_cast<double>(r.address.row);
    all_rows.push_back(row);
    switch (r.type) {
      case ErrorType::kCe:
        ce_rows.push_back(row);
        ce_times.push_back(r.time_s);
        break;
      case ErrorType::kUeo:
        ueo_rows.push_back(row);
        ueo_times.push_back(r.time_s);
        break;
      case ErrorType::kUer:
        uer_rows.push_back(row);
        uer_times.push_back(r.time_s);
        first_uer_t = std::min(first_uer_t, r.time_s);
        break;
    }
  }

  auto min_or_missing = [](const std::vector<double>& v) {
    return v.empty() ? kMissing : *std::min_element(v.begin(), v.end());
  };
  auto max_or_missing = [](const std::vector<double>& v) {
    return v.empty() ? kMissing : *std::max_element(v.begin(), v.end());
  };

  const double uer_min = min_or_missing(uer_rows);
  const double uer_max = max_or_missing(uer_rows);
  const double uer_span = uer_max - uer_min;

  double half_alias_gap = kMissing;
  {
    std::set<double> distinct(uer_rows.begin(), uer_rows.end());
    const double half = static_cast<double>(topology.rows_per_bank) / 2.0;
    for (auto a = distinct.begin(); a != distinct.end(); ++a) {
      for (auto b = std::next(a); b != distinct.end(); ++b) {
        const double gap = std::fabs(std::fabs(*b - *a) - half);
        if (half_alias_gap == kMissing || gap < half_alias_gap) {
          half_alias_gap = gap;
        }
      }
    }
  }

  const Summary uer_row_diff = Summarize(ConsecutiveAbsDiffs(uer_rows));
  const Summary all_row_diff = Summarize(ConsecutiveAbsDiffs(all_rows));
  const Summary ce_dt = Summarize(ConsecutiveAbsDiffs(ce_times));
  const Summary ueo_dt = Summarize(ConsecutiveAbsDiffs(ueo_times));
  const Summary uer_dt = Summarize(ConsecutiveAbsDiffs(uer_times));

  const double uer_time_span =
      uer_times.size() < 2 ? kMissing : uer_times.back() - uer_times.front();

  double ce_before = 0.0, ueo_before = 0.0;
  for (const trace::MceRecord& r : view.events) {
    if (r.time_s >= first_uer_t) break;
    if (r.type == ErrorType::kCe) ce_before += 1.0;
    if (r.type == ErrorType::kUeo) ueo_before += 1.0;
  }

  std::set<double> distinct_uer_rows(uer_rows.begin(), uer_rows.end());

  return {
      min_or_missing(ce_rows), max_or_missing(ce_rows),
      min_or_missing(ueo_rows), max_or_missing(ueo_rows),
      uer_min, uer_max, uer_span,
      uer_span / static_cast<double>(topology.rows_per_bank),
      uer_row_diff.min, uer_row_diff.max, uer_row_diff.avg,
      all_row_diff.min, all_row_diff.max, all_row_diff.avg,
      half_alias_gap,
      ce_dt.min, ce_dt.max, ce_dt.avg,
      ueo_dt.min, ueo_dt.max, ueo_dt.avg,
      uer_dt.min, uer_dt.max, uer_dt.avg,
      uer_time_span,
      ce_before, ueo_before,
      static_cast<double>(ce_rows.size()),
      static_cast<double>(ueo_rows.size()),
      static_cast<double>(distinct_uer_rows.size()),
  };
}

std::vector<double> ReferenceCrossRowFeatures(
    const trace::BankHistory& bank, const hbm::TopologyConfig& topology,
    const BlockWindow& window, double anchor_time_s, std::uint32_t anchor_row,
    std::size_t block) {
  const auto range = window.BlockRange(block);
  CORDIAL_CHECK_MSG(range.has_value(), "reference block out of bank");
  const double block_center = 0.5 * (static_cast<double>(range->first) +
                                     static_cast<double>(range->second));

  std::vector<double> ce_rows, ueo_rows, uer_rows, all_rows;
  std::vector<double> ce_times, ueo_times, uer_times;
  double last_event_t = kMissing;
  for (const trace::MceRecord& r : bank.events) {
    if (r.time_s > anchor_time_s) break;
    const auto row = static_cast<double>(r.address.row);
    all_rows.push_back(row);
    last_event_t = r.time_s;
    switch (r.type) {
      case ErrorType::kCe:
        ce_rows.push_back(row);
        ce_times.push_back(r.time_s);
        break;
      case ErrorType::kUeo:
        ueo_rows.push_back(row);
        ueo_times.push_back(r.time_s);
        break;
      case ErrorType::kUer:
        uer_rows.push_back(row);
        uer_times.push_back(r.time_s);
        break;
    }
  }

  auto nearest_dist = [&](const std::vector<double>& rows) {
    double best = kMissing;
    for (double row : rows) {
      const double d = std::fabs(row - block_center);
      if (best == kMissing || d < best) best = d;
    }
    return best;
  };
  auto rows_in_range = [&](const std::vector<double>& rows) {
    std::set<double> distinct;
    for (double row : rows) {
      if (row >= static_cast<double>(range->first) &&
          row <= static_cast<double>(range->second)) {
        distinct.insert(row);
      }
    }
    return static_cast<double>(distinct.size());
  };

  std::set<double> distinct_uer(uer_rows.begin(), uer_rows.end());
  double uer_in_window = 0.0, uer_within_8 = 0.0;
  for (double row : distinct_uer) {
    if (std::fabs(row - static_cast<double>(anchor_row)) <=
        static_cast<double>(window.radius())) {
      uer_in_window += 1.0;
    }
    if (std::fabs(row - static_cast<double>(anchor_row)) <= 8.0) {
      uer_within_8 += 1.0;
    }
  }

  const Summary uer_row_diff = Summarize(ConsecutiveAbsDiffs(uer_rows));
  const Summary all_row_diff = Summarize(ConsecutiveAbsDiffs(all_rows));
  const Summary ce_dt = Summarize(ConsecutiveAbsDiffs(ce_times));
  const Summary ueo_dt = Summarize(ConsecutiveAbsDiffs(ueo_times));
  const Summary uer_dt = Summarize(ConsecutiveAbsDiffs(uer_times));

  const double uer_span = *std::max_element(uer_rows.begin(), uer_rows.end()) -
                          *std::min_element(uer_rows.begin(), uer_rows.end());

  std::vector<std::uint32_t> uer_rows_u32;
  uer_rows_u32.reserve(uer_rows.size());
  for (double row : uer_rows) {
    uer_rows_u32.push_back(static_cast<std::uint32_t>(row));
  }
  const std::uint32_t stride = EstimateRowStride(uer_rows_u32);
  double fold = kMissing;
  double k_positions = kMissing;
  if (stride > 0) {
    const double nearest_uer = nearest_dist(uer_rows);
    const double mod = std::fmod(nearest_uer, static_cast<double>(stride));
    fold = std::min(mod, static_cast<double>(stride) - mod);
    k_positions = nearest_uer / static_cast<double>(stride);
  }

  return {
      static_cast<double>(block),
      block_center - static_cast<double>(anchor_row),
      std::fabs(block_center - static_cast<double>(anchor_row)),
      static_cast<double>(anchor_row) /
          static_cast<double>(topology.rows_per_bank),
      nearest_dist(ce_rows), nearest_dist(ueo_rows), nearest_dist(uer_rows),
      rows_in_range(ce_rows), rows_in_range(ueo_rows), rows_in_range(uer_rows),
      uer_in_window, uer_within_8,
      uer_row_diff.min, uer_row_diff.max, uer_row_diff.avg,
      all_row_diff.min, all_row_diff.max, all_row_diff.avg,
      uer_span,
      stride == 0 ? kMissing : static_cast<double>(stride), fold, k_positions,
      ce_dt.min, ce_dt.max, ueo_dt.min, ueo_dt.max,
      uer_dt.min, uer_dt.max, uer_dt.avg,
      last_event_t == kMissing ? kMissing : anchor_time_s - last_event_t,
      anchor_time_s - uer_times.front(),
      static_cast<double>(ce_rows.size()),
      static_cast<double>(ueo_rows.size()),
      static_cast<double>(uer_rows.size()),
      static_cast<double>(ueo_rows.size() + uer_rows.size()),
      static_cast<double>(all_rows.size()),
  };
}

// -------------------------------------------------------------- harness

/// Random bank with deliberate timestamp ties and row repeats. With
/// `negative_zero_start` the first event is stamped -0.0 (the ties after it
/// too), so a sign of zero that a statistic keeps or loses shows in its bits.
std::vector<trace::MceRecord> RandomEvents(Rng& rng, std::size_t n,
                                           bool negative_zero_start = false) {
  std::vector<trace::MceRecord> events;
  double t = negative_zero_start ? -0.0 : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // ~25% chance of reusing the previous timestamp (a tie).
    const bool tie = i == 0 ? negative_zero_start : rng.Bernoulli(0.25);
    if (!tie) t += rng.UniformReal(0.5, 50.0);
    // Cluster rows so repeats and small gaps are common.
    const std::uint32_t row =
        rng.Bernoulli(0.5)
            ? static_cast<std::uint32_t>(1000 + rng.UniformInt(0, 40))
            : static_cast<std::uint32_t>(rng.UniformInt(0, 4000));
    const double p = rng.UniformReal();
    const ErrorType type = p < 0.55   ? ErrorType::kCe
                           : p < 0.70 ? ErrorType::kUeo
                                      : ErrorType::kUer;
    events.push_back(Make(t, row, type));
  }
  return events;
}

void ExpectBitIdentical(const std::vector<double>& expected,
                        const std::vector<double>& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Bit-level comparison: the refactor promises identical arithmetic, so
    // -0.0 against +0.0 is a difference.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(expected[i]),
              std::bit_cast<std::uint64_t>(actual[i]))
        << what << " feature " << i << ": " << expected[i] << " vs "
        << actual[i];
  }
}

TEST(BankProfileProperty, IncrementalMatchesBatchAtEveryPrefix) {
  // Every truncation depth up to 4, 50 seeded banks a depth; every fifth
  // bank opens at t = -0.0.
  const hbm::TopologyConfig topology;
  const CrossRowFeatureExtractor crossrow_extractor(topology, 8, 16);
  Rng rng(20240811);

  for (std::size_t depth = 1; depth <= 4; ++depth) {
    const ClassificationFeatureExtractor class_extractor(topology, depth);
    for (int trial = 0; trial < 50; ++trial) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " trial " +
                   std::to_string(trial));
      const auto events = RandomEvents(rng, 60, trial % 5 == 0);
      BankProfile incremental(depth);
      trace::BankHistory prefix;

      for (std::size_t k = 0; k < events.size(); ++k) {
        incremental.Observe(events[k]);
        prefix.events.push_back(events[k]);

        const bool has_uer = std::any_of(
            prefix.events.begin(), prefix.events.end(),
            [](const trace::MceRecord& r) {
              return r.type == ErrorType::kUer;
            });
        if (!has_uer) {
          EXPECT_FALSE(incremental.HasClassificationView());
          continue;
        }

        // Truncation state matches TruncateAtUer on the prefix.
        const TruncatedHistory view = TruncateAtUer(prefix, depth);
        ASSERT_TRUE(incremental.HasClassificationView());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      incremental.classification_cutoff_s()),
                  std::bit_cast<std::uint64_t>(view.cutoff_s));
        EXPECT_EQ(incremental.classification_uer_count(), view.uer_count);

        // Classification features: reference scan == batch wrapper ==
        // incremental profile, bit for bit.
        const auto reference = ReferenceClassFeatures(prefix, topology, depth);
        ExpectBitIdentical(reference, class_extractor.Extract(prefix),
                           "class batch wrapper");
        ExpectBitIdentical(reference,
                           class_extractor.ExtractFromProfile(incremental),
                           "class incremental");

        // Cross-row features at UER events, over every in-bank block.
        if (events[k].type != ErrorType::kUer) continue;
        const std::uint32_t anchor_row = events[k].address.row;
        const double anchor_time = events[k].time_s;
        const BlockWindow window = crossrow_extractor.WindowAt(anchor_row);
        for (std::size_t b = 0; b < 16; ++b) {
          if (!window.BlockRange(b).has_value()) continue;
          const auto cr_reference = ReferenceCrossRowFeatures(
              prefix, topology, window, anchor_time, anchor_row, b);
          ExpectBitIdentical(
              cr_reference,
              crossrow_extractor.Extract(prefix, anchor_time, anchor_row, b),
              "crossrow batch wrapper");
          ExpectBitIdentical(
              cr_reference,
              crossrow_extractor.ExtractFromProfile(incremental, anchor_time,
                                                    anchor_row, b),
              "crossrow incremental");
        }
      }
    }
  }
}

// ------------------------------------------------------------ edge cases

TEST(BankProfile, TruncationAbsorbsTiesAtCutoff) {
  // A CE recorded after the 3rd UER but at the same timestamp belongs in
  // the truncated view (TruncateAtUer keeps every event with time <=
  // cutoff); a later UER at the cutoff does not (ties beyond the cap).
  const auto events = std::vector<trace::MceRecord>{
      Make(1, 10, ErrorType::kUer), Make(2, 20, ErrorType::kUer),
      Make(3, 30, ErrorType::kUer), Make(3, 40, ErrorType::kCe),
      Make(3, 50, ErrorType::kUer), Make(4, 60, ErrorType::kCe),
  };
  BankProfile profile(3);
  for (const auto& e : events) profile.Observe(e);
  EXPECT_EQ(profile.classification_cutoff_s(), 3.0);
  EXPECT_EQ(profile.classification_uer_count(), 3u);
  EXPECT_EQ(profile.classification().ce_total, 1u);   // the t=3 tie
  EXPECT_EQ(profile.classification().distinct_uer_rows,
            (std::vector<std::uint32_t>{10, 20, 30}));  // t=3 row-50 dropped

  const hbm::TopologyConfig topology;
  const ClassificationFeatureExtractor extractor(topology, 3);
  ExpectBitIdentical(extractor.Extract(MakeBank(events)),
                     extractor.ExtractFromProfile(profile), "cutoff ties");
}

TEST(BankProfile, TrailingEventsAfterCutoffAreInvisible) {
  BankProfile profile(3);
  profile.Observe(Make(1, 10, ErrorType::kUer));
  profile.Observe(Make(2, 20, ErrorType::kUer));
  profile.Observe(Make(3, 30, ErrorType::kUer));
  const auto frozen_before = profile.classification().ce_total;
  profile.Observe(Make(9, 99, ErrorType::kCe));
  profile.Observe(Make(10, 77, ErrorType::kUer));
  EXPECT_EQ(profile.classification().ce_total, frozen_before);
  EXPECT_EQ(profile.classification_uer_count(), 3u);
  // The cross-row view keeps counting.
  EXPECT_EQ(profile.ce_count(), 1u);
  EXPECT_EQ(profile.uer_event_count(), 4u);
}

TEST(BankProfile, RepeatedRowsDoNotInflateDistinctSets) {
  BankProfile profile;
  profile.Observe(Make(1, 100, ErrorType::kUer));
  profile.Observe(Make(2, 100, ErrorType::kUer));
  profile.Observe(Make(3, 100, ErrorType::kUer));
  EXPECT_EQ(profile.uer().uer_rows.size(), 1u);
  EXPECT_TRUE(profile.HasUerRow(100));
  EXPECT_FALSE(profile.HasUerRow(101));
  EXPECT_EQ(profile.uer().EstimatedUerStride(), 0u);
}

TEST(BankProfile, GapMultisetSplitsOnMiddleInsertion) {
  BankProfile profile;
  profile.Observe(Make(1, 100, ErrorType::kUer));
  profile.Observe(Make(2, 164, ErrorType::kUer));
  EXPECT_EQ(profile.uer().EstimatedUerStride(), 64u);
  // Inserting 132 splits the 64-gap into two 32-gaps.
  profile.Observe(Make(3, 132, ErrorType::kUer));
  EXPECT_EQ(profile.uer().EstimatedUerStride(), 32u);
  // Micro-adjacent rows stay below the floor.
  profile.Observe(Make(4, 133, ErrorType::kUer));
  EXPECT_EQ(profile.uer().EstimatedUerStride(), 31u);
}

TEST(BankProfile, RejectsDecreasingTimestamps) {
  BankProfile profile;
  profile.Observe(Make(5, 1, ErrorType::kCe));
  EXPECT_THROW(profile.Observe(Make(4, 2, ErrorType::kCe)), ContractViolation);
  EXPECT_NO_THROW(profile.Observe(Make(5, 3, ErrorType::kCe)));
}

}  // namespace
}  // namespace cordial::core
