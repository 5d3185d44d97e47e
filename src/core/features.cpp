#include "core/features.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>

#include "common/check.hpp"

namespace cordial::core {

using hbm::ErrorType;

namespace {

/// min/max/avg of a consecutive-difference chain that `pushes` values fed;
/// kMissing triple when it holds no differences. Matches the historical
/// batch reduction (min/max via element comparison, sum accumulated left
/// to right).
struct Summary {
  double min = kMissing;
  double max = kMissing;
  double avg = kMissing;
};

Summary ChainSummary(const DiffChain& chain, std::size_t pushes) {
  if (pushes < 2) return {};
  return {chain.min, chain.max,
          chain.sum / static_cast<double>(pushes - 1)};
}

// Row-set searches against a double bound compare double(row). Rows are
// exact in double, so these are the batch scans' comparisons over rows.
bool RowBelow(std::uint32_t row, double value) {
  return static_cast<double>(row) < value;
}
bool RowAbove(double value, std::uint32_t row) {
  return value < static_cast<double>(row);
}

}  // namespace

TruncatedHistory TruncateAtUer(const trace::BankHistory& bank,
                               std::size_t max_uers) {
  CORDIAL_CHECK_MSG(max_uers >= 1, "must keep at least one UER");
  TruncatedHistory out;
  // Find the cutoff: time of the max_uers-th UER event (or last UER).
  std::size_t uers_seen = 0;
  double cutoff = -std::numeric_limits<double>::infinity();
  for (const trace::MceRecord& r : bank.events) {
    if (r.type != ErrorType::kUer) continue;
    ++uers_seen;
    cutoff = r.time_s;
    if (uers_seen == max_uers) break;
  }
  CORDIAL_CHECK_MSG(uers_seen >= 1, "TruncateAtUer requires a UER bank");
  out.cutoff_s = cutoff;

  std::size_t uers_kept = 0;
  for (const trace::MceRecord& r : bank.events) {
    if (r.time_s > out.cutoff_s) break;
    if (r.type == ErrorType::kUer) {
      if (uers_kept == max_uers) continue;  // ties beyond the cap
      ++uers_kept;
    }
    out.events.push_back(r);
  }
  out.uer_count = uers_kept;
  return out;
}

std::uint32_t EstimateRowStride(const std::vector<std::uint32_t>& rows,
                                std::uint32_t adjacency_floor) {
  std::set<std::uint32_t> distinct(rows.begin(), rows.end());
  std::uint32_t stride = 0;
  std::optional<std::uint32_t> prev;
  for (std::uint32_t row : distinct) {
    if (prev.has_value()) {
      const std::uint32_t gap = row - *prev;
      if (gap > adjacency_floor && (stride == 0 || gap < stride)) {
        stride = gap;
      }
    }
    prev = row;
  }
  return stride;
}

// ------------------------------------------------------- classification

ClassificationFeatureExtractor::ClassificationFeatureExtractor(
    const hbm::TopologyConfig& topology, std::size_t max_uers)
    : topology_(topology), max_uers_(max_uers) {
  topology_.Validate();
  CORDIAL_CHECK_MSG(max_uers_ >= 1, "max_uers must be >= 1");
  feature_names_ = {
      // spatial
      "ce_row_min", "ce_row_max", "ueo_row_min", "ueo_row_max",
      "uer_row_min", "uer_row_max", "uer_row_span", "uer_row_span_ratio",
      "uer_row_diff_min", "uer_row_diff_max", "uer_row_diff_avg",
      "all_row_diff_min", "all_row_diff_max", "all_row_diff_avg",
      "uer_half_alias_gap",
      // temporal
      "ce_dt_min", "ce_dt_max", "ce_dt_avg",
      "ueo_dt_min", "ueo_dt_max", "ueo_dt_avg",
      "uer_dt_min", "uer_dt_max", "uer_dt_avg",
      "uer_time_span",
      // counts
      "ce_count_before_first_uer", "ueo_count_before_first_uer",
      "ce_count_total", "ueo_count_total", "uer_distinct_rows",
  };
}

std::vector<double> ClassificationFeatureExtractor::Extract(
    const trace::BankHistory& bank) const {
  BankProfile profile(max_uers_);
  profile.ObserveAll(bank);
  return ExtractFromProfile(profile);
}

std::vector<double> ClassificationFeatureExtractor::ExtractFromProfile(
    const BankProfile& profile) const {
  CORDIAL_CHECK_MSG(profile.max_uers() == max_uers_,
                    "profile truncation depth mismatch");
  const ClassAccumulator& a = profile.classification();
  const std::size_t uer_events = profile.classification_uer_count();
  CORDIAL_CHECK_MSG(uer_events >= 1, "classification features need a UER");

  const auto [uer_min, uer_max] = RowEnds(a.distinct_uer_rows);
  const double uer_span = uer_max - uer_min;

  // Half-bank aliasing indicator: minimal |pairwise distance - rows/2| over
  // distinct UER row pairs (the signature of half total-row clusters). At
  // most max_uers distinct rows, so the pair loop is O(1).
  double half_alias_gap = kMissing;
  {
    const std::vector<std::uint32_t>& distinct = a.distinct_uer_rows;
    const double half = static_cast<double>(topology_.rows_per_bank) / 2.0;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      for (std::size_t j = i + 1; j < distinct.size(); ++j) {
        const double gap = std::fabs(
            std::fabs(static_cast<double>(distinct[j]) -
                      static_cast<double>(distinct[i])) -
            half);
        if (half_alias_gap == kMissing || gap < half_alias_gap) {
          half_alias_gap = gap;
        }
      }
    }
  }

  const Summary uer_row_diff = ChainSummary(a.uer_row_diff, uer_events);
  const Summary all_row_diff =
      ChainSummary(a.all_row_diff, a.ce_total + a.ueo_total + uer_events);
  const Summary ce_dt = ChainSummary(a.ce_dt, a.ce_total);
  const Summary ueo_dt = ChainSummary(a.ueo_dt, a.ueo_total);
  const Summary uer_dt = ChainSummary(a.uer_dt, uer_events);

  const double uer_time_span =
      uer_events < 2 ? kMissing
                     : a.last_uer_time - profile.uer().first_uer_time;

  std::vector<double> features = {
      a.ce_total == 0 ? kMissing : a.ce_row_min,
      a.ce_total == 0 ? kMissing : a.ce_row_max,
      a.ueo_total == 0 ? kMissing : a.ueo_row_min,
      a.ueo_total == 0 ? kMissing : a.ueo_row_max,
      uer_min, uer_max, uer_span,
      uer_span / static_cast<double>(topology_.rows_per_bank),
      uer_row_diff.min, uer_row_diff.max, uer_row_diff.avg,
      all_row_diff.min, all_row_diff.max, all_row_diff.avg,
      half_alias_gap,
      ce_dt.min, ce_dt.max, ce_dt.avg,
      ueo_dt.min, ueo_dt.max, ueo_dt.avg,
      uer_dt.min, uer_dt.max, uer_dt.avg,
      uer_time_span,
      a.ce_before_first_uer, a.ueo_before_first_uer,
      static_cast<double>(a.ce_total),
      static_cast<double>(a.ueo_total),
      static_cast<double>(a.distinct_uer_rows.size()),
  };
  CORDIAL_CHECK_MSG(features.size() == feature_names_.size(),
                    "classification feature arity drifted");
  return features;
}

// ------------------------------------------------------------ block window

std::optional<std::pair<std::uint32_t, std::uint32_t>> BlockWindow::BlockRange(
    std::size_t i) const {
  CORDIAL_CHECK_MSG(i < n_blocks, "block index out of range");
  const std::int64_t lo =
      WindowStart() + static_cast<std::int64_t>(i) * block_size;
  const std::int64_t hi = lo + static_cast<std::int64_t>(block_size) - 1;
  const std::int64_t bank_hi = static_cast<std::int64_t>(rows_per_bank) - 1;
  if (hi < 0 || lo > bank_hi) return std::nullopt;
  return std::make_pair(
      static_cast<std::uint32_t>(std::max<std::int64_t>(lo, 0)),
      static_cast<std::uint32_t>(std::min(hi, bank_hi)));
}

std::optional<std::size_t> BlockWindow::BlockOf(std::uint32_t row) const {
  const std::int64_t offset = static_cast<std::int64_t>(row) - WindowStart();
  if (offset < 0) return std::nullopt;
  const auto block = static_cast<std::size_t>(offset / block_size);
  if (block >= n_blocks) return std::nullopt;
  return block;
}

// --------------------------------------------------------------- cross-row

CrossRowFeatureExtractor::CrossRowFeatureExtractor(
    const hbm::TopologyConfig& topology, std::uint32_t block_size,
    std::uint32_t n_blocks)
    : topology_(topology), block_size_(block_size), n_blocks_(n_blocks) {
  topology_.Validate();
  CORDIAL_CHECK_MSG(block_size_ > 0 && n_blocks_ > 0,
                    "block geometry must be non-trivial");
  CORDIAL_CHECK_MSG(n_blocks_ % 2 == 0,
                    "window must have an even number of blocks");
  feature_names_ = {
      // block geometry
      "block_index", "block_center_offset", "block_abs_offset",
      "anchor_row_ratio",
      // spatial proximity of earlier errors to the block
      "nearest_ce_row_dist", "nearest_ueo_row_dist", "nearest_uer_row_dist",
      "ce_rows_in_block", "ueo_rows_in_block", "uer_rows_in_block",
      "uer_rows_in_window", "uer_rows_within_8",
      // bank spatial profile
      "uer_row_diff_min", "uer_row_diff_max", "uer_row_diff_avg",
      "all_row_diff_min", "all_row_diff_max", "all_row_diff_avg",
      "uer_row_span",
      // strip-geometry features
      "est_stride", "block_offset_fold_stride", "block_k_positions",
      // temporal profile
      "ce_dt_min", "ce_dt_max", "ueo_dt_min", "ueo_dt_max",
      "uer_dt_min", "uer_dt_max", "uer_dt_avg",
      "time_since_last_event", "time_since_first_uer",
      // counts
      "ce_count", "ueo_count", "uer_count", "uce_count", "all_count",
  };
}

BlockWindow CrossRowFeatureExtractor::WindowAt(std::uint32_t anchor_row) const {
  BlockWindow w;
  w.anchor_row = anchor_row;
  w.block_size = block_size_;
  w.n_blocks = n_blocks_;
  w.rows_per_bank = topology_.rows_per_bank;
  return w;
}

std::vector<double> CrossRowFeatureExtractor::Extract(
    const trace::BankHistory& bank, double anchor_time_s,
    std::uint32_t anchor_row, std::size_t block) const {
  BankProfile profile;
  for (const trace::MceRecord& r : bank.events) {
    if (r.time_s > anchor_time_s) break;
    profile.Observe(r);
  }
  return ExtractFromProfile(profile, anchor_time_s, anchor_row, block);
}

std::vector<double> CrossRowFeatureExtractor::ExtractFromProfile(
    const BankProfile& profile, double anchor_time_s,
    std::uint32_t anchor_row, std::size_t block) const {
  std::vector<double> features(num_features());
  ExtractFromProfile(profile, anchor_time_s, anchor_row, block, features);
  return features;
}

void CrossRowFeatureExtractor::ExtractFromProfile(
    const BankProfile& profile, double anchor_time_s,
    std::uint32_t anchor_row, std::size_t block,
    std::span<double> out) const {
  const BlockWindow window = WindowAt(anchor_row);
  const auto range = window.BlockRange(block);
  CORDIAL_CHECK_MSG(range.has_value(),
                    "cannot extract features for an out-of-bank block");
  const UerBlock& u = profile.uer();
  CORDIAL_CHECK_MSG(u.uer_count >= 1,
                    "cross-row features need at least one prior UER");
  CORDIAL_CHECK_MSG(profile.last_time_s() <= anchor_time_s,
                    "profile contains events newer than the anchor");
  const double block_center =
      0.5 * (static_cast<double>(range->first) +
             static_cast<double>(range->second));

  // Sorted distinct rows make proximity a two-candidate binary search. The
  // minimum distance over distinct rows equals the batch minimum over all
  // rows, computed with the same |row - center| arithmetic.
  auto nearest_dist = [&](const std::vector<std::uint32_t>& rows) {
    double best = kMissing;
    const auto it =
        std::lower_bound(rows.begin(), rows.end(), block_center, RowBelow);
    if (it != rows.end()) {
      best = std::fabs(static_cast<double>(*it) - block_center);
    }
    if (it != rows.begin()) {
      const double d = std::fabs(static_cast<double>(*(it - 1)) - block_center);
      if (best == kMissing || d < best) best = d;
    }
    return best;
  };
  auto rows_in_span = [](const std::vector<std::uint32_t>& rows, double lo,
                         double hi) {
    return static_cast<double>(
        std::upper_bound(rows.begin(), rows.end(), hi, RowAbove) -
        std::lower_bound(rows.begin(), rows.end(), lo, RowBelow));
  };
  auto rows_in_range = [&](const std::vector<std::uint32_t>& rows) {
    return rows_in_span(rows, static_cast<double>(range->first),
                        static_cast<double>(range->second));
  };

  const double anchor = static_cast<double>(anchor_row);
  const double radius = static_cast<double>(window.radius());
  const double uer_in_window =
      rows_in_span(u.uer_rows, anchor - radius, anchor + radius);
  const double uer_within_8 = rows_in_span(u.uer_rows, anchor - 8.0,
                                           anchor + 8.0);

  const std::size_t events = profile.event_count();
  const Summary uer_row_diff = ChainSummary(u.uer_row_diff, u.uer_count);
  const Summary all_row_diff = ChainSummary(profile.all_row_diff(), events);
  const Summary ce_dt = ChainSummary(profile.ce_dt(), profile.ce_count());
  const Summary ueo_dt = ChainSummary(profile.ueo_dt(), profile.ueo_count());
  const Summary uer_dt = ChainSummary(u.uer_dt, u.uer_count);

  const auto [uer_min, uer_max] = RowEnds(u.uer_rows);
  const double uer_span = uer_max - uer_min;

  // Strip geometry: fold the block offset onto the estimated stride. A
  // block sitting on a strip position folds to ~0 and is a likely target.
  const std::uint32_t stride = u.EstimatedUerStride();
  double fold = kMissing;
  double k_positions = kMissing;
  if (stride > 0) {
    // Fold relative to the nearest prior UER row, not the anchor alone:
    // strip positions repeat from any failed row.
    const double nearest_uer = nearest_dist(u.uer_rows);
    const double mod = std::fmod(nearest_uer, static_cast<double>(stride));
    fold = std::min(mod, static_cast<double>(stride) - mod);
    k_positions = nearest_uer / static_cast<double>(stride);
  }

  const double features[] = {
      static_cast<double>(block),
      block_center - anchor,
      std::fabs(block_center - anchor),
      anchor / static_cast<double>(topology_.rows_per_bank),
      nearest_dist(profile.ce_rows()), nearest_dist(profile.ueo_rows()),
      nearest_dist(u.uer_rows),
      rows_in_range(profile.ce_rows()), rows_in_range(profile.ueo_rows()),
      rows_in_range(u.uer_rows),
      uer_in_window, uer_within_8,
      uer_row_diff.min, uer_row_diff.max, uer_row_diff.avg,
      all_row_diff.min, all_row_diff.max, all_row_diff.avg,
      uer_span,
      stride == 0 ? kMissing : static_cast<double>(stride), fold, k_positions,
      ce_dt.min, ce_dt.max, ueo_dt.min, ueo_dt.max,
      uer_dt.min, uer_dt.max, uer_dt.avg,
      events == 0 ? kMissing : anchor_time_s - profile.last_time_s(),
      anchor_time_s - u.first_uer_time,
      static_cast<double>(profile.ce_count()),
      static_cast<double>(profile.ueo_count()),
      static_cast<double>(u.uer_count),
      static_cast<double>(profile.ueo_count() + u.uer_count),
      static_cast<double>(events),
  };
  CORDIAL_CHECK_MSG(std::size(features) == feature_names_.size(),
                    "cross-row feature arity drifted");
  CORDIAL_CHECK_MSG(out.size() == std::size(features),
                    "cross-row feature buffer is not one row wide");
  std::copy(std::begin(features), std::end(features), out.begin());
}

}  // namespace cordial::core
