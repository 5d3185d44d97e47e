// Feature extraction for Cordial (paper §IV-B and §IV-D).
//
// Two extractors, both consuming nothing but a bank's MCE history:
//
//  * ClassificationFeatureExtractor — per-bank features from all CEs/UEOs
//    plus the FIRST THREE UER events (the paper's pragmatic trade-off for
//    early pattern identification): spatial (row extrema, consecutive row
//    differences), temporal (consecutive inter-arrival extrema per type),
//    and count features (error density before the first UER).
//
//  * CrossRowFeatureExtractor — per-(anchor, block) features for the
//    block-level UER prediction: the +/-64-row window around the last
//    observed UER row is divided into 16 blocks of 8 rows, and each block
//    gets geometry features (offset from anchor, proximity of earlier
//    errors) on top of the bank's spatial/temporal/count profile.
//
// Missing quantities (e.g. no UEO observed) are encoded with the sentinel
// kMissing, which tree learners isolate with a single split.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <span>
#include <vector>

#include "core/bank_profile.hpp"
#include "hbm/topology.hpp"
#include "trace/error_log.hpp"

namespace cordial::core {

inline constexpr double kMissing = -1.0;

/// A bank's history truncated at the classification trigger: all CE/UEO
/// events up to (and including) the time of the `max_uers`-th UER event,
/// plus the first `max_uers` UER events themselves.
struct TruncatedHistory {
  std::vector<trace::MceRecord> events;  ///< time-ordered, truncated
  double cutoff_s = 0.0;                 ///< time of the last included UER
  std::size_t uer_count = 0;             ///< UER events included (<= max_uers)
};

/// Truncate `bank` at its `max_uers`-th UER event (default 3, §IV-C).
/// Banks with fewer UERs are truncated at their last UER.
TruncatedHistory TruncateAtUer(const trace::BankHistory& bank,
                               std::size_t max_uers = 3);

/// Estimated repeat stride of the failing rows: the smallest gap between
/// neighbouring distinct rows that exceeds `adjacency_floor` (micro-
/// adjacency from sense-amp collateral is ignored). Sub-wordline-driver
/// faults hit every stride-th row, so this exposes the strip geometry to
/// the predictors; it is robust to occasional one-row jitter. Returns 0
/// when no usable gap exists.
std::uint32_t EstimateRowStride(const std::vector<std::uint32_t>& rows,
                                std::uint32_t adjacency_floor = 4);

class ClassificationFeatureExtractor {
 public:
  explicit ClassificationFeatureExtractor(const hbm::TopologyConfig& topology,
                                          std::size_t max_uers = 3);

  std::size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  std::size_t max_uers() const { return max_uers_; }

  /// Feature vector for one UER bank. The bank must contain at least one
  /// UER event. Thin wrapper: builds a BankProfile over the history and
  /// queries it.
  std::vector<double> Extract(const trace::BankHistory& bank) const;

  /// Feature vector from an incrementally maintained profile. The profile
  /// must have been constructed with the same max_uers and have absorbed at
  /// least one UER. Bit-identical to the batch overload fed the same
  /// events. O(1) in the history length.
  std::vector<double> ExtractFromProfile(const BankProfile& profile) const;

 private:
  hbm::TopologyConfig topology_;
  std::size_t max_uers_;
  std::vector<std::string> feature_names_;
};

/// Geometry of the prediction window around an anchor row (§IV-D: 128 rows
/// = 16 blocks x 8 rows by default).
struct BlockWindow {
  std::uint32_t anchor_row = 0;
  std::uint32_t block_size = 8;
  std::uint32_t n_blocks = 16;
  std::uint32_t rows_per_bank = 0;

  std::uint32_t radius() const { return block_size * n_blocks / 2; }
  /// First row of the (unclipped) window; may be conceptually negative,
  /// returned as int64.
  std::int64_t WindowStart() const {
    return static_cast<std::int64_t>(anchor_row) -
           static_cast<std::int64_t>(radius());
  }
  /// Row span [lo, hi] of block `i`, clipped to the bank; nullopt if the
  /// block lies entirely outside the bank.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> BlockRange(
      std::size_t i) const;
  /// Block containing `row`, or nullopt if outside the window.
  std::optional<std::size_t> BlockOf(std::uint32_t row) const;
};

class CrossRowFeatureExtractor {
 public:
  CrossRowFeatureExtractor(const hbm::TopologyConfig& topology,
                           std::uint32_t block_size = 8,
                           std::uint32_t n_blocks = 16);

  std::size_t num_features() const { return feature_names_.size(); }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  std::uint32_t block_size() const { return block_size_; }
  std::uint32_t n_blocks() const { return n_blocks_; }

  BlockWindow WindowAt(std::uint32_t anchor_row) const;

  /// Features for block `block` of the window anchored at `anchor_row`,
  /// computed from the events with time <= `anchor_time_s` in `bank`.
  /// Thin wrapper: feeds that prefix into a BankProfile and queries it.
  std::vector<double> Extract(const trace::BankHistory& bank,
                              double anchor_time_s, std::uint32_t anchor_row,
                              std::size_t block) const;

  /// Same features from an incrementally maintained profile that has
  /// absorbed exactly the events with time <= `anchor_time_s` (and at least
  /// one UER). Bit-identical to the batch overload; O(log d) per call.
  std::vector<double> ExtractFromProfile(const BankProfile& profile,
                                         double anchor_time_s,
                                         std::uint32_t anchor_row,
                                         std::size_t block) const;
  /// The same features written to `out`, which holds num_features()
  /// values; allocates nothing.
  void ExtractFromProfile(const BankProfile& profile, double anchor_time_s,
                          std::uint32_t anchor_row, std::size_t block,
                          std::span<double> out) const;

 private:
  hbm::TopologyConfig topology_;
  std::uint32_t block_size_;
  std::uint32_t n_blocks_;
  std::vector<std::string> feature_names_;
};

}  // namespace cordial::core
