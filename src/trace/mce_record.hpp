// MCE log record (§V-A): every CE / UEO / UER event carries a timestamp,
// the full device address and the error type — the exact tuple the paper's
// BMC-collected logs record and the only input Cordial consumes.
#pragma once

#include <compare>
#include <string>

#include "hbm/address.hpp"
#include "hbm/ecc.hpp"

namespace cordial::trace {

struct MceRecord {
  double time_s = 0.0;  ///< seconds since observation-window start
  hbm::DeviceAddress address;
  hbm::ErrorType type = hbm::ErrorType::kCe;

  /// Time order with address as tie-break so sorting is deterministic.
  friend bool operator<(const MceRecord& a, const MceRecord& b) {
    if (a.time_s != b.time_s) return a.time_s < b.time_s;
    if (a.address != b.address) return a.address < b.address;
    return static_cast<int>(a.type) < static_cast<int>(b.type);
  }
  friend bool operator==(const MceRecord& a, const MceRecord& b) {
    return a.time_s == b.time_s && a.address == b.address && a.type == b.type;
  }

  std::string ToString() const;
};

/// What a stream consumer does with a record whose timestamp precedes the
/// newest one it has accepted. Closed logs are pre-sorted, so a timestamp
/// that moves backwards there is a caller bug; a live feed aggregated from
/// thousands of BMCs is not so clean, and dropping (and counting) the stale
/// record keeps the server up.
enum class TimeSkewPolicy {
  kThrow,  ///< contract violation — correct for sorted/offline feeds
  kDrop,   ///< discard the record and count it
};

}  // namespace cordial::trace
