#include "hbm/sparing.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace cordial::hbm {

bool SparingLedger::TrySpareRow(std::uint64_t bank_key, std::uint32_t row) {
  auto& rows = spared_rows_[bank_key];
  const auto it = std::lower_bound(rows.begin(), rows.end(), row);
  if (it != rows.end() && *it == row) return true;  // idempotent
  if (rows.size() >= budget_.rows_per_bank) return false;
  rows.insert(it, row);
  ++rows_spared_;
  return true;
}

bool SparingLedger::TrySpareBank(std::uint64_t bank_key) {
  if (!budget_.bank_sparing_available) return false;
  if (spared_banks_.contains(bank_key)) return true;  // idempotent
  spared_banks_.insert(bank_key);
  ++banks_spared_;
  return true;
}

bool SparingLedger::IsRowSpared(std::uint64_t bank_key,
                                std::uint32_t row) const {
  const auto it = spared_rows_.find(bank_key);
  return it != spared_rows_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), row);
}

bool SparingLedger::IsBankSpared(std::uint64_t bank_key) const {
  return spared_banks_.contains(bank_key);
}

const std::vector<std::uint32_t>* SparingLedger::FindRowEntry(
    std::uint64_t bank_key) const {
  const auto it = spared_rows_.find(bank_key);
  return it == spared_rows_.end() ? nullptr : &it->second;
}

void SparingLedger::RestoreBankSection(std::uint64_t bank_key,
                                       bool has_row_entry,
                                       std::vector<std::uint32_t> rows,
                                       bool bank_spared) {
  if (has_row_entry) {
    // A checkpoint's rows are already ascending and distinct.
    if (std::adjacent_find(rows.begin(), rows.end(),
                           std::greater_equal<>()) != rows.end()) {
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
    spared_rows_[bank_key] = std::move(rows);
  } else {
    spared_rows_.erase(bank_key);
  }
  if (bank_spared) {
    spared_banks_.insert(bank_key);
  } else {
    spared_banks_.erase(bank_key);
  }
}

void SparingLedger::RestoreCounters(std::uint64_t rows_spared,
                                    std::uint64_t banks_spared) {
  rows_spared_ = rows_spared;
  banks_spared_ = banks_spared;
}

}  // namespace cordial::hbm
