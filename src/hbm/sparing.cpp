#include "hbm/sparing.hpp"

#include <vector>

namespace cordial::hbm {

bool SparingLedger::TrySpareRow(std::uint64_t bank_key, std::uint32_t row) {
  auto& rows = spared_rows_[bank_key];
  if (rows.contains(row)) return true;  // idempotent
  if (rows.size() >= budget_.rows_per_bank) return false;
  rows.insert(row);
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
  auto it = spared_rows_.find(bank_key);
  return it != spared_rows_.end() && it->second.contains(row);
}

bool SparingLedger::IsBankSpared(std::uint64_t bank_key) const {
  return spared_banks_.contains(bank_key);
}

const std::unordered_set<std::uint32_t>* SparingLedger::FindRowEntry(
    std::uint64_t bank_key) const {
  const auto it = spared_rows_.find(bank_key);
  return it == spared_rows_.end() ? nullptr : &it->second;
}

void SparingLedger::RestoreBankSection(std::uint64_t bank_key,
                                       bool has_row_entry,
                                       const std::vector<std::uint32_t>& rows,
                                       bool bank_spared) {
  if (has_row_entry) {
    auto& entry = spared_rows_[bank_key];
    entry.clear();
    entry.insert(rows.begin(), rows.end());
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
