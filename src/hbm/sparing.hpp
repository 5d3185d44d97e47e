// Sparing-resource model (row sparing and bank sparing).
//
// §I/§II-C of the paper: row sparing remaps a failing row onto a spare row
// within the bank at low cost; bank sparing retires a whole bank and is far
// more expensive in redundancy. Cordial's isolation policy spends these
// resources; this ledger tracks what was spent and what is isolated, and is
// what the Isolation Coverage Rate evaluation queries.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace cordial::hbm {

struct SparingBudget {
  /// Rows that can be spared (hardware spares + page offlining) per bank.
  std::uint32_t rows_per_bank = 256;
  /// Whether bank sparing is available at all.
  bool bank_sparing_available = true;
  /// Cost accounting: abstract units; a bank spare costs this many row units.
  double row_spare_cost = 1.0;
  double bank_spare_cost = 512.0;
};

/// Tracks isolation decisions across the fleet, keyed by the AddressCodec's
/// global bank key. Idempotent: re-sparing an already-spared row/bank is a
/// no-op that costs nothing. A bank's spared rows are one sorted vector of
/// distinct u32 (at most rows_per_bank of them), so a lookup is a binary
/// search and a checkpoint writes the rows as they are held.
class SparingLedger {
 public:
  explicit SparingLedger(SparingBudget budget = {}) : budget_(budget) {}

  const SparingBudget& budget() const { return budget_; }

  /// Spare one row. Returns false if the per-bank budget is exhausted.
  bool TrySpareRow(std::uint64_t bank_key, std::uint32_t row);

  /// Spare a whole bank. Returns false if bank sparing is unavailable.
  bool TrySpareBank(std::uint64_t bank_key);

  bool IsRowSpared(std::uint64_t bank_key, std::uint32_t row) const;
  bool IsBankSpared(std::uint64_t bank_key) const;

  /// A row is isolated if it was row-spared or its bank was bank-spared.
  bool IsRowIsolated(std::uint64_t bank_key, std::uint32_t row) const {
    return IsBankSpared(bank_key) || IsRowSpared(bank_key, row);
  }

  std::uint64_t rows_spared() const { return rows_spared_; }
  std::uint64_t banks_spared() const { return banks_spared_; }

  // --- per-bank slicing (checkpoints) --------------------------------------
  // The engine's state codec carries this ledger sliced per bank: each bank
  // blob holds that bank's section, the state header holds the budget and
  // global counters. A section distinguishes "no row entry" from "an entry
  // with zero rows" — TrySpareRow creates an empty entry when rows_per_bank
  // is 0 — so a restored ledger holds exactly the entries the saved one did.

  /// The bank's spared rows, ascending and distinct, or nullptr when the
  /// bank has no entry.
  const std::vector<std::uint32_t>* FindRowEntry(std::uint64_t bank_key) const;

  /// Overwrite one bank's section: replace (or erase, when !has_row_entry)
  /// its spared-row entry with `rows`, kept sorted and distinct, and set its
  /// bank-spared membership. Global counters are not touched — restore them
  /// once via RestoreCounters.
  void RestoreBankSection(std::uint64_t bank_key, bool has_row_entry,
                          std::vector<std::uint32_t> rows, bool bank_spared);

  /// Overwrite the global spend counters (checkpoint restore only).
  void RestoreCounters(std::uint64_t rows_spared, std::uint64_t banks_spared);
  double total_cost() const {
    return static_cast<double>(rows_spared_) * budget_.row_spare_cost +
           static_cast<double>(banks_spared_) * budget_.bank_spare_cost;
  }

 private:
  SparingBudget budget_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> spared_rows_;
  std::unordered_set<std::uint64_t> spared_banks_;
  std::uint64_t rows_spared_ = 0;
  std::uint64_t banks_spared_ = 0;
};

}  // namespace cordial::hbm
