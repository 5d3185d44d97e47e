#include "hbm/sparing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <vector>

namespace cordial::hbm {
namespace {

TEST(SparingLedger, RowSparingIsIdempotent) {
  SparingLedger ledger;
  EXPECT_TRUE(ledger.TrySpareRow(1, 100));
  EXPECT_TRUE(ledger.TrySpareRow(1, 100));
  EXPECT_EQ(ledger.rows_spared(), 1u);
  EXPECT_TRUE(ledger.IsRowSpared(1, 100));
  EXPECT_FALSE(ledger.IsRowSpared(1, 101));
  EXPECT_FALSE(ledger.IsRowSpared(2, 100));
}

TEST(SparingLedger, RowBudgetIsPerBank) {
  SparingBudget budget;
  budget.rows_per_bank = 2;
  SparingLedger ledger(budget);
  EXPECT_TRUE(ledger.TrySpareRow(1, 1));
  EXPECT_TRUE(ledger.TrySpareRow(1, 2));
  EXPECT_FALSE(ledger.TrySpareRow(1, 3));  // bank 1 exhausted
  EXPECT_TRUE(ledger.TrySpareRow(2, 3));   // bank 2 unaffected
  // Re-sparing an existing row still succeeds after exhaustion.
  EXPECT_TRUE(ledger.TrySpareRow(1, 2));
  EXPECT_EQ(ledger.rows_spared(), 3u);
}

TEST(SparingLedger, BankSparing) {
  SparingLedger ledger;
  EXPECT_FALSE(ledger.IsBankSpared(7));
  EXPECT_TRUE(ledger.TrySpareBank(7));
  EXPECT_TRUE(ledger.TrySpareBank(7));  // idempotent
  EXPECT_EQ(ledger.banks_spared(), 1u);
  EXPECT_TRUE(ledger.IsBankSpared(7));
}

TEST(SparingLedger, BankSparingCanBeDisabled) {
  SparingBudget budget;
  budget.bank_sparing_available = false;
  SparingLedger ledger(budget);
  EXPECT_FALSE(ledger.TrySpareBank(7));
  EXPECT_EQ(ledger.banks_spared(), 0u);
}

TEST(SparingLedger, RowIsolationIncludesBankSpares) {
  SparingLedger ledger;
  ledger.TrySpareBank(3);
  ledger.TrySpareRow(4, 50);
  EXPECT_TRUE(ledger.IsRowIsolated(3, 12345));  // any row of a spared bank
  EXPECT_TRUE(ledger.IsRowIsolated(4, 50));
  EXPECT_FALSE(ledger.IsRowIsolated(4, 51));
}

TEST(SparingLedger, CostAccounting) {
  SparingBudget budget;
  budget.row_spare_cost = 1.0;
  budget.bank_spare_cost = 512.0;
  SparingLedger ledger(budget);
  ledger.TrySpareRow(1, 1);
  ledger.TrySpareRow(1, 2);
  ledger.TrySpareBank(9);
  EXPECT_DOUBLE_EQ(ledger.total_cost(), 2.0 + 512.0);
}

/// The bank's entry is ascending with no repeats.
void ExpectSortedDistinct(const SparingLedger& ledger, std::uint64_t bank) {
  const std::vector<std::uint32_t>* rows = ledger.FindRowEntry(bank);
  ASSERT_NE(rows, nullptr);
  EXPECT_TRUE(std::adjacent_find(rows->begin(), rows->end(),
                                 std::greater_equal<>()) == rows->end());
}

TEST(SparingLedger, RowEntriesStaySortedAndDistinct) {
  // Rows arrive out of order, repeated and past the budget; the entry is
  // the first `rows_per_bank` distinct rows asked for, ascending, and
  // rows_spared counts each once.
  SparingBudget budget;
  budget.rows_per_bank = 40;
  SparingLedger ledger(budget);
  std::mt19937 rng(20261020);
  std::set<std::uint32_t> expected;
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t row = rng() % 64;
    const bool room = expected.size() < budget.rows_per_bank;
    const bool spared = ledger.TrySpareRow(5, row);
    EXPECT_EQ(spared, room || expected.contains(row)) << "row " << row;
    if (room) expected.insert(row);
    ExpectSortedDistinct(ledger, 5);
  }
  ASSERT_EQ(expected.size(), budget.rows_per_bank);
  EXPECT_EQ(*ledger.FindRowEntry(5),
            std::vector<std::uint32_t>(expected.begin(), expected.end()));
  EXPECT_EQ(ledger.rows_spared(), budget.rows_per_bank);
  for (std::uint32_t row = 0; row < 64; ++row) {
    EXPECT_EQ(ledger.IsRowSpared(5, row), expected.contains(row));
  }
  EXPECT_EQ(ledger.FindRowEntry(6), nullptr);
}

TEST(SparingLedger, RestoredSectionsStaySortedAndDistinct) {
  SparingLedger ledger;
  ledger.RestoreBankSection(3, true, {9, 2, 9, 4, 2}, false);
  ExpectSortedDistinct(ledger, 3);
  EXPECT_EQ(*ledger.FindRowEntry(3), (std::vector<std::uint32_t>{2, 4, 9}));
  // A restored entry takes further rows in order, and a bank without an
  // entry has none after a restore that says so.
  EXPECT_TRUE(ledger.TrySpareRow(3, 3));
  EXPECT_EQ(*ledger.FindRowEntry(3), (std::vector<std::uint32_t>{2, 3, 4, 9}));
  ledger.RestoreBankSection(3, true, {1, 5}, true);
  EXPECT_EQ(*ledger.FindRowEntry(3), (std::vector<std::uint32_t>{1, 5}));
  EXPECT_TRUE(ledger.IsBankSpared(3));
  ledger.RestoreBankSection(3, false, {}, false);
  EXPECT_EQ(ledger.FindRowEntry(3), nullptr);
  EXPECT_FALSE(ledger.IsBankSpared(3));
  // An empty entry survives as one: TrySpareRow makes it with no budget.
  ledger.RestoreBankSection(4, true, {}, false);
  ASSERT_NE(ledger.FindRowEntry(4), nullptr);
  EXPECT_TRUE(ledger.FindRowEntry(4)->empty());
}

}  // namespace
}  // namespace cordial::hbm
