#include "common/key_table.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace dbscout {
namespace {

TEST(KeyTableTest, NumbersKeysByFirstAppearance) {
  KeyTable<std::string> table;
  EXPECT_EQ(table.IdOf("b"), 0u);
  EXPECT_EQ(table.IdOf("a"), 1u);
  EXPECT_EQ(table.IdOf("b"), 0u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.keys(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(table.Find("a"), 1u);
  EXPECT_EQ(table.Find("c"), KeyTable<std::string>::kAbsent);
}

// Integer keys hash to themselves under std::hash; the table must still
// spread them, and keep every id through its growth.
TEST(KeyTableTest, DenseIntegerKeysSurviveGrowth) {
  KeyTable<uint32_t> table;
  constexpr uint32_t kKeys = 100000;
  for (uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.IdOf(k * 64), k);
  }
  for (uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(table.Find(k * 64), k);
    ASSERT_EQ(table.Find(k * 64 + 1), KeyTable<uint32_t>::kAbsent);
  }
  EXPECT_EQ(table.size(), kKeys);
}

}  // namespace
}  // namespace dbscout
