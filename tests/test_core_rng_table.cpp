// Tests for the deterministic RNG and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "core/table.h"

using wild5g::Rng;
using wild5g::Table;

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(5);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng child1 = parent.fork(1);
  Rng child1_again = Rng(99).fork(1);
  Rng child2 = parent.fork(2);
  EXPECT_DOUBLE_EQ(child1.uniform(0.0, 1.0), child1_again.uniform(0.0, 1.0));
  // Nearby salts should not produce identical streams.
  Rng c1 = Rng(99).fork(1);
  Rng c2 = Rng(99).fork(2);
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (c1.uniform(0.0, 1.0) != c2.uniform(0.0, 1.0)) differ = true;
  }
  EXPECT_TRUE(differ);
  (void)child2;
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickRejectsEmpty) {
  Rng rng(9);
  std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(std::span<const int>(empty)), wild5g::Error);
}

TEST(Table, RendersHeaderAndRows) {
  Table table("Demo");
  table.set_header({"a", "b"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  Table table("Demo");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), wild5g::Error);
}

TEST(Table, RowBeforeHeaderThrows) {
  Table table("Demo");
  EXPECT_THROW(table.add_row({"x"}), wild5g::Error);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table table("Demo");
  table.set_header({"name", "value"});
  table.add_row({"a,b", "say \"hi\""});
  std::ostringstream os;
  table.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"a,b\""), std::string::npos);
  EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}
