#include "sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

namespace mcs::sim {
namespace {

TEST(RngTest, DeterministicForFixedSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 10.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 10.0);
    const auto n = rng.uniform_int(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng{11};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng{13};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng{17};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a{99};
  Rng child = a.fork();
  // Child stream should not replay the parent's outputs.
  Rng a2{99};
  a2.next_u64();  // fork consumed one draw
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next_u64() == a2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng{23};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    counts[rng.weighted_index({1.0, 0.0, 3.0})]++;
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

// The first outputs of the published SplitMix64 reference from state 0.
TEST(SplitMix64Test, MatchesTheReferenceStream) {
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454full);
  EXPECT_EQ(state, 3 * 0x9e3779b97f4a7c15ull);
}

TEST(ZipfTest, RanksWithinBounds) {
  Rng rng{31};
  ZipfGenerator zipf{100, 0.9};
  for (int i = 0; i < 1000; ++i) {
    const std::size_t r = zipf.next(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(ZipfTest, SkewFavorsLowRanks) {
  Rng rng{37};
  ZipfGenerator zipf{1000, 1.1};
  int top10 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.next(rng) <= 10) ++top10;
  }
  // With skew 1.1 over 1000 items, the top 10 get a large share.
  EXPECT_GT(static_cast<double>(top10) / n, 0.35);
}

TEST(ZipfTest, SingleItemAlwaysRankOne) {
  Rng rng{41};
  ZipfGenerator zipf{1, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.next(rng), 1u);
}

}  // namespace
}  // namespace mcs::sim
