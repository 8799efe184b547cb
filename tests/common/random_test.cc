#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>

namespace perfxplain {
namespace {

TEST(RngTest, EngineMatchesStdMt19937_64) {
  for (std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{17},
        (std::uint64_t{1} << 63) + 5, ~std::uint64_t{0}}) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 5000; ++i) {  // 16 twists
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " draw " << i;
    }
  }
}

/// Bit equality, so -0.0 vs +0.0 or two different NaNs would differ.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(RngTest, DrawsMatchStandardDistributionsOnTheStandardEngine) {
  // Every Rng draw must consume the engine exactly as the standard
  // distributions over std::mt19937_64 do and return the same bits, so
  // replacing the engine or Uniform's formula changes no result.
  Rng rng(2024);
  std::mt19937_64 reference(2024);
  for (int i = 0; i < 20000; ++i) {
    switch (i % 7) {
      case 0:
        ASSERT_TRUE(SameBits(
            rng.Uniform(),
            std::uniform_real_distribution<double>(0.0, 1.0)(reference)))
            << i;
        break;
      case 1:
        ASSERT_TRUE(SameBits(
            rng.Uniform(-3.5, 7.25),
            std::uniform_real_distribution<double>(-3.5, 7.25)(reference)))
            << i;
        break;
      case 2:
        ASSERT_EQ(rng.UniformInt(-5, 1000),
                  std::uniform_int_distribution<std::int64_t>(-5, 1000)(
                      reference))
            << i;
        break;
      case 3:
        ASSERT_TRUE(SameBits(
            rng.Gaussian(4.0, 2.0),
            std::normal_distribution<double>(4.0, 2.0)(reference)))
            << i;
        break;
      case 4:
        ASSERT_TRUE(SameBits(
            rng.Exponential(30.0),
            std::exponential_distribution<double>(1.0 / 30.0)(reference)))
            << i;
        break;
      case 5:
        ASSERT_EQ(rng.Bernoulli(0.3),
                  std::uniform_real_distribution<double>(0.0, 1.0)(
                      reference) < 0.3)
            << i;
        break;
      default:
        ASSERT_EQ(rng.Fork(), reference()) << i;
        break;
    }
  }
}

TEST(RngTest, UniformHoldsTheLargestDrawBelowOne) {
  // x = 2^64 - 1 rounds to 2^64, which would make the draw 1.0.
  const double u = static_cast<double>(~std::uint64_t{0}) * 0x1p-64;
  EXPECT_EQ(u, 1.0);
  struct MaxEngine {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return max(); }
  } max_engine;
  EXPECT_TRUE(SameBits(
      std::uniform_real_distribution<double>(0.0, 1.0)(max_engine),
      0x1.fffffffffffffp-1));
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.Uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.UniformInt(7, 7), 7);
}

TEST(RngTest, ClampedGaussianRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.ClampedGaussian(1.0, 0.5, 0.8, 1.2);
    EXPECT_GE(v, 0.8);
    EXPECT_LE(v, 1.2);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(4.0, 2.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, ExponentialMeanAndPositivity) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Exponential(30.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 30.0, 1.5);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(14);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) heads += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(15);
  std::vector<int> xs(50);
  std::iota(xs.begin(), xs.end(), 0);
  std::vector<int> shuffled = xs;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, xs);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, xs);
}

TEST(RngTest, ForkDecouplesStreams) {
  Rng parent(77);
  Rng child_a(parent.Fork());
  Rng child_b(parent.Fork());
  // Children seeded differently -> (almost surely) different streams.
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (child_a.Uniform() != child_b.Uniform()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace perfxplain
