#ifndef PERFXPLAIN_COMMON_RANDOM_H_
#define PERFXPLAIN_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/logging.h"

namespace perfxplain {

/// MT19937-64 with the parameters and seeding of std::mt19937_64, so it
/// produces exactly the standard engine's output sequence for every seed.
/// It exists for speed: the sampling replay draws once per related pair,
/// and this inline twist and tempering run several times faster than the
/// library engine's out-of-line calls. Satisfies UniformRandomBitGenerator
/// with the same result_type, min() and max(), so the standard
/// distributions consume it exactly as they consume std::mt19937_64
/// (RngTest pins both against the standard engine).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      state_[i] = 6364136223846793005ULL *
                      (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                  i;
    }
  }

  result_type operator()() {
    if (next_ == kStateSize) Twist();
    result_type x = state_[next_++];
    x ^= (x >> 29) & 0x5555555555555555ULL;
    x ^= (x << 17) & 0x71D67FFFEDA60000ULL;
    x ^= (x << 37) & 0xFFF7EEE000000000ULL;
    x ^= x >> 43;
    return x;
  }

 private:
  static constexpr std::size_t kStateSize = 312;
  static constexpr std::size_t kShift = 156;

  static result_type Mix(result_type upper, result_type lower,
                         result_type far) {
    const result_type x =
        (upper & 0xFFFFFFFF80000000ULL) | (lower & 0x7FFFFFFFULL);
    const result_type twist = result_type{0} - (x & 1);
    return far ^ (x >> 1) ^ (twist & 0xB5026F5AA96619E9ULL);
  }

  void Twist() {
    std::size_t i = 0;
    for (; i < kStateSize - kShift; ++i) {
      state_[i] = Mix(state_[i], state_[i + 1], state_[i + kShift]);
    }
    for (; i < kStateSize - 1; ++i) {
      state_[i] =
          Mix(state_[i], state_[i + 1], state_[i + kShift - kStateSize]);
    }
    state_[kStateSize - 1] =
        Mix(state_[kStateSize - 1], state_[0], state_[kShift - 1]);
    next_ = 0;
  }

  result_type state_[kStateSize];
  std::size_t next_ = kStateSize;
};

/// Deterministic pseudo-random source. Every stochastic component of the
/// library (simulator noise, balanced sampling, train/test splits) draws
/// from an explicitly seeded Rng so experiments are reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1): bit for bit what
  /// std::uniform_real_distribution<double>(0, 1) returns on this engine
  /// (generate_canonical takes one 64-bit draw x and returns x / 2^64,
  /// held below 1), without its per-call overhead.
  double Uniform() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    PX_CHECK_LE(lo, hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    PX_CHECK_LE(lo, hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Gaussian clamped to [lo, hi]; used for bounded noise factors.
  double ClampedGaussian(double mean, double stddev, double lo, double hi) {
    double v = Gaussian(mean, stddev);
    if (v < lo) v = lo;
    if (v > hi) v = hi;
    return v;
  }

  /// Exponential draw with the given mean (mean = 1/lambda).
  double Exponential(double mean) {
    PX_CHECK_GT(mean, 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Bernoulli draw.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child seed; lets components fork their own
  /// deterministic streams.
  std::uint64_t Fork() { return engine_(); }

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace perfxplain

#endif  // PERFXPLAIN_COMMON_RANDOM_H_
