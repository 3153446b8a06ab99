#pragma once

#include <cstdint>
#include <vector>

namespace h2sim::sim {

/// Deterministic PRNG (xoshiro256**, seeded via splitmix64). Every trial in
/// the reproduction is a pure function of its seed; we avoid std::mt19937 so
/// the stream is identical across standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child generator; used to give each subsystem its
  /// own stream so adding a consumer does not perturb the others.
  Rng split();

  std::uint64_t next_u64();

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t uniform(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean.
  double exponential(double mean);

  /// Gaussian via Box-Muller (mean, stddev).
  double gaussian(double mean, double stddev);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
  bool have_gauss_ = false;
  double gauss_cache_ = 0.0;
};

}  // namespace h2sim::sim
