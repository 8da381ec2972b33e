#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace mcs::sim {

// Deterministic random stream. Every stochastic component takes an explicit
// Rng (or a seed) so that whole-system runs replay exactly.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  std::uint64_t next_u64() { return engine_(); }

  // Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
  }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }
  // Pareto with given scale (minimum) and shape alpha; heavy-tailed sizes.
  double pareto(double scale, double alpha) {
    double u;
    do {
      u = uniform();
    } while (u == 0.0);
    return scale / std::pow(u, 1.0 / alpha);
  }

  // Derive an independent child stream; deterministic given parent state.
  Rng fork() { return Rng{next_u64() ^ 0x9e3779b97f4a7c15ull}; }

  // Pick an index in [0, weights.size()) with probability proportional to
  // weights. Weights must be non-negative and not all zero.
  std::size_t weighted_index(const std::vector<double>& weights);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// SplitMix64 (Steele, Lea and Flood, 2014): the next 64-bit output of the
// stream whose state is `state`, one add and three xor-shift-multiply
// rounds. For bulk filler bytes keyed by one Rng draw, where Rng's engine
// would cost several times as much per word.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Zipf-distributed ranks in [1, n]; precomputes the CDF once. Models skewed
// content popularity (hot products, popular pages).
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double skew);

  // Returns a rank in [1, n]; rank 1 is the most popular item.
  std::size_t next(Rng& rng) const;

  std::size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace mcs::sim
