// Deterministic random number generation.
//
// All stochastic behaviour in the simulator (fading, body motion, city
// population, packet loss) draws from a seeded engine so every experiment
// is exactly reproducible; benchmarks print their seed.
#pragma once

#include <cstdint>
#include <limits>
#include <random>

namespace politewifi {

/// A seeded PRNG wrapper. Thin layer over std::mt19937_64 with convenience
/// distributions; pass by reference, never copy accidentally (copying forks
/// the stream — allowed but must be explicit via fork()).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Uniform double in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal (mean 0, stddev 1).
  double gaussian() { return std::normal_distribution<double>(0.0, 1.0)(engine_); }

  double gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Exponential with the given mean (inter-arrival times).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// The uniform in [0, 1) that bernoulli(p) compares p against, from the
  /// same one engine output: bernoulli(p) == (canonical() < p), draw for
  /// draw. Lets a caller draw first and decide u < p without computing p
  /// when a bound on p already settles it.
  double canonical() {
    return std::generate_canonical<double,
                                   std::numeric_limits<double>::digits>(
        engine_);
  }

  /// Derives an independent child stream; used to give each device its own
  /// RNG so adding a device does not perturb the others' randomness.
  Rng fork() { return Rng(engine_() ^ 0x5851f42d4c957f2dULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace politewifi
