// Deterministic random number generation for the simulator.
//
// All stochastic behaviour in WGTT's simulation (fading, packet errors,
// contention backoff) flows from one seeded root generator, so a scenario is
// exactly reproducible from its seed. xoshiro256++ is used for speed; the
// fading model draws millions of variates per simulated second.
#pragma once

#include <array>
#include <cstdint>

namespace wgtt {

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via splitmix64.
class Rng {
 public:
  /// Seeds the four 64-bit lanes by iterating splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with given mean.
  double exponential(double mean);

  /// Bernoulli trial.
  bool chance(double p);

  /// chance(p) for a p that is costly to compute (`p_fn()`), given bounds
  /// p_floor <= p <= p_ceiling. When 0 < p_floor and p_ceiling < 1,
  /// chance(p) draws exactly one uniform u and returns u < p, so u is drawn
  /// first and p_fn runs only if u < p_ceiling leaves the outcome open;
  /// otherwise this is chance(p_fn()). Outcome and stream are chance(p)'s.
  template <class PFn>
  bool chance_bounded(double p_floor, double p_ceiling, PFn&& p_fn) {
    if (p_floor > 0.0 && p_ceiling < 1.0) {
      const double u = uniform();
      return u < p_ceiling && u < p_fn();
    }
    return chance(p_fn());
  }

  /// Derives an independently seeded child generator. Used to give each
  /// channel tap / client / module its own stream while keeping the whole
  /// simulation a function of one root seed.
  Rng fork();

  // UniformRandomBitGenerator interface, so std::shuffle etc. work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace wgtt
