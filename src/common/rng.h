// Deterministic, splittable random number generation.
//
// Every stochastic component of the simulator draws from an explicitly
// passed Rng. Substreams are derived with fork(), so e.g. the RNG used by
// client i in round t is a pure function of (master seed, t, i); this makes
// runs exactly reproducible and lets different strategies be compared on
// identical sampling noise.
//
// The core generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 as its authors recommend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gluefl {

class Rng {
 public:
  /// Seeds the generator; any 64-bit value (including 0) is a valid seed.
  explicit Rng(uint64_t seed);

  /// Raw 64 random bits.
  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits. Inline with next_u64:
  /// shard derivation draws two per Box-Muller pair.
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in the inclusive range [lo, hi].
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller (pairs are cached).
  double normal();

  /// True when the next normal() returns the cached half of its last pair
  /// and draws nothing.
  bool has_cached_normal() const { return has_cached_normal_; }

  /// The Box-Muller transform behind normal(): r cos θ, with r sin θ in
  /// *sin_half, for r = sqrt(-2 log u1) and θ = 2π u2. Every caller shares
  /// these libm calls, so a batched derivation that recomputes a value
  /// here gets normal()'s bits.
  static double box_muller(double u1, double u2, double* sin_half);

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double sd);

  /// Log-normal: exp(N(mu_log, sigma_log)).
  double lognormal(double mu_log, double sigma_log);

  /// Gamma(shape, scale=1) via Marsaglia-Tsang; valid for any shape > 0.
  double gamma(double shape);

  /// Dirichlet sample; `alpha` entries must be positive.
  std::vector<double> dirichlet(const std::vector<double>& alpha);

  /// True with probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(uniform_int(0, static_cast<int>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// k distinct integers sampled uniformly from [0, n), in random order.
  std::vector<int> sample_without_replacement(int n, int k);

  /// k distinct elements sampled uniformly from `pool`, in random order.
  std::vector<int> sample_without_replacement(const std::vector<int>& pool, int k);

  /// Derives an independent substream; deterministic in (this state at
  /// construction, stream). Forking does not advance this generator.
  Rng fork(uint64_t stream) const;

  /// Raw generator state, exposed for the checkpoint subsystem: set_state
  /// followed by any draw sequence is bit-identical to continuing from the
  /// generator state() captured. The cached Box-Muller half is part of the
  /// state (normal() would otherwise desynchronize across a resume).
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    uint64_t cached_normal_bits = 0;
    bool has_cached_normal = false;
  };
  State state() const;
  void set_state(const State& st);

 private:
  static uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;

  friend class RngTestPeer;
};

}  // namespace gluefl
