#include "common/rng.h"

#include <cmath>
#include <cstring>

#include "common/check.h"

namespace gluefl {

namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int lo, int hi) {
  GLUEFL_CHECK(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  // Rejection sampling to remove modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t r;
  do {
    r = next_u64();
  } while (r >= limit);
  return static_cast<int>(static_cast<int64_t>(lo) + static_cast<int64_t>(r % span));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  has_cached_normal_ = true;
  return box_muller(u1, u2, &cached_normal_);
}

double Rng::box_muller(double u1, double u2, double* sin_half) {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  *sin_half = r * std::sin(theta);
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) { return mean + sd * normal(); }

double Rng::lognormal(double mu_log, double sigma_log) {
  return std::exp(normal(mu_log, sigma_log));
}

double Rng::gamma(double shape) {
  GLUEFL_CHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
    const double u = std::max(uniform(), 1e-300);
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang squeeze method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alpha) {
  GLUEFL_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    GLUEFL_CHECK(alpha[i] > 0.0);
    out[i] = gamma(alpha[i]);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (all gammas underflowed); fall back to uniform.
    for (auto& v : out) v = 1.0 / static_cast<double>(out.size());
    return out;
  }
  for (auto& v : out) v /= sum;
  return out;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  GLUEFL_CHECK(k >= 0 && k <= n);
  std::vector<int> pool(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
  return sample_without_replacement(pool, k);
}

std::vector<int> Rng::sample_without_replacement(const std::vector<int>& pool,
                                                 int k) {
  const int n = static_cast<int>(pool.size());
  GLUEFL_CHECK(k >= 0 && k <= n);
  std::vector<int> work = pool;
  // Partial Fisher-Yates: after k swaps the first k entries are a uniform
  // k-subset in uniform random order.
  for (int i = 0; i < k; ++i) {
    const int j = uniform_int(i, n - 1);
    std::swap(work[static_cast<size_t>(i)], work[static_cast<size_t>(j)]);
  }
  work.resize(static_cast<size_t>(k));
  return work;
}

Rng::State Rng::state() const {
  State st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  std::memcpy(&st.cached_normal_bits, &cached_normal_, 8);
  st.has_cached_normal = has_cached_normal_;
  return st;
}

void Rng::set_state(const State& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  std::memcpy(&cached_normal_, &st.cached_normal_bits, 8);
  has_cached_normal_ = st.has_cached_normal;
}

Rng Rng::fork(uint64_t stream) const {
  // Mix current state with the stream id through splitmix64 so that
  // distinct streams yield decorrelated generators.
  uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^ (stream * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
  Rng out(splitmix64(mix));
  return out;
}

}  // namespace gluefl
