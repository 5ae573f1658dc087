// Shared helpers for the GlueFL test suite: tiny datasets / models that
// keep engine-level tests fast on small machines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/federated_dataset.h"
#include "fl/engine.h"
#include "fl/sim_config.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/model.h"
#include "nn/proxies.h"

namespace gluefl::testing {

inline SyntheticSpec tiny_spec(int clients = 60, uint64_t seed = 7) {
  SyntheticSpec s;
  s.name = "tiny";
  s.num_clients = clients;
  s.num_classes = 4;
  s.feature_dim = 8;
  s.dirichlet_alpha = 0.5;
  s.class_sep = 2.5;
  s.noise_sd = 0.8;
  s.label_noise = 0.0;
  s.size_mu_log = 3.3;
  s.size_sigma_log = 0.4;
  s.min_samples = 10;
  s.max_samples = 60;
  s.test_samples = 200;
  s.seed = seed;
  return s;
}

/// Tiny two-layer MLP proxy matching tiny_spec dimensions.
inline ModelProxy tiny_proxy(bool with_bn = true) {
  FlatModel m(8, 4);
  m.add(std::make_unique<Linear>(8, 16));
  if (with_bn) m.add(std::make_unique<BatchNorm1d>(16));
  m.add(std::make_unique<ReLU>(16));
  m.add(std::make_unique<Linear>(16, 4));
  m.finalize();
  return ModelProxy{"tiny", std::move(m), 1e6};
}

inline TrainConfig tiny_train_config() {
  TrainConfig t;
  t.local_steps = 4;
  t.batch_size = 8;
  t.lr0 = 0.05;
  return t;
}

inline RunConfig tiny_run_config(int rounds = 20, int k = 6,
                                 uint64_t seed = 42) {
  RunConfig r;
  r.rounds = rounds;
  r.clients_per_round = k;
  r.overcommit = 1.0;
  r.eval_every = 5;
  r.use_availability = false;
  r.seed = seed;
  r.num_threads = 1;
  return r;
}

/// 64-bit FNV-1a over raw bytes, for pinning hashes of whole outputs.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    bytes(v.data(), v.size() * sizeof(T));
  }
  template <typename T>
  void add(T v) {
    bytes(&v, sizeof v);
  }
};

/// Random ascending support of exactly min(k, dim) coordinates
/// (selection sampling), shared by the wire tests and the fuzz smoke.
inline std::vector<uint32_t> random_support(size_t dim, size_t k, Rng& rng) {
  std::vector<uint32_t> idx;
  size_t need = std::min(k, dim);
  idx.reserve(need);
  for (size_t j = 0; j < dim && need > 0; ++j) {
    const double p = static_cast<double>(need) / static_cast<double>(dim - j);
    if (rng.uniform() < p) {
      idx.push_back(static_cast<uint32_t>(j));
      --need;
    }
  }
  return idx;
}

inline std::vector<float> random_vals(size_t n, Rng& rng, double lo = -2.0,
                                      double hi = 2.0) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

}  // namespace gluefl::testing
