// Exactness checks of the batched Box-Muller behind client shards
// (DESIGN.md §2 "Client shards"), shared by test_data, which asserts them
// at a reduced scale under every GEMM tier, and derive_full_check, which
// runs them at scale 1 (`cmake --build build --target derive_full_check`).
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/box_muller.h"
#include "data/federated_dataset.h"
#include "data/presets.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl::testing {

/// One preset derived under a tier against the scalar path.
struct PresetCheck {
  std::string name;
  int shards = 0;
  /// Shards whose samples start with a cached Box-Muller half, so that
  /// each sample's last pair carries its second half into the next one.
  int carried = 0;
  int mismatched = 0;  // shards whose bytes differ from the scalar path's
  bool test_set_equal = false;
  uint64_t fallbacks = 0;  // normals the rounding test recomputed
};

/// Every shard and the test set of the three presets at `scale`, derived
/// under `tier` and under the scalar path (the 4-lane GEMM tier), shard by
/// shard. Leaves the 4-lane tier forced; the caller restores its own.
inline std::vector<PresetCheck> check_presets_match_scalar(
    detail::GemmTier tier, double scale) {
  telemetry::reset();
  telemetry::configure({});
  std::vector<PresetCheck> out;
  for (const auto& make : {openimage_spec, femnist_spec, speech_spec}) {
    const SyntheticSpec spec = make(scale, 42);
    PresetCheck c;
    c.name = spec.name;
    detail::set_gemm_tier(detail::GemmTier::kLanes4);
    const FederatedDataset scalar = make_synthetic_dataset(spec);
    detail::set_gemm_tier(tier);
    const FederatedDataset ds = make_synthetic_dataset(spec);
    c.test_set_equal =
        ds.test_x == scalar.test_x && ds.test_y == scalar.test_y;
    const uint64_t fallbacks_before =
        telemetry::value(telemetry::kDataShardFallbacks);
    c.shards = ds.num_clients();
    for (int i = 0; i < ds.num_clients(); ++i) {
      detail::set_gemm_tier(detail::GemmTier::kLanes4);
      const ClientShard want = scalar.derive_shard(i);
      detail::set_gemm_tier(tier);
      const ClientShard got = ds.derive_shard(i);
      if (got.n != want.n || got.y != want.y ||
          std::memcmp(got.x.data(), want.x.data(),
                      got.x.size() * sizeof(float)) != 0) {
        ++c.mismatched;
      }
      // Replays the stream up to the first sample (derive_shard's doc).
      Rng cr = ds.rng.fork(0x10000 + static_cast<uint64_t>(i));
      (void)cr.lognormal(spec.size_mu_log, spec.size_sigma_log);
      (void)cr.dirichlet(std::vector<double>(
          static_cast<size_t>(spec.num_classes), spec.dirichlet_alpha));
      if (cr.has_cached_normal()) ++c.carried;
    }
    c.fallbacks =
        telemetry::value(telemetry::kDataShardFallbacks) - fallbacks_before;
    out.push_back(c);
  }
  detail::set_gemm_tier(detail::GemmTier::kLanes4);
  telemetry::reset();
  return out;
}

/// The active tier's largest distance from Rng::box_muller, in double
/// ULPs, over both halves of the hard inputs (θ near every kπ/2, u1 near 1
/// and u1 = 2^-53) and of at least `pairs` random uniform pairs, drawn as
/// Rng::normal draws them. A half whose sign differs counts as INT64_MAX.
struct BoundCheck {
  size_t pairs = 0;
  int64_t max_ulps = 0;
};

inline void add_error_bound(const std::vector<double>& u1,
                            const std::vector<double>& u2, BoundCheck& b) {
  const size_t n = u1.size();
  std::vector<double> z(2 * n);
  std::vector<float> noise(2 * n);
  detail::box_muller_tier()(u1.data(), u2.data(), n, 1.0, z.data(),
                            noise.data());
  for (size_t k = 0; k < n; ++k) {
    double want[2];
    want[0] = Rng::box_muller(u1[k], u2[k], &want[1]);
    for (size_t h = 0; h < 2; ++h) {
      const double got = z[2 * k + h];
      if (got == want[h]) continue;
      const int64_t d = std::signbit(got) != std::signbit(want[h])
                            ? INT64_MAX
                            : std::abs(std::bit_cast<int64_t>(got) -
                                       std::bit_cast<int64_t>(want[h]));
      b.max_ulps = std::max(b.max_ulps, d);
    }
  }
  b.pairs += n;
}

inline BoundCheck measure_error_bound(size_t pairs) {
  std::vector<double> u1, u2;
  for (int k = 0; k <= 4; ++k) {
    for (int64_t d = -64; d <= 64; ++d) {
      const double u = k * 0.25 + std::ldexp(static_cast<double>(d), -53);
      if (u < 0.0 || u >= 1.0) continue;
      u1.push_back(0.75);
      u2.push_back(u);
    }
  }
  for (int64_t d = 1; d <= 64; ++d) {
    u1.push_back(1.0 - std::ldexp(static_cast<double>(d), -53));
    u2.push_back(0.3);
  }
  u1.push_back(0x1.0p-53);
  u2.push_back(0.1);
  while (u1.size() % 8 != 0) {
    u1.push_back(0.5);
    u2.push_back(0.5);
  }
  BoundCheck b;
  add_error_bound(u1, u2, b);
  // Random pairs in blocks, so 10^8 of them need little memory.
  constexpr size_t kBlock = size_t{1} << 16;
  Rng rng(20261021);
  u1.resize(kBlock);
  u2.resize(kBlock);
  while (b.pairs < pairs) {
    for (size_t k = 0; k < kBlock; ++k) {
      u1[k] = rng.uniform();
      while (u1[k] <= 0.0) u1[k] = rng.uniform();
      u2[k] = rng.uniform();
    }
    add_error_bound(u1, u2, b);
  }
  return b;
}

}  // namespace gluefl::testing
