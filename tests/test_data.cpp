#include "data/federated_dataset.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/lru_cache.h"
#include "data/box_muller.h"
#include "data/presets.h"
#include "derive_checks.h"
#include "gemm_tier_test.h"
#include "test_util.h"

namespace gluefl {
namespace {

using testing::Fnv1a;

SyntheticSpec small_spec() {
  SyntheticSpec s;
  s.num_clients = 50;
  s.num_classes = 5;
  s.feature_dim = 8;
  s.test_samples = 100;
  s.min_samples = 10;
  s.max_samples = 80;
  s.seed = 3;
  return s;
}

TEST(Data, ShapesAreConsistent) {
  const auto ds = make_synthetic_dataset(small_spec());
  EXPECT_EQ(ds.num_clients(), 50);
  size_t total = 0;
  for (int i = 0; i < ds.num_clients(); ++i) {
    const ClientShard c = ds.derive_shard(i);
    EXPECT_EQ(c.n, ds.sizes[static_cast<size_t>(i)]);
    EXPECT_EQ(c.x.size(), static_cast<size_t>(c.n) * 8);
    EXPECT_EQ(c.y.size(), static_cast<size_t>(c.n));
    total += static_cast<size_t>(c.n);
  }
  EXPECT_EQ(ds.total_samples, total);
  EXPECT_EQ(ds.test_x.size(), 100u * 8);
  EXPECT_EQ(ds.test_y.size(), 100u);
}

TEST(Data, ClientSizesWithinBounds) {
  const auto ds = make_synthetic_dataset(small_spec());
  for (int i = 0; i < ds.num_clients(); ++i) {
    const ClientShard c = ds.derive_shard(i);
    EXPECT_GE(c.n, 10);
    EXPECT_LE(c.n, 80);
  }
}

TEST(Data, LabelsInRange) {
  const auto ds = make_synthetic_dataset(small_spec());
  for (int i = 0; i < ds.num_clients(); ++i) {
    for (int y : ds.derive_shard(i).y) {
      EXPECT_GE(y, 0);
      EXPECT_LT(y, 5);
    }
  }
  for (int y : ds.test_y) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 5);
  }
}

TEST(Data, WeightsSumToOne) {
  const auto ds = make_synthetic_dataset(small_spec());
  double s = 0.0;
  for (double p : ds.p) {
    EXPECT_GT(p, 0.0);
    s += p;
  }
  EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Data, WeightsProportionalToSize) {
  const auto ds = make_synthetic_dataset(small_spec());
  for (int i = 0; i < ds.num_clients(); ++i) {
    EXPECT_NEAR(ds.p[static_cast<size_t>(i)],
                static_cast<double>(ds.derive_shard(i).n) /
                    static_cast<double>(ds.total_samples),
                1e-12);
  }
}

TEST(Data, DeterministicInSeed) {
  const auto a = make_synthetic_dataset(small_spec());
  const auto b = make_synthetic_dataset(small_spec());
  ASSERT_EQ(a.num_clients(), b.num_clients());
  // b derives in reverse order: a shard depends on (seed, id) only, not
  // on which shards were derived before it.
  for (int i = 0; i < a.num_clients(); ++i) {
    const int j = a.num_clients() - 1 - i;
    const ClientShard sa = a.derive_shard(j);
    const ClientShard sb = b.derive_shard(j);
    EXPECT_EQ(sa.x, sb.x);
    EXPECT_EQ(sa.y, sb.y);
    EXPECT_EQ(sa.x, a.derive_shard(j).x);  // and again, from the same set
  }
  EXPECT_EQ(a.test_x, b.test_x);
}

TEST(Data, DifferentSeedsProduceDifferentData) {
  auto spec = small_spec();
  const auto a = make_synthetic_dataset(spec);
  spec.seed = 4;
  const auto b = make_synthetic_dataset(spec);
  EXPECT_NE(a.derive_shard(0).x, b.derive_shard(0).x);
}

TEST(Data, TestSetIsClassBalanced) {
  const auto ds = make_synthetic_dataset(small_spec());
  std::vector<int> counts(5, 0);
  for (int y : ds.test_y) ++counts[static_cast<size_t>(y)];
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(Data, SmallAlphaIsMoreHeterogeneous) {
  // Measure label concentration: mean max class share per client.
  auto concentration = [](const FederatedDataset& ds) {
    double acc = 0.0;
    for (int i = 0; i < ds.num_clients(); ++i) {
      const ClientShard c = ds.derive_shard(i);
      std::vector<int> counts(static_cast<size_t>(ds.spec.num_classes), 0);
      for (int y : c.y) ++counts[static_cast<size_t>(y)];
      acc += static_cast<double>(*std::max_element(counts.begin(),
                                                   counts.end())) /
             c.n;
    }
    return acc / ds.num_clients();
  };
  auto spec = small_spec();
  spec.dirichlet_alpha = 0.1;
  const double hetero = concentration(make_synthetic_dataset(spec));
  spec.dirichlet_alpha = 50.0;
  const double homo = concentration(make_synthetic_dataset(spec));
  EXPECT_GT(hetero, homo + 0.2);
}

TEST(Data, LabelNoiseFlipsSomeLabels) {
  auto spec = small_spec();
  spec.label_noise = 0.0;
  const auto clean = make_synthetic_dataset(spec);
  spec.label_noise = 0.5;
  const auto noisy = make_synthetic_dataset(spec);
  int diffs = 0;
  int n = 0;
  for (int i = 0; i < clean.num_clients(); ++i) {
    const ClientShard a = clean.derive_shard(i);
    const ClientShard b = noisy.derive_shard(i);
    ASSERT_EQ(a.n, b.n);
    for (int s = 0; s < a.n; ++s) {
      if (a.y[static_cast<size_t>(s)] != b.y[static_cast<size_t>(s)]) ++diffs;
      ++n;
    }
  }
  // 50% flip probability to a uniform class (which may repeat the original):
  // expect ~40% disagreement.
  EXPECT_GT(static_cast<double>(diffs) / n, 0.25);
}

// Pins every derived byte across versions, not only within one process:
// the values were taken from the eager generator that built every shard
// before round 0, so on-demand derivation must replay each client's stream
// exactly. The bits rest on libm log/sincos (Box-Muller) and on float
// multiply-adds that -ffp-contract=off keeps unfused.
void check_pinned_shard_hashes() {
  struct Pin {
    SyntheticSpec spec;
    size_t total_samples;
    uint64_t shards, test, counts;
  };
  const Pin pins[] = {
      {openimage_spec(0.05, 42), 48112, 0x95a724069a053e3bull,
       0x0a6f65aeafad9ce4ull, 0xdbff6aec2e964a78ull},
      {femnist_spec(0.05, 7), 23564, 0x9838699c456bc435ull,
       0x0196753a78054207ull, 0x605673ea84a4ac06ull},
  };
  for (const Pin& pin : pins) {
    const auto ds = make_synthetic_dataset(pin.spec);
    Fnv1a shards, test, counts;
    for (int i = 0; i < ds.num_clients(); ++i) {
      const ClientShard c = ds.derive_shard(i);
      shards.add(c.n);
      shards.add(c.x);
      shards.add(c.y);
    }
    test.add(ds.test_x);
    test.add(ds.test_y);
    counts.add(ds.sizes);
    counts.add(ds.p);
    counts.add(static_cast<uint64_t>(ds.total_samples));
    EXPECT_EQ(ds.total_samples, pin.total_samples) << pin.spec.name;
    EXPECT_EQ(shards.h, pin.shards) << pin.spec.name;
    EXPECT_EQ(test.h, pin.test) << pin.spec.name;
    EXPECT_EQ(counts.h, pin.counts) << pin.spec.name;
  }
}

TEST(Data, ShardBytesMatchPinnedHashes) { check_pinned_shard_hashes(); }

// ------------------------------------------- batched Box-Muller (DESIGN §2)

int64_t bits_of(double v) { return std::bit_cast<int64_t>(v); }
double from_bits(int64_t b) { return std::bit_cast<double>(b); }

// float_cast_safe at the baseline ISA, as a scalar and as a two-lane
// vector, which must agree lane for lane.
bool cast_safe(double v) {
  typedef int64_t I2 __attribute__((vector_size(16)));
  const bool scalar = float_cast_safe(bits_of(v)) != 0;
  const I2 lanes = float_cast_safe(I2{bits_of(v), bits_of(-v)});
  EXPECT_EQ(lanes[0] != 0, scalar) << v;
  EXPECT_EQ(lanes[1] != 0, scalar) << -v;
  return scalar;
}

// What the rounding test promises for a safe v: every double within the
// margin, on either side, casts to float(v).
void expect_neighbours_cast_alike(double v) {
  const int64_t m = detail::kCastMarginUlps;
  for (int64_t d = -m; d <= m; ++d) {
    const double w = from_bits(bits_of(v) + d);
    EXPECT_EQ(std::bit_cast<uint32_t>(static_cast<float>(w)),
              std::bit_cast<uint32_t>(static_cast<float>(v)))
        << v << " moved by " << d << " ULPs";
  }
}

TEST(DeriveRoundingTest, HardCases) {
  const int64_t m = detail::kCastMarginUlps;
  for (const double sign : {1.0, -1.0}) {
    // A float rounding midpoint: 1 + 2^-24, halfway between 1 and the
    // next float. Within the margin the cast may go either way.
    const double mid = sign * (1.0 + 0x1.0p-24);
    EXPECT_EQ(bits_of(mid) & 0x1fffffff, 0x10000000);
    for (const int64_t d : {int64_t{0}, int64_t{1}, int64_t{-1}, m, -m}) {
      EXPECT_FALSE(cast_safe(from_bits(bits_of(mid) + d))) << d;
    }
    // One ULP further, the float is that of every neighbour in reach.
    for (const int64_t d : {m + 1, -(m + 1)}) {
      const double v = from_bits(bits_of(mid) + d);
      EXPECT_TRUE(cast_safe(v)) << d;
      expect_neighbours_cast_alike(v);
    }
    // Both sides of a power of two, where the double ULP halves.
    for (const double v : {sign * 2.0, std::nextafter(sign * 2.0, 0.0),
                           std::nextafter(sign * 2.0, sign * 4.0)}) {
      EXPECT_TRUE(cast_safe(v)) << v;
      expect_neighbours_cast_alike(v);
    }
    // The bottom of the float normal range: FLT_MIN is safe, the double
    // just below it is a float subnormal's and goes to the scalar path.
    EXPECT_TRUE(cast_safe(sign * FLT_MIN));
    expect_neighbours_cast_alike(sign * FLT_MIN);
    EXPECT_FALSE(cast_safe(std::nextafter(sign * double{FLT_MIN}, 0.0)));
    // The top: FLT_MAX is safe, the midpoint above it is not, values past
    // it overflow alike, and 2^128 is out of range.
    EXPECT_TRUE(cast_safe(sign * double{FLT_MAX}));
    expect_neighbours_cast_alike(sign * double{FLT_MAX});
    const double top_mid = sign * (0x1.0p128 - 0x1.0p103);
    EXPECT_FALSE(cast_safe(top_mid));
    const double past = from_bits(bits_of(top_mid) + m + 1);
    EXPECT_TRUE(cast_safe(past));
    EXPECT_TRUE(std::isinf(static_cast<float>(past)));
    expect_neighbours_cast_alike(past);
    EXPECT_FALSE(cast_safe(sign * 0x1.0p128));
    EXPECT_FALSE(cast_safe(sign * INFINITY));
  }
  // Both zeros fail, and Rng::normal's 0.0 + sd * z turns -0.0 into +0.0.
  EXPECT_FALSE(cast_safe(0.0));
  EXPECT_FALSE(cast_safe(-0.0));
  const double v = 0.0 + 1.0 * -0.0;
  EXPECT_EQ(bits_of(v), 0);
  EXPECT_FALSE(cast_safe(std::nan("")));
}

// Runs each test under every GEMM tier; the derivation follows the tier.
class DeriveTiers : public testing::GemmTierTest {};

// Every shard and the test set of the three presets, at a scale that still
// holds shards carrying a cached half, memcmp-equal to the scalar path's.
// derive_full_check runs the same check at scale 1.
TEST_P(DeriveTiers, ShardsAndTestSetMatchTheScalarPath) {
  for (const testing::PresetCheck& c :
       testing::check_presets_match_scalar(GetParam(), 0.05)) {
    std::cout << "[ derive   ] " << detail::gemm_tier_name(GetParam()) << " "
              << c.name << ": " << c.shards << " shards, " << c.carried
              << " carry a cached half, " << c.fallbacks << " fallbacks\n";
    EXPECT_EQ(c.mismatched, 0) << c.name;
    EXPECT_TRUE(c.test_set_equal) << c.name;
    EXPECT_GT(c.carried, 0) << c.name;
    EXPECT_LT(c.carried, c.shards) << c.name;
  }
}

TEST_P(DeriveTiers, ShardBytesMatchPinnedHashes) {
  check_pinned_shard_hashes();
}

// The tier's z against glibc's scalar z, at the hard inputs and 2^21
// random pairs (derive_full_check runs 10^8). The floats stay exact while
// the error stays below the rounding test's margin; half of it is asserted.
TEST_P(DeriveTiers, BoxMullerStaysWithinTheMargin) {
  if (detail::box_muller_tier() == nullptr) {
    GTEST_SKIP() << "the scalar path is the reference";
  }
  const testing::BoundCheck b = testing::measure_error_bound(size_t{1} << 21);
  std::cout << "[ bound    ] " << detail::gemm_tier_name(GetParam()) << ": "
            << b.pairs << " pairs, max " << b.max_ulps
            << " ULPs against a margin of " << detail::kCastMarginUlps << "\n";
  EXPECT_LT(b.max_ulps, detail::kCastMarginUlps / 2);
}

INSTANTIATE_TEST_SUITE_P(Tiers, DeriveTiers, testing::all_gemm_tiers(),
                         testing::gemm_tier_param_name);

TEST(DataPresets, MatchPaperPopulations) {
  EXPECT_EQ(femnist_spec().num_clients, 2800);
  EXPECT_EQ(femnist_spec().num_classes, 62);
  EXPECT_EQ(openimage_spec().num_clients, 10625);
  EXPECT_EQ(speech_spec().num_clients, 2066);
  EXPECT_EQ(speech_spec().num_classes, 35);
}

TEST(DataPresets, PaperRoundSizes) {
  EXPECT_EQ(preset_clients_per_round(femnist_spec()), 30);
  EXPECT_EQ(preset_clients_per_round(openimage_spec()), 100);
  EXPECT_EQ(preset_clients_per_round(speech_spec()), 30);
}

TEST(DataPresets, TopkMetric) {
  EXPECT_EQ(preset_topk(femnist_spec()), 1);
  EXPECT_EQ(preset_topk(openimage_spec()), 5);
}

TEST(DataPresets, ScaleShrinksPopulation) {
  const auto s = femnist_spec(0.1);
  EXPECT_EQ(s.num_clients, 280);
  EXPECT_EQ(s.num_classes, 62);  // class count unaffected by scale
}

TEST(DataPresets, MinSamplesRespectsFedScaleCutoff) {
  // FedScale removes clients with < 22 samples; presets clip to >= 22.
  const auto ds = make_synthetic_dataset(femnist_spec(0.05));
  for (int i = 0; i < ds.num_clients(); ++i) {
    EXPECT_GE(ds.derive_shard(i).n, 22);
  }
}

TEST(LruCache, EvictsTheLeastRecentlyUsedEntry) {
  LruCache<int> cache(2);
  cache.insert(1, 10);
  cache.insert(2, 20);
  ASSERT_NE(cache.find(1), nullptr);  // touch 1: 2 is now least recent
  cache.insert(3, 30);
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_EQ(*cache.find(1), 10);
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(*cache.find(3), 30);
}

TEST(LruCache, ReinsertingAPresentKeyReplacesItInPlace) {
  LruCache<std::shared_ptr<int>> cache(2);
  cache.insert(1, std::make_shared<int>(10));
  cache.insert(2, std::make_shared<int>(20));
  ASSERT_TRUE(cache.at_capacity());
  // At capacity, a present key evicts nothing and keeps the new value.
  const std::shared_ptr<int>& slot =
      cache.insert(2, std::make_shared<int>(21));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(*slot, 21);
  EXPECT_EQ(cache.size(), 2u);
  // The re-insert touched 2, so the next new key evicts 1.
  cache.insert(3, std::make_shared<int>(30));
  EXPECT_EQ(cache.find(1), nullptr);
  ASSERT_NE(cache.find(2), nullptr);
  EXPECT_EQ(**cache.find(2), 21);
  ASSERT_NE(cache.find(3), nullptr);
}

TEST(LruCache, SizeNeverExceedsTheCapacity) {
  LruCache<int> cache(3);
  for (int k = 0; k < 20; ++k) {
    cache.insert(k % 7, k);
    EXPECT_LE(cache.size(), 3u);
    EXPECT_EQ(cache.at_capacity(), cache.size() == 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
  // The three most recent keys stay: 19 % 7, 18 % 7 and 17 % 7.
  for (const int64_t k : {5, 4, 3}) EXPECT_NE(cache.find(k), nullptr) << k;
}

}  // namespace
}  // namespace gluefl
