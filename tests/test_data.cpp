#include "data/federated_dataset.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/lru_cache.h"
#include "data/presets.h"
#include "data/shard_cache.h"
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
TEST(Data, ShardBytesMatchPinnedHashes) {
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

TEST(ShardCache, EvictionRederivesTheSameBytesAndHeldShardsOutliveIt) {
  const auto ds = make_synthetic_dataset(small_spec());
  ShardCache cache(/*capacity=*/2);
  const std::shared_ptr<const ClientShard> held = cache.get(ds, 0);
  ASSERT_NE(held, nullptr);
  const ClientShard want = ds.derive_shard(0);
  EXPECT_EQ(cache.get(ds, 0), held);  // a hit returns the cached shard
  (void)cache.get(ds, 1);
  (void)cache.get(ds, 2);  // evicts shard 0
  EXPECT_EQ(cache.size(), 2u);
  // The caller's pointer outlives the eviction with its bytes intact...
  EXPECT_EQ(held->n, want.n);
  EXPECT_EQ(held->x, want.x);
  EXPECT_EQ(held->y, want.y);
  // ...and shard 0 comes back, re-derived, with the same bytes.
  const std::shared_ptr<const ClientShard> again = cache.get(ds, 0);
  EXPECT_NE(again, held);
  EXPECT_EQ(again->n, want.n);
  EXPECT_EQ(again->x, want.x);
  EXPECT_EQ(again->y, want.y);
  EXPECT_EQ(cache.size(), 2u);
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
