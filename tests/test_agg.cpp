// The sharded sparse aggregation subsystem (src/agg/):
//   * SparseDelta construction and validation,
//   * DenseAggregator / ShardedAggregator bit-identity for every shard and
//     thread count (the subsystem's core contract),
//   * strategy-level equivalence — a full run with --agg=sharded must end
//     at a bit-identical model to --agg=dense on every strategy,
//   * hierarchical (edge -> cloud) topology pricing.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregator.h"
#include "agg/sparse_delta.h"
#include "agg/topology.h"
#include "common/check.h"
#include "common/rng.h"
#include "compress/encoding.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "strategies/async_fedbuff.h"
#include "strategies/factory.h"
#include "strategies/fedavg.h"
#include "strategies/gluefl.h"
#include "strategies/stc.h"
#include "test_util.h"
#include "wire/codec.h"

namespace gluefl {
namespace {

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

// ---------------------------------------------------------- SparseDelta

TEST(SparseDelta, DenseShape) {
  const SparseDelta d = SparseDelta::dense({1.0f, 2.0f, 3.0f}, 0.5f);
  EXPECT_TRUE(d.is_dense());
  EXPECT_EQ(d.nnz(), 3u);
  EXPECT_FLOAT_EQ(d.weight, 0.5f);
}

TEST(SparseDelta, FromSparseOwnsItsSupport) {
  SparseVec sv;
  sv.idx = {1, 4, 7};
  sv.val = {0.1f, 0.2f, 0.3f};
  const SparseDelta d = SparseDelta::from_sparse(std::move(sv), 2.0f);
  EXPECT_FALSE(d.is_dense());
  ASSERT_NE(d.idx, nullptr);
  EXPECT_EQ(d.idx->size(), 3u);
  EXPECT_EQ(d.nnz(), 3u);
}

TEST(SparseDelta, SharedSupportIsAliasedNotCopied) {
  const auto idx = SparseDelta::make_support({0, 2, 5});
  const float x[] = {1.0f, 9.0f, 2.0f, 9.0f, 9.0f, 3.0f};
  const SparseDelta a = SparseDelta::gather_shared(idx, x, 1.0f);
  const SparseDelta b = SparseDelta::gather_shared(idx, x, 2.0f);
  EXPECT_EQ(a.idx.get(), b.idx.get());  // one index array for the cohort
  EXPECT_FLOAT_EQ(a.val[0], 1.0f);
  EXPECT_FLOAT_EQ(a.val[1], 2.0f);
  EXPECT_FLOAT_EQ(a.val[2], 3.0f);
}

TEST(SparseDelta, ValidationCatchesMisuse) {
  std::vector<SparseDelta> bad_dense{SparseDelta::dense({1.0f, 2.0f})};
  EXPECT_THROW(validate_deltas(bad_dense, 3), CheckError);

  SparseVec out_of_range;
  out_of_range.idx = {9};
  out_of_range.val = {1.0f};
  std::vector<SparseDelta> bad_idx{
      SparseDelta::from_sparse(std::move(out_of_range))};
  EXPECT_THROW(validate_deltas(bad_idx, 4), CheckError);
}

TEST(SparseDelta, ConstructionRejectsUnsortedOrMisalignedSupports) {
  SparseVec unsorted;
  unsorted.idx = {3, 1};
  unsorted.val = {1.0f, 2.0f};
  EXPECT_THROW(SparseDelta::from_sparse(std::move(unsorted)), CheckError);

  SparseVec duplicate;
  duplicate.idx = {2, 2};
  duplicate.val = {1.0f, 2.0f};
  EXPECT_THROW(SparseDelta::from_sparse(std::move(duplicate)), CheckError);

  EXPECT_THROW(SparseDelta::make_support({1, 0}), CheckError);
  const auto short_idx = SparseDelta::make_support({1});
  EXPECT_THROW(SparseDelta::on_shared(short_idx, {1.0f, 2.0f}), CheckError);
}

// ---------------------------------------------------------- aggregators

/// Random batch mixing dense, per-delta sparse and cohort-shared deltas.
std::vector<SparseDelta> random_batch(size_t dim, int n_deltas, Rng& rng) {
  std::vector<uint32_t> shared;
  for (size_t j = 0; j < dim; ++j) {
    if (rng.uniform() < 0.15) shared.push_back(static_cast<uint32_t>(j));
  }
  const auto shared_idx = SparseDelta::make_support(std::move(shared));

  std::vector<SparseDelta> batch;
  for (int i = 0; i < n_deltas; ++i) {
    const float w = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    const int kind = static_cast<int>(rng.uniform() * 3.0);
    if (kind == 0) {
      std::vector<float> dense(dim);
      for (float& v : dense) {
        v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      }
      batch.push_back(SparseDelta::dense(std::move(dense), w));
    } else if (kind == 1) {
      SparseVec sv;
      for (size_t j = 0; j < dim; ++j) {
        if (rng.uniform() < 0.2) {
          sv.idx.push_back(static_cast<uint32_t>(j));
          sv.val.push_back(static_cast<float>(rng.uniform() * 2.0 - 1.0));
        }
      }
      batch.push_back(SparseDelta::from_sparse(std::move(sv), w));
    } else {
      std::vector<float> vals(shared_idx->size());
      for (float& v : vals) {
        v = static_cast<float>(rng.uniform() * 2.0 - 1.0);
      }
      batch.push_back(SparseDelta::on_shared(shared_idx, std::move(vals), w));
    }
  }
  return batch;
}

TEST(Aggregator, DenseReferenceMatchesHandRolledSum) {
  const size_t dim = 8;
  SparseVec sv;
  sv.idx = {1, 6};
  sv.val = {2.0f, -1.0f};
  std::vector<SparseDelta> batch{
      SparseDelta::dense({1, 1, 1, 1, 1, 1, 1, 1}, 0.5f),
      SparseDelta::from_sparse(std::move(sv), 3.0f)};
  std::vector<float> out(dim, 0.0f);
  DenseAggregator().reduce(batch, out.data(), dim);
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], 0.5f + 6.0f);
  EXPECT_FLOAT_EQ(out[6], 0.5f - 3.0f);
}

TEST(Aggregator, ShardedBitIdenticalToDenseForAnyShardsAndThreads) {
  Rng rng(123);
  for (const size_t dim : {size_t{1}, size_t{63}, size_t{1037}}) {
    const auto batch = random_batch(dim, 13, rng);
    std::vector<float> ref(dim, 0.0f);
    DenseAggregator().reduce(batch, ref.data(), dim);
    for (const int shards : {1, 3, 8, 64}) {
      for (const int threads : {1, 4, 8}) {
        std::vector<float> out(dim, 0.0f);
        ShardedAggregator(shards, threads).reduce(batch, out.data(), dim);
        for (size_t j = 0; j < dim; ++j) {
          ASSERT_EQ(out[j], ref[j])
              << "dim=" << dim << " shards=" << shards
              << " threads=" << threads << " j=" << j;
        }
      }
    }
  }
}

TEST(Aggregator, AutoShardCountBitIdenticalToo) {
  Rng rng(321);
  const size_t dim = 513;
  const auto batch = random_batch(dim, 9, rng);
  std::vector<float> ref(dim, 0.0f);
  DenseAggregator().reduce(batch, ref.data(), dim);
  for (const int threads : {1, 2, 8}) {
    std::vector<float> out(dim, 0.0f);
    ShardedAggregator(/*shards=*/0, threads).reduce(batch, out.data(), dim);
    for (size_t j = 0; j < dim; ++j) ASSERT_EQ(out[j], ref[j]);
  }
}

TEST(Aggregator, EmptyBatchAndEmptyDeltasAreNoOps) {
  std::vector<float> out(16, 1.0f);
  DenseAggregator().reduce({}, out.data(), 16);
  ShardedAggregator(4, 4).reduce({}, out.data(), 16);
  std::vector<SparseDelta> empties{SparseDelta::from_sparse(SparseVec{})};
  ShardedAggregator(4, 4).reduce(empties, out.data(), 16);
  for (const float v : out) EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Aggregator, FactoryHonorsConfig) {
  AggConfig cfg;
  EXPECT_EQ(make_aggregator(cfg, 4)->name(), "dense");
  cfg.kind = AggKind::kSharded;
  cfg.shards = 7;
  const auto agg = make_aggregator(cfg, 4);
  EXPECT_EQ(agg->name(), "sharded");
  EXPECT_EQ(static_cast<const ShardedAggregator&>(*agg).shards(), 7);
}

// ------------------------------------- strategy-level dense <-> sharded

SimEngine make_engine_with(AggKind kind, int threads, uint64_t seed,
                           int rounds = 6, int k = 6) {
  RunConfig rc = tiny_run_config(rounds, k, seed);
  rc.num_threads = threads;
  rc.agg.kind = kind;
  rc.agg.shards = kind == AggKind::kSharded ? 5 : 0;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), rc);
}

std::unique_ptr<Strategy> tiny_strategy(const std::string& name) {
  if (name == "gluefl") {
    GlueFlConfig cfg;
    cfg.q = 0.2;
    cfg.q_shr = 0.15;
    cfg.regen_every = 4;
    cfg.sticky_group_size = 24;
    cfg.sticky_per_round = 4;
    return std::make_unique<GlueFlStrategy>(cfg);
  }
  if (name == "stc") {
    return std::make_unique<StcStrategy>(
        StcConfig{.q = 0.2, .error_feedback = true});
  }
  return std::make_unique<FedAvgStrategy>();
}

TEST(AggEquivalence, SyncStrategiesBitIdenticalAcrossBackendsAndThreads) {
  for (const char* name : {"gluefl", "stc", "fedavg"}) {
    for (const uint64_t seed : {uint64_t{7}, uint64_t{42}}) {
      auto ref_engine = make_engine_with(AggKind::kDense, 1, seed);
      auto ref_strategy = tiny_strategy(name);
      ref_engine.run(*ref_strategy);
      const std::vector<float> ref = ref_engine.params();
      const std::vector<float> ref_stats = ref_engine.stats();

      for (const int threads : {1, 4, 8}) {
        auto engine = make_engine_with(AggKind::kSharded, threads, seed);
        auto strategy = tiny_strategy(name);
        engine.run(*strategy);
        ASSERT_EQ(engine.params(), ref)
            << name << " seed=" << seed << " threads=" << threads;
        ASSERT_EQ(engine.stats(), ref_stats)
            << name << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(AggEquivalence, AsyncFedBuffBitIdenticalAcrossBackendsAndThreads) {
  AsyncConfig acfg;
  acfg.buffer_size = 4;
  acfg.concurrency = 12;
  AsyncFedBuffConfig fcfg;
  fcfg.discount = StalenessDiscount::kPolynomial;

  for (const uint64_t seed : {uint64_t{7}, uint64_t{42}}) {
    auto ref_engine = make_engine_with(AggKind::kDense, 1, seed);
    AsyncSimEngine ref_async(ref_engine, acfg);
    AsyncFedBuffStrategy ref_strategy(fcfg);
    ref_async.run(ref_strategy);
    const std::vector<float> ref = ref_engine.params();

    for (const int threads : {1, 4, 8}) {
      auto engine = make_engine_with(AggKind::kSharded, threads, seed);
      AsyncSimEngine async_engine(engine, acfg);
      AsyncFedBuffStrategy strategy(fcfg);
      async_engine.run(strategy);
      ASSERT_EQ(engine.params(), ref)
          << "async-fedbuff seed=" << seed << " threads=" << threads;
    }
  }
}

// ----------------------------------------------------------- topology

TEST(Topology, EdgeAssignmentIsDeterministicAndBalanced) {
  const HierarchicalTopology topo(TopologyConfig{4}, 60, 1000.0, 1000.0);
  std::vector<int> load(4, 0);
  for (int c = 0; c < 60; ++c) {
    EXPECT_EQ(topo.edge_of(c), c % 4);
    ++load[static_cast<size_t>(topo.edge_of(c))];
  }
  for (const int l : load) EXPECT_EQ(l, 15);
}

TEST(Topology, PartialAggregateIsCappedAtDense) {
  EXPECT_EQ(HierarchicalTopology::partial_aggregate_bytes(100, 400), 100u);
  EXPECT_EQ(HierarchicalTopology::partial_aggregate_bytes(900, 400), 400u);
}

TEST(Topology, RejectsBadConfig) {
  EXPECT_THROW(HierarchicalTopology(TopologyConfig{0}, 60, 1e3, 1e3),
               CheckError);
  EXPECT_THROW(HierarchicalTopology(TopologyConfig{4}, 0, 1e3, 1e3),
               CheckError);
  EXPECT_THROW(HierarchicalTopology(TopologyConfig{4}, 60, 0.0, 1e3),
               CheckError);
}

SimEngine make_topo_engine(int num_edges, uint64_t seed = 42) {
  RunConfig rc = tiny_run_config(/*rounds=*/5, /*k=*/6, seed);
  rc.num_threads = 1;
  rc.topology.num_edges = num_edges;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), rc);
}

TEST(Topology, HierarchicalShrinksCloudDownstreamVolume) {
  auto flat = make_topo_engine(0);
  FedAvgStrategy s1;
  const RunTotals flat_t = flat.run(s1).totals();

  auto hier = make_topo_engine(3);
  FedAvgStrategy s2;
  const RunTotals hier_t = hier.run(s2).totals();

  // >= 6 invitees per round funnel through 3 edges: the cloud ships at
  // most 3 copies of the sync payload instead of one per invitee.
  EXPECT_LT(hier_t.down_gb, flat_t.down_gb);
  EXPECT_GT(hier_t.down_gb, 0.0);
  EXPECT_GT(hier_t.wall_hours, 0.0);
}

TEST(Topology, EdgeUploadsAreCappedAtDensePerEdge) {
  auto hier = make_topo_engine(2);
  FedAvgStrategy s;
  const auto res = hier.run(s);
  // The cap is the analytic dense size; a measured frame may exceed its
  // analytic size by at most the documented framing overhead (DESIGN §7).
  const double cap_per_edge =
      static_cast<double>(dense_bytes(hier.dim()) + hier.stat_bytes() +
                          wire::kMaxFrameOverhead);
  for (const auto& r : res.rounds) {
    if (r.num_included == 0) continue;
    EXPECT_LE(r.up_bytes, 2.0 * cap_per_edge + 1.0);
    EXPECT_GT(r.up_bytes, 0.0);
  }
}

TEST(Topology, AsyncHierarchicalRunCompletesAndIsSlowerPerDispatch) {
  AsyncConfig acfg;
  acfg.buffer_size = 3;
  acfg.concurrency = 9;
  AsyncFedBuffConfig fcfg;

  auto flat = make_topo_engine(0);
  AsyncSimEngine flat_async(flat, acfg);
  AsyncFedBuffStrategy s1(fcfg);
  const RunTotals flat_t = flat_async.run(s1).totals();

  auto hier = make_topo_engine(3);
  AsyncSimEngine hier_async(hier, acfg);
  AsyncFedBuffStrategy s2(fcfg);
  const RunTotals hier_t = hier_async.run(s2).totals();

  EXPECT_EQ(hier_t.rounds, flat_t.rounds);
  // The extra cloud->edge->client hop adds latency to every dispatch.
  EXPECT_GE(hier_t.wall_hours, flat_t.wall_hours);
}

}  // namespace
}  // namespace gluefl
