// SimEngine behaviour: local training, participation/straggler simulation,
// byte accounting, determinism across thread counts.
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "compress/encoding.h"
#include "data/presets.h"
#include "fl/engine.h"
#include "net/bandwidth.h"
#include "strategies/factory.h"
#include "strategies/fedavg.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace gluefl {
namespace {

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

SimEngine make_engine(int rounds = 10, int k = 6, uint64_t seed = 42,
                      int threads = 1) {
  auto cfg = tiny_run_config(rounds, k, seed);
  cfg.num_threads = threads;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), cfg);
}

TEST(Engine, DimensionsMatchProxy) {
  auto eng = make_engine();
  auto proxy = tiny_proxy();
  EXPECT_EQ(eng.dim(), proxy.model.param_dim());
  EXPECT_EQ(eng.stat_dim(), proxy.model.stat_dim());
  EXPECT_EQ(eng.params().size(), eng.dim());
  EXPECT_EQ(eng.stats().size(), eng.stat_dim());
  EXPECT_EQ(eng.stat_bytes(), dense_bytes(eng.stat_dim()));
}

TEST(Engine, RejectsMismatchedModelAndData) {
  auto spec = tiny_spec();
  spec.feature_dim = 10;  // proxy expects 8
  EXPECT_THROW(SimEngine(make_synthetic_dataset(spec), tiny_proxy(),
                         make_datacenter_env(), tiny_train_config(),
                         tiny_run_config()),
               CheckError);
}

TEST(Engine, LrScheduleDecays) {
  auto eng = make_engine();
  const auto& tc = eng.train_config();
  EXPECT_DOUBLE_EQ(eng.lr_at(0), tc.lr0);
  EXPECT_DOUBLE_EQ(eng.lr_at(9), tc.lr0);
  EXPECT_DOUBLE_EQ(eng.lr_at(10), tc.lr0 * tc.lr_decay);
  EXPECT_DOUBLE_EQ(eng.lr_at(25), tc.lr0 * tc.lr_decay * tc.lr_decay);
}

TEST(Engine, LocalTrainProducesFiniteDeltas) {
  auto eng = make_engine();
  const auto results = eng.local_train({0, 1, 2}, 0);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_EQ(r.delta.size(), eng.dim());
    EXPECT_EQ(r.stat_delta.size(), eng.stat_dim());
    EXPECT_GT(r.n_samples, 0);
    EXPECT_TRUE(std::isfinite(r.loss));
    double norm = 0.0;
    for (float v : r.delta) {
      ASSERT_TRUE(std::isfinite(v));
      norm += static_cast<double>(v) * v;
    }
    EXPECT_GT(norm, 0.0);  // training moved the parameters
  }
}

TEST(Engine, LocalTrainIsDeterministicPerClientAndRound) {
  auto e1 = make_engine();
  auto e2 = make_engine();
  const auto r1 = e1.local_train({3, 4}, 2);
  const auto r2 = e2.local_train({3, 4}, 2);
  EXPECT_EQ(r1[0].delta, r2[0].delta);
  EXPECT_EQ(r1[1].delta, r2[1].delta);
}

TEST(Engine, LocalTrainIndependentOfThreadCount) {
  auto e1 = make_engine(10, 6, 42, /*threads=*/1);
  auto e4 = make_engine(10, 6, 42, /*threads=*/4);
  const auto r1 = e1.local_train({0, 1, 2, 3, 4}, 1);
  const auto r4 = e4.local_train({0, 1, 2, 3, 4}, 1);
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].delta, r4[i].delta) << "client index " << i;
  }
}

TEST(Engine, DifferentRoundsProduceDifferentBatches) {
  auto eng = make_engine();
  const auto a = eng.local_train({0}, 0);
  const auto b = eng.local_train({0}, 1);
  // Same start params but different batch order and lr schedule position.
  EXPECT_NE(a[0].delta, b[0].delta);
}

TEST(Engine, ParticipationPicksFastestClients) {
  auto eng = make_engine();
  // Candidates 0..5; give client bytes so download dominates; profiles are
  // heterogeneous, so the included set must be the ones with the smallest
  // finish time.
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2, 3, 4, 5};
  cand.need_nonsticky = 3;
  RoundRecord rec;
  const size_t payload = 1000000;
  auto down = [payload](int) { return payload; };
  auto up = [payload](int) { return payload; };
  const auto part = eng.simulate_participation(0, cand, down, up, rec);
  ASSERT_EQ(part.nonsticky.size(), 3u);
  EXPECT_EQ(rec.num_invited, 6);
  EXPECT_EQ(rec.num_included, 3);
  // Compute each candidate's finish time and check the included set is the
  // 3 fastest.
  const double flops = eng.flops_per_client_round();
  std::vector<std::pair<double, int>> finish;
  for (int c = 0; c < 6; ++c) {
    const auto p = eng.profile(c);
    finish.emplace_back(transfer_seconds(payload, p.down_mbps) +
                            flops / (p.gflops * 1e9) +
                            transfer_seconds(payload, p.up_mbps),
                        c);
  }
  std::sort(finish.begin(), finish.end());
  std::vector<int> fastest{finish[0].second, finish[1].second,
                           finish[2].second};
  std::sort(fastest.begin(), fastest.end());
  auto included = part.nonsticky;
  std::sort(included.begin(), included.end());
  EXPECT_EQ(included, fastest);
}

TEST(Engine, DroppedInviteesStillPayDownloadBytes) {
  auto eng = make_engine();
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2, 3};
  cand.need_nonsticky = 2;
  RoundRecord rec;
  auto down = [](int) -> size_t { return 100; };
  auto up = [](int) -> size_t { return 10; };
  const auto part = eng.simulate_participation(0, cand, down, up, rec);
  EXPECT_DOUBLE_EQ(rec.down_bytes, 400.0);  // all 4 invitees download
  EXPECT_DOUBLE_EQ(rec.up_bytes, 0.0);      // uploads are priced separately
  eng.price_uplinks(part, up, rec);
  EXPECT_DOUBLE_EQ(rec.up_bytes, 20.0);     // only 2 upload
}

TEST(Engine, AllInviteesAreMarkedSynced) {
  auto eng = make_engine();
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2, 3};
  cand.need_nonsticky = 2;
  RoundRecord rec;
  auto bytes = [](int) -> size_t { return 100; };
  eng.simulate_participation(0, cand, bytes, bytes, rec);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(eng.sync().last_synced_round(c), 0);
  }
  EXPECT_EQ(eng.sync().last_synced_round(4), -1);
}

TEST(Engine, WallTimeIsMaxIncludedFinish) {
  auto eng = make_engine();
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2};
  cand.need_nonsticky = 3;
  RoundRecord rec;
  const size_t payload = 2000000;
  auto down = [payload](int) { return payload; };
  auto up = [](int) -> size_t { return 0; };
  const auto part = eng.simulate_participation(0, cand, down, up, rec);
  eng.price_uplinks(part, up, rec);
  EXPECT_GT(rec.wall_time_s, 0.0);
  EXPECT_GE(rec.wall_time_s, rec.down_time_s);
  EXPECT_GE(rec.wall_time_s, rec.compute_time_s);
}

TEST(Engine, StickyAndNonStickyNeedsRespected) {
  auto eng = make_engine();
  CandidateSet cand;
  cand.sticky = {0, 1, 2};
  cand.nonsticky = {3, 4, 5};
  cand.need_sticky = 2;
  cand.need_nonsticky = 1;
  RoundRecord rec;
  auto bytes = [](int) -> size_t { return 100; };
  const auto part = eng.simulate_participation(0, cand, bytes, bytes, rec);
  EXPECT_EQ(part.sticky.size(), 2u);
  EXPECT_EQ(part.nonsticky.size(), 1u);
  EXPECT_EQ(part.all().size(), 3u);
}

TEST(Engine, EvaluateReturnsSaneAccuracy) {
  auto eng = make_engine();
  const auto eval = eng.evaluate();
  EXPECT_GE(eval.accuracy, 0.0);
  EXPECT_LE(eval.accuracy, 1.0);
  EXPECT_GT(eval.loss, 0.0);
}

TEST(Engine, RunExecutesAllRoundsAndEvaluates) {
  auto eng = make_engine(12, 6);
  FedAvgStrategy strategy;
  const RunResult res = eng.run(strategy);
  ASSERT_EQ(res.rounds.size(), 12u);
  EXPECT_EQ(res.strategy, "fedavg");
  // eval_every = 5: rounds 0, 5, 10 and the final round are evaluated.
  EXPECT_FALSE(std::isnan(res.rounds[0].test_acc));
  EXPECT_TRUE(std::isnan(res.rounds[1].test_acc));
  EXPECT_FALSE(std::isnan(res.rounds[5].test_acc));
  EXPECT_FALSE(std::isnan(res.rounds[11].test_acc));
}

// The GEMM tiers are bit-identical by contract (DESIGN.md §2 "Training
// kernels"), and the CLI cannot force one, so this is the end-to-end
// check: 3 FedAvg and 3 GlueFL rounds of the shufflenet proxy on FEMNIST
// at scale 0.05, rerun under every tier this CPU supports, give the same
// round records and final parameters.
TEST(Engine, RunsBitIdenticalAcrossGemmTiers) {
  using detail::GemmTier;
  const GemmTier picked = detail::gemm_tier();
  const SyntheticSpec spec = femnist_spec(0.05);
  const int k = preset_clients_per_round(spec);
  auto run_under = [&](const std::string& name, GemmTier tier) {
    detail::set_gemm_tier(tier);
    RunConfig rc;
    rc.rounds = 3;
    rc.clients_per_round = k;
    rc.eval_every = 3;
    rc.topk_accuracy = preset_topk(spec);
    rc.seed = 42;
    SimEngine eng(make_synthetic_dataset(spec),
                  make_proxy("shufflenet", spec.feature_dim, spec.num_classes),
                  make_datacenter_env(), TrainConfig{}, rc);
    auto strategy = make_strategy(name, k, "shufflenet");
    RunResult res = eng.run(*strategy);
    return std::make_pair(std::move(res), eng.params());
  };
  auto bits = [](double v) {
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (const char* name : {"fedavg", "gluefl"}) {
    const auto ref = run_under(name, GemmTier::kLanes4);
    for (const GemmTier tier : {GemmTier::kAvx2, GemmTier::kAvx512}) {
      if (!detail::gemm_tier_supported(tier)) continue;
      const std::string label =
          std::string(name) + " under " + detail::gemm_tier_name(tier);
      const auto got = run_under(name, tier);
      ASSERT_EQ(got.first.rounds.size(), ref.first.rounds.size()) << label;
      for (size_t i = 0; i < ref.first.rounds.size(); ++i) {
        const RoundRecord& a = ref.first.rounds[i];
        const RoundRecord& b = got.first.rounds[i];
        EXPECT_EQ(a.round, b.round) << label;
        EXPECT_EQ(a.num_invited, b.num_invited) << label;
        EXPECT_EQ(a.num_included, b.num_included) << label;
        for (const auto field :
             {&RoundRecord::down_bytes, &RoundRecord::up_bytes,
              &RoundRecord::down_time_s, &RoundRecord::up_time_s,
              &RoundRecord::compute_time_s, &RoundRecord::wall_time_s,
              &RoundRecord::train_loss, &RoundRecord::test_acc,
              &RoundRecord::mean_staleness, &RoundRecord::changed_frac,
              &RoundRecord::mask_overlap}) {
          EXPECT_EQ(bits(a.*field), bits(b.*field))
              << label << " round " << i;
        }
      }
      EXPECT_EQ(std::memcmp(got.second.data(), ref.second.data(),
                            ref.second.size() * sizeof(float)),
                0)
          << label << " final params";
    }
  }
  detail::set_gemm_tier(picked);
}

}  // namespace
}  // namespace gluefl
