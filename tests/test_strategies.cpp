// Behavioural tests for the four strategies (FedAvg, STC, APF, GlueFL):
// masking invariants, byte accounting, mask-shifting overlap, sticky
// dynamics, error-compensation modes.
#include <cmath>

#include <gtest/gtest.h>

#include "common/check.h"
#include "compress/encoding.h"
#include "fl/engine.h"
#include "strategies/apf.h"
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

SimEngine make_engine(int rounds = 16, int k = 6, uint64_t seed = 42) {
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(),
                   tiny_run_config(rounds, k, seed));
}

GlueFlConfig tiny_gluefl_config() {
  GlueFlConfig cfg;
  cfg.q = 0.2;
  cfg.q_shr = 0.15;
  cfg.regen_every = 8;
  cfg.sticky_group_size = 24;
  cfg.sticky_per_round = 4;
  return cfg;
}

TEST(FedAvg, ChangesEveryPositionEveryRound) {
  auto eng = make_engine(6);
  FedAvgStrategy s;
  const auto res = eng.run(s);
  for (const auto& r : res.rounds) {
    EXPECT_DOUBLE_EQ(r.changed_frac, 1.0);
  }
}

TEST(FedAvg, TrainingImprovesAccuracy) {
  auto eng = make_engine(30);
  FedAvgStrategy s;
  const auto res = eng.run(s);
  const double first = res.rounds.front().test_acc;
  EXPECT_GT(res.best_accuracy(), std::max(first, 0.3));
}

// DESIGN §7 size envelope, per frame: analytic - position bytes <=
// measured <= analytic + kMaxFrameOverhead. Checked on a round's upload
// total, which is the sum of its included clients' frames.
void expect_uploads_in_envelope(const RoundRecord& r, size_t analytic,
                                size_t positions) {
  const double frames = r.num_included;
  EXPECT_GE(r.up_bytes, frames * static_cast<double>(analytic - positions))
      << "round " << r.round;
  EXPECT_LE(r.up_bytes,
            frames * static_cast<double>(analytic + wire::kMaxFrameOverhead))
      << "round " << r.round;
}

TEST(FedAvg, UploadIsDensePerParticipant) {
  auto eng = make_engine(3);
  FedAvgStrategy s;
  const auto res = eng.run(s);
  const size_t analytic = dense_bytes(eng.dim()) + eng.stat_bytes();
  for (const auto& r : res.rounds) {
    ASSERT_GT(r.num_included, 0);
    expect_uploads_in_envelope(r, analytic, /*positions=*/0);
  }
}

TEST(Stc, ChangedFractionEqualsMaskRatio) {
  auto eng = make_engine(8);
  StcStrategy s(StcConfig{.q = 0.2, .error_feedback = true});
  const auto res = eng.run(s);
  for (const auto& r : res.rounds) {
    EXPECT_NEAR(r.changed_frac, 0.2, 0.01);
  }
}

TEST(Stc, UploadBytesBoundedByQ) {
  auto eng = make_engine(4);
  StcStrategy s(StcConfig{.q = 0.1, .error_feedback = true});
  const auto res = eng.run(s);
  const size_t k = static_cast<size_t>(std::lround(0.1 * eng.dim()));
  const size_t analytic = sparse_update_bytes(k, eng.dim()) + eng.stat_bytes();
  for (const auto& r : res.rounds) {
    ASSERT_GT(r.num_included, 0);
    expect_uploads_in_envelope(r, analytic, position_bytes(k, eng.dim()));
  }
}

TEST(Stc, FreshClientsDownloadMostOfTheModel) {
  // The paper's §2.3 observation: with sampling, a newly sampled client has
  // missed many masked rounds and must fetch a large fraction of the model.
  auto eng = make_engine(20, 6);
  StcStrategy s(StcConfig{.q = 0.1, .error_feedback = true});
  (void)eng.run(s);
  // A client last synced at round 0 fetches, at round 20, the union of
  // every round's changed positions since: after 20 rounds of q=10%
  // masking that is far more than one round's q*dim.
  const size_t k = static_cast<size_t>(std::lround(0.1 * eng.dim()));
  EXPECT_GT(eng.sync().changed_union(0, 20), k);
  // Real participants follow the same accounting: the stalest synced
  // client fetches exactly the union since its last sync.
  int stalest = -1;
  int oldest = 20;
  for (int c = 0; c < eng.num_clients(); ++c) {
    const int ls = eng.sync().last_synced_round(c);
    if (ls >= 0 && ls < oldest) {
      oldest = ls;
      stalest = c;
    }
  }
  ASSERT_GE(stalest, 0);
  EXPECT_EQ(eng.sync().stale_positions(stalest, 20),
            eng.sync().changed_union(oldest, 20));
  // Directly: a client that never participated needs the full model.
  bool found_virgin = false;
  for (int c = 0; c < eng.num_clients(); ++c) {
    if (eng.sync().last_synced_round(c) == -1) {
      EXPECT_EQ(eng.sync().stale_positions(c, 20), eng.dim());
      found_virgin = true;
      break;
    }
  }
  EXPECT_TRUE(found_virgin);
}

TEST(Stc, RejectsBadQ) {
  EXPECT_THROW(StcStrategy(StcConfig{.q = 0.0}), CheckError);
  EXPECT_THROW(StcStrategy(StcConfig{.q = 1.5}), CheckError);
}

TEST(Apf, FreezesParametersOverTime) {
  auto eng = make_engine(30);
  ApfStrategy s(ApfConfig{.threshold = 0.9, .check_every = 3,
                          .base_freeze = 5, .max_freeze = 40});
  (void)eng.run(s);
  // A very permissive threshold (0.9) freezes aggressively.
  EXPECT_GT(s.frozen_fraction(30), 0.2);
}

TEST(Apf, LowThresholdFreezesLess) {
  auto eng1 = make_engine(24);
  ApfStrategy strict(ApfConfig{.threshold = 0.02, .check_every = 3,
                               .base_freeze = 5, .max_freeze = 40});
  (void)eng1.run(strict);
  auto eng2 = make_engine(24);
  ApfStrategy lax(ApfConfig{.threshold = 0.9, .check_every = 3,
                            .base_freeze = 5, .max_freeze = 40});
  (void)eng2.run(lax);
  EXPECT_LE(strict.frozen_fraction(24), lax.frozen_fraction(24));
}

TEST(Apf, FrozenParametersAreNotUpdated) {
  auto eng = make_engine(30);
  ApfStrategy s(ApfConfig{.threshold = 0.9, .check_every = 3,
                          .base_freeze = 10, .max_freeze = 40});
  const auto res = eng.run(s);
  // changed_frac must dip below 1 once parameters freeze.
  double min_changed = 1.0;
  for (const auto& r : res.rounds) {
    min_changed = std::min(min_changed, r.changed_frac);
  }
  EXPECT_LT(min_changed, 0.9);
}

TEST(Apf, RejectsBadConfig) {
  EXPECT_THROW(ApfStrategy(ApfConfig{.threshold = 0.0}), CheckError);
  EXPECT_THROW(ApfStrategy(ApfConfig{.threshold = 0.1, .check_every = 0}),
               CheckError);
}

TEST(GlueFl, SharedMaskHasTargetSizeAfterEachRound) {
  auto eng = make_engine(12);
  GlueFlStrategy s(tiny_gluefl_config());
  (void)eng.run(s);
  const size_t expected =
      static_cast<size_t>(std::lround(0.15 * eng.dim()));
  EXPECT_EQ(s.shared_mask().count(), expected);
}

TEST(GlueFl, ChangedFractionBoundedByQ) {
  auto eng = make_engine(12);
  GlueFlStrategy s(tiny_gluefl_config());
  const auto res = eng.run(s);
  for (const auto& r : res.rounds) {
    EXPECT_LE(r.changed_frac, 0.21);
    EXPECT_GT(r.changed_frac, 0.0);
  }
}

TEST(GlueFl, ConsecutiveMasksOverlapOutsideRegen) {
  auto eng = make_engine(14);
  auto cfg = tiny_gluefl_config();
  cfg.regen_every = 0;  // never regenerate after the bootstrap round
  GlueFlStrategy s(cfg);
  const auto res = eng.run(s);
  // From round 2 on, the overlap |M_t ∩ M_{t+1}|/|M| must be substantial —
  // that is the whole point of mask shifting.
  for (size_t i = 2; i < res.rounds.size(); ++i) {
    EXPECT_GT(res.rounds[i].mask_overlap, 0.5) << "round " << i;
  }
}

TEST(GlueFl, RegenScheduleFollowsConfig) {
  {
    auto eng = make_engine(17);
    auto cfg = tiny_gluefl_config();
    cfg.regen_every = 8;
    GlueFlStrategy s(cfg);
    (void)eng.run(s);
    EXPECT_EQ(s.regen_count(), 3);  // rounds 0 (bootstrap), 8, 16
  }
  {
    auto eng = make_engine(17);
    auto cfg = tiny_gluefl_config();
    cfg.regen_every = 0;  // I = infinity
    GlueFlStrategy s(cfg);
    (void)eng.run(s);
    EXPECT_EQ(s.regen_count(), 1);  // bootstrap only
  }
}

TEST(GlueFl, RegenRoundChangesOnlyUniqueSupport) {
  // In a regeneration round q_shr is 0, so the changed set is exactly the
  // server-kept top-q unique support: |changed| = round(q * dim).
  auto eng = make_engine(9);
  auto cfg = tiny_gluefl_config();
  cfg.regen_every = 8;
  GlueFlStrategy s(cfg);
  const auto res = eng.run(s);
  const double q_frac =
      std::lround(cfg.q * eng.dim()) / static_cast<double>(eng.dim());
  EXPECT_NEAR(res.rounds[8].changed_frac, q_frac, 1e-9);
}

TEST(GlueFl, StickyParticipantsDownloadLessThanFresh) {
  auto eng = make_engine(24, 6);
  GlueFlStrategy s(tiny_gluefl_config());
  const auto res = eng.run(s);
  // Average staleness of included clients must be small thanks to sticky
  // sampling (most participants were synced within the last few rounds).
  double mean_staleness = 0.0;
  int n = 0;
  for (size_t i = 4; i < res.rounds.size(); ++i) {
    mean_staleness += res.rounds[i].mean_staleness;
    ++n;
  }
  mean_staleness /= n;
  EXPECT_LT(mean_staleness, 12.0);
}

TEST(GlueFl, DownstreamPerRoundBelowFedAvg) {
  auto e1 = make_engine(20);
  GlueFlStrategy g(tiny_gluefl_config());
  const auto rg = e1.run(g);
  auto e2 = make_engine(20);
  FedAvgStrategy f;
  const auto rf = e2.run(f);
  // Skip the bootstrap rounds where everyone is stale either way.
  double g_down = 0.0, f_down = 0.0;
  for (size_t i = 5; i < 20; ++i) {
    g_down += rg.rounds[i].down_bytes;
    f_down += rf.rounds[i].down_bytes;
  }
  EXPECT_LT(g_down, f_down);
}

TEST(GlueFl, RejectsBadConfig) {
  GlueFlConfig cfg = tiny_gluefl_config();
  cfg.q_shr = cfg.q;  // must be strictly smaller
  EXPECT_THROW(GlueFlStrategy{cfg}, CheckError);
  cfg = tiny_gluefl_config();
  cfg.sticky_per_round = 0;
  EXPECT_THROW(GlueFlStrategy{cfg}, CheckError);
}

TEST(GlueFl, RequiresCSmallerThanK) {
  auto eng = make_engine(4, /*k=*/4);
  auto cfg = tiny_gluefl_config();
  cfg.sticky_per_round = 4;  // C == K
  GlueFlStrategy s(cfg);
  EXPECT_THROW(eng.run(s), CheckError);
}

TEST(Factory, BuildsAllStrategies) {
  for (const char* name : {"fedavg", "stc", "apf", "gluefl"}) {
    const auto s = make_strategy(name, 30, "shufflenet");
    EXPECT_EQ(s->name(), name);
  }
  EXPECT_THROW(make_strategy("magic", 30, "shufflenet"), CheckError);
}

TEST(Factory, PaperDefaultRatios) {
  EXPECT_DOUBLE_EQ(default_mask_ratio("shufflenet"), 0.20);
  EXPECT_DOUBLE_EQ(default_mask_ratio("mobilenet"), 0.30);
  EXPECT_DOUBLE_EQ(default_shared_ratio("shufflenet"), 0.16);
  EXPECT_DOUBLE_EQ(default_shared_ratio("resnet34"), 0.24);
}

TEST(Factory, PaperDefaultStickyParams) {
  const auto cfg = default_gluefl_config(30, "shufflenet");
  EXPECT_EQ(cfg.sticky_group_size, 120);  // S = 4K
  EXPECT_EQ(cfg.sticky_per_round, 24);    // C = 4K/5
  EXPECT_EQ(cfg.regen_every, 10);
  EXPECT_EQ(cfg.error_comp, ErrorFeedback::Mode::kRescaled);
}

TEST(Factory, CalibratedConfigForSyntheticSubstrate) {
  const auto cfg = calibrated_gluefl_config(30, "shufflenet");
  EXPECT_EQ(cfg.sticky_group_size, 120);  // S unchanged
  EXPECT_EQ(cfg.sticky_per_round, 18);    // C = 3K/5
  EXPECT_NEAR(cfg.q_shr, 0.4 * cfg.q, 1e-12);
  // The paper's exact constants stay reachable by name.
  const auto paper = make_strategy("gluefl-paper", 30, "shufflenet");
  EXPECT_EQ(paper->name(), "gluefl");
}

TEST(Factory, CalibratedKeepsModelRatios) {
  const auto sn = calibrated_gluefl_config(30, "shufflenet");
  const auto rn = calibrated_gluefl_config(30, "resnet34");
  EXPECT_DOUBLE_EQ(sn.q, 0.20);
  EXPECT_DOUBLE_EQ(rn.q, 0.30);
  EXPECT_NEAR(rn.q_shr, 0.12, 1e-12);
}

}  // namespace
}  // namespace gluefl
