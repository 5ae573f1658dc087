// Uniform / sticky sampler behaviour, exact draws from a bitmask pool, the
// Appendix A propositions, and Monte-Carlo validation of Proposition 2
// against the actual Algorithm 2 dynamics implemented by StickySampler.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "compress/bitmask.h"
#include "sampling/propositions.h"
#include "sampling/sampler.h"
#include "sampling/sticky_sampler.h"
#include "sampling/uniform_sampler.h"

namespace gluefl {
namespace {

TEST(UniformSampler, InvitesOverCommittedCount) {
  UniformSampler s(100);
  Rng rng(1);
  const auto cand = s.invite(0, 10, 1.3, rng, {});
  EXPECT_EQ(cand.nonsticky.size(), 13u);
  EXPECT_TRUE(cand.sticky.empty());
  EXPECT_EQ(cand.need_nonsticky, 10);
  EXPECT_EQ(cand.need_sticky, 0);
}

TEST(UniformSampler, InviteesAreDistinctAndInRange) {
  UniformSampler s(50);
  Rng rng(2);
  for (int round = 0; round < 20; ++round) {
    const auto cand = s.invite(round, 10, 1.5, rng, {});
    std::set<int> uniq(cand.nonsticky.begin(), cand.nonsticky.end());
    EXPECT_EQ(uniq.size(), cand.nonsticky.size());
    for (int c : cand.nonsticky) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 50);
    }
  }
}

TEST(UniformSampler, HonorsAvailability) {
  UniformSampler s(100);
  Rng rng(3);
  const auto avail = [](int c) { return c < 20; };
  const auto cand = s.invite(0, 10, 1.3, rng, avail);
  EXPECT_LE(cand.nonsticky.size(), 13u);
  for (int c : cand.nonsticky) EXPECT_LT(c, 20);
}

TEST(UniformSampler, AvailabilityShortfallShrinksInvite) {
  UniformSampler s(100);
  Rng rng(4);
  const auto avail = [](int c) { return c < 5; };
  const auto cand = s.invite(0, 10, 1.3, rng, avail);
  EXPECT_EQ(cand.nonsticky.size(), 5u);
}

// ------------------------------------------------ exact draws from a mask

// Empty, single-bit, sparse (1 in 64), half and full masks over n ids.
std::vector<BitMask> pool_masks(size_t n) {
  Rng rng(n);
  std::vector<BitMask> out(5, BitMask(n));
  out[1].set(n - 1);
  for (size_t i = 0; i < n; ++i) {
    if (rng.uniform() < 1.0 / 64.0) out[2].set(i);
    if (rng.uniform() < 0.5) out[3].set(i);
  }
  out[4].set_all();
  return out;
}

constexpr size_t kPoolSizes[] = {1, 63, 64, 65, 10625, 65536};

bool same_state(const Rng& a, const Rng& b) {
  const Rng::State x = a.state();
  const Rng::State y = b.state();
  return std::equal(std::begin(x.s), std::end(x.s), std::begin(y.s)) &&
         x.cached_normal_bits == y.cached_normal_bits &&
         x.has_cached_normal == y.has_cached_normal;
}

TEST(ExactDraw, SelectMatchesToIndices) {
  for (const size_t n : kPoolSizes) {
    for (const BitMask& pool : pool_masks(n)) {
      const std::vector<uint32_t> idx = pool.to_indices();
      for (size_t p = 0; p < idx.size(); ++p) {
        ASSERT_EQ(pool.select(p), idx[p]) << "n=" << n << " p=" << p;
      }
      // Past the last set bit there is only padding: never returned.
      EXPECT_THROW(pool.select(idx.size()), CheckError) << "n=" << n;
    }
  }
}

TEST(ExactDraw, SampleFromMaskMatchesSampleWithoutReplacement) {
  for (const size_t n : kPoolSizes) {
    const std::vector<BitMask> masks = pool_masks(n);
    for (size_t mi = 0; mi < masks.size(); ++mi) {
      const BitMask& pool = masks[mi];
      const std::vector<uint32_t> idx = pool.to_indices();
      const std::vector<int> ids(idx.begin(), idx.end());
      const int m = static_cast<int>(ids.size());
      for (const int k : {0, 1, m / 2, m}) {
        if (k > m) continue;
        const std::string at = "n=" + std::to_string(n) +
                               " mask=" + std::to_string(mi) +
                               " k=" + std::to_string(k);
        Rng ref(n * 31 + static_cast<uint64_t>(k));
        Rng got(n * 31 + static_cast<uint64_t>(k));
        ASSERT_EQ(sample_from_mask(pool, k, got),
                  ref.sample_without_replacement(ids, k))
            << at;
        EXPECT_TRUE(same_state(got, ref)) << at;
      }
      Rng rng(1);
      EXPECT_THROW(sample_from_mask(pool, m + 1, rng), CheckError);
    }
  }
}

StickyConfig sticky_cfg(int s, int c) {
  StickyConfig cfg;
  cfg.group_size = s;
  cfg.sticky_per_round = c;
  return cfg;
}

TEST(StickySampler, InitialGroupHasConfiguredSize) {
  Rng rng(5);
  StickySampler s(100, sticky_cfg(20, 4), rng);
  EXPECT_EQ(s.group_size(), 20);
}

TEST(StickySampler, InviteSplitsGroups) {
  Rng rng(6);
  StickySampler s(100, sticky_cfg(20, 4), rng);
  Rng draw(7);
  const auto cand = s.invite(0, 10, 1.0, draw, {});
  EXPECT_EQ(cand.sticky.size(), 4u);
  EXPECT_EQ(cand.nonsticky.size(), 6u);
  EXPECT_EQ(cand.need_sticky, 4);
  EXPECT_EQ(cand.need_nonsticky, 6);
  for (int c : cand.sticky) EXPECT_TRUE(s.in_sticky_group(c));
  for (int c : cand.nonsticky) EXPECT_FALSE(s.in_sticky_group(c));
}

TEST(StickySampler, OverCommitExtrasSplitProportionally) {
  Rng rng(8);
  // K=10, C=8 -> default OC fraction C/K = 0.8; OC 1.5 -> 5 extras,
  // 4 to the sticky side.
  StickySampler s(200, sticky_cfg(40, 8), rng);
  Rng draw(9);
  const auto cand = s.invite(0, 10, 1.5, draw, {});
  EXPECT_EQ(cand.sticky.size(), 12u);     // 8 + 4
  EXPECT_EQ(cand.nonsticky.size(), 3u);   // 2 + 1
}

TEST(StickySampler, OverCommitFractionZeroSendsExtrasToNonSticky) {
  Rng rng(10);
  auto cfg = sticky_cfg(40, 8);
  cfg.oc_sticky_fraction = 0.0;
  StickySampler s(200, cfg, rng);
  Rng draw(11);
  const auto cand = s.invite(0, 10, 1.5, draw, {});
  EXPECT_EQ(cand.sticky.size(), 8u);
  EXPECT_EQ(cand.nonsticky.size(), 7u);  // 2 + 5
}

TEST(StickySampler, RebalanceKeepsGroupSizeAndAdmitsParticipants) {
  Rng rng(12);
  StickySampler s(100, sticky_cfg(20, 4), rng);
  Rng draw(13);
  const auto cand = s.invite(0, 10, 1.0, draw, {});
  Rng post(14);
  s.post_round(cand.sticky, cand.nonsticky, post);
  EXPECT_EQ(s.group_size(), 20);
  for (int c : cand.nonsticky) EXPECT_TRUE(s.in_sticky_group(c));
  // Sticky participants are never evicted by the rebalance.
  for (int c : cand.sticky) EXPECT_TRUE(s.in_sticky_group(c));
}

TEST(StickySampler, GroupEvolvesOverRounds) {
  Rng rng(15);
  StickySampler s(100, sticky_cfg(20, 4), rng);
  const auto before = s.sticky_members();
  Rng draw(16);
  for (int round = 0; round < 10; ++round) {
    const auto cand = s.invite(round, 10, 1.0, draw, {});
    s.post_round(cand.sticky, cand.nonsticky, draw);
  }
  EXPECT_NE(s.sticky_members(), before);
  EXPECT_EQ(s.group_size(), 20);
}

TEST(StickySampler, AvailabilityShortfallSpillsToNonSticky) {
  Rng rng(17);
  StickySampler s(100, sticky_cfg(20, 4), rng);
  const auto members = s.sticky_members();
  // Only one sticky member is online.
  const int lone = members[0];
  const auto avail = [&members, lone](int c) {
    if (std::find(members.begin(), members.end(), c) != members.end()) {
      return c == lone;
    }
    return true;
  };
  Rng draw(18);
  const auto cand = s.invite(0, 10, 1.0, draw, avail);
  EXPECT_EQ(cand.sticky.size(), 1u);
  EXPECT_EQ(cand.sticky[0], lone);
  EXPECT_EQ(cand.nonsticky.size(), 9u);  // 6 + 3 spilled
  EXPECT_EQ(cand.need_sticky, 1);
}

TEST(StickySampler, RejectsBadConfig) {
  Rng rng(19);
  EXPECT_THROW(StickySampler(10, sticky_cfg(20, 4), rng), CheckError);
  EXPECT_THROW(StickySampler(100, sticky_cfg(20, 25), rng), CheckError);
  EXPECT_THROW(StickySampler(100, sticky_cfg(0, 0), rng), CheckError);
}

TEST(Propositions, UniformProbabilitiesSumToOne) {
  double sum = 0.0;
  for (int r = 1; r < 5000; ++r) sum += uniform_resample_prob(100, 10, r);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Propositions, UniformExpectedGap) {
  EXPECT_DOUBLE_EQ(uniform_expected_gap(2800, 30), 2800.0 / 30.0);
  // Mean of the geometric distribution reproduces N/K.
  double mean_r = 0.0;
  for (int r = 1; r < 20000; ++r) {
    mean_r += r * uniform_resample_prob(100, 10, r);
  }
  EXPECT_NEAR(mean_r, 10.0, 1e-3);
}

TEST(Propositions, CaseStudyNumbersFromPaper) {
  // §3.1: N=2800, K=30, S=120, C=24 -> 20.0, 15.0, 11.2, 8.5, 6.4, 4.8 %.
  const double expected[] = {0.200, 0.150, 0.112, 0.085, 0.064, 0.048};
  for (int r = 1; r <= 6; ++r) {
    // Paper rounds to 3 decimals (e.g. 11.2%); allow half a rounding unit
    // plus a hair (the exact r=3 value is 0.11269).
    EXPECT_NEAR(sticky_resample_prob(2800, 30, 120, 24, r), expected[r - 1],
                0.0008)
        << "r=" << r;
  }
  // Uniform baseline ~1.1%.
  EXPECT_NEAR(uniform_resample_prob(2800, 30, 1), 30.0 / 2800.0, 1e-12);
}

TEST(Propositions, StickyProbabilitiesSumToOne) {
  double sum = 0.0;
  for (int r = 1; r < 50000; ++r) {
    sum += sticky_resample_prob(2800, 30, 120, 24, r);
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(Propositions, StickyExpectedGapIsNOverK) {
  // Appendix A.2: sticky sampling preserves the N/K average gap.
  double mean_r = 0.0;
  for (int r = 1; r < 200000; ++r) {
    mean_r += r * sticky_resample_prob(600, 12, 48, 9, r);
  }
  EXPECT_NEAR(mean_r, 600.0 / 12.0, 0.05);
}

TEST(Propositions, AdvantageHorizonCaseStudy) {
  // For the paper's case study the sticky advantage lasts ~10-11 rounds.
  const int r = sticky_advantage_horizon(2800, 30, 120, 24);
  EXPECT_GE(r, 10);
  EXPECT_LE(r, 12);
  // And indeed the sticky probability dominates uniform inside the horizon.
  for (int i = 1; i <= r - 1; ++i) {
    EXPECT_GE(sticky_resample_prob(2800, 30, 120, 24, i),
              uniform_resample_prob(2800, 30, i));
  }
}

// Monte-Carlo validation of Proposition 2 against the real Algorithm 2
// dynamics: track gaps between participations of a tagged client.
TEST(Propositions, MonteCarloMatchesStickyFormula) {
  const int n = 120, k = 8, s = 24, c = 6;
  Rng init(20);
  StickySampler sampler(n, sticky_cfg(s, c), init);
  Rng draw(21);
  std::vector<int> gap_counts(60, 0);
  int participations = 0;
  int last_seen = -1;
  const int rounds = 120000;
  for (int t = 0; t < rounds; ++t) {
    const auto cand = sampler.invite(t, k, 1.0, draw, {});
    sampler.post_round(cand.sticky, cand.nonsticky, draw);
    const bool hit =
        std::find(cand.sticky.begin(), cand.sticky.end(), 0) !=
            cand.sticky.end() ||
        std::find(cand.nonsticky.begin(), cand.nonsticky.end(), 0) !=
            cand.nonsticky.end();
    if (hit) {
      if (last_seen >= 0) {
        const int gap = t - last_seen;
        if (gap < static_cast<int>(gap_counts.size())) {
          ++gap_counts[static_cast<size_t>(gap)];
        }
        ++participations;
      }
      last_seen = t;
    }
  }
  ASSERT_GT(participations, 3000);
  for (int r = 1; r <= 4; ++r) {
    const double expected = sticky_resample_prob(n, k, s, c, r);
    const double observed = static_cast<double>(gap_counts[static_cast<size_t>(r)]) /
                            participations;
    EXPECT_NEAR(observed, expected, 0.015) << "gap r=" << r;
  }
}

// Monte-Carlo validation of Proposition 1 for uniform sampling.
TEST(Propositions, MonteCarloMatchesUniformFormula) {
  const int n = 100, k = 10;
  UniformSampler sampler(n);
  Rng draw(22);
  std::vector<int> gap_counts(40, 0);
  int participations = 0;
  int last_seen = -1;
  for (int t = 0; t < 60000; ++t) {
    const auto cand = sampler.invite(t, k, 1.0, draw, {});
    const bool hit = std::find(cand.nonsticky.begin(), cand.nonsticky.end(),
                               0) != cand.nonsticky.end();
    if (hit) {
      if (last_seen >= 0) {
        const int gap = t - last_seen;
        if (gap < static_cast<int>(gap_counts.size())) {
          ++gap_counts[static_cast<size_t>(gap)];
        }
        ++participations;
      }
      last_seen = t;
    }
  }
  ASSERT_GT(participations, 3000);
  for (int r = 1; r <= 3; ++r) {
    const double expected = uniform_resample_prob(n, k, r);
    const double observed = static_cast<double>(gap_counts[static_cast<size_t>(r)]) /
                            participations;
    EXPECT_NEAR(observed, expected, 0.015) << "gap r=" << r;
  }
}

}  // namespace
}  // namespace gluefl
