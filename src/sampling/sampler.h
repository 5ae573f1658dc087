// Client sampling abstraction.
//
// A sampler *invites* candidates for a round. With over-commitment
// (Bonawitz et al.; §5.1/§5.6 of the paper) the server invites
// ceil(OC * K) clients and aggregates only the fastest finishers; the
// split of the extra invitations between the sticky and non-sticky groups
// is the "OC strategy" studied in Table 3a.
//
// Candidates are tagged by group because GlueFL's aggregation weights and
// the sticky-group rebalance depend on where a participant was drawn from.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "compress/bitmask.h"

namespace gluefl {

/// Populations up to this size are sampled with exact dense scans over the
/// id space (the historical behaviour; covers every dataset preset).
/// Larger — virtual — populations switch to rejection sampling over the id
/// space so per-round cost stays independent of the population. The client
/// directory sizes its caches by the same gate
/// (ClientDirectory::cache_capacity), so a scan hits a resident chain for
/// every client.
inline constexpr int64_t kDenseScanThreshold = 65536;

/// Draws up to `want` distinct clients from [0, num_clients) satisfying
/// `eligible` (null = everyone), by rejection over the id space. With
/// want << num_clients collisions are rare and the expected cost is
/// O(want / availability); the attempt cap bounds the worst case and makes
/// a shortfall (heavily unavailable population) terminate instead of spin.
inline std::vector<int> sample_virtual(
    int64_t num_clients, int want, Rng& rng,
    const std::function<bool(int)>& eligible) {
  std::vector<int> out;
  if (want <= 0) return out;
  out.reserve(static_cast<size_t>(want));
  std::unordered_set<int> seen;
  const int64_t max_attempts = int64_t{64} * want + 256;
  for (int64_t a = 0;
       a < max_attempts && out.size() < static_cast<size_t>(want); ++a) {
    const int c = rng.uniform_int(0, static_cast<int>(num_clients) - 1);
    if (!seen.insert(c).second) continue;
    if (eligible && !eligible(c)) continue;
    out.push_back(c);
  }
  return out;
}

/// Draws k distinct set bits of `pool` in random order: exactly the ids,
/// order and uniform_int calls of
/// rng.sample_without_replacement(pool.to_indices(), k), without building
/// the id list. The partial Fisher-Yates runs over rank positions, and only
/// the positions a swap has written (at most k) are stored; every other
/// position p still holds the p-th set bit.
inline std::vector<int> sample_from_mask(const BitMask& pool, int k,
                                         Rng& rng) {
  const int m = static_cast<int>(pool.count());
  GLUEFL_CHECK(k >= 0 && k <= m);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(k));
  std::unordered_map<int, int> moved;  // position -> id swapped into it
  auto at = [&](int p) {
    const auto it = moved.find(p);
    return it != moved.end() ? it->second
                             : static_cast<int>(pool.select(p));
  };
  for (int i = 0; i < k; ++i) {
    const int j = rng.uniform_int(i, m - 1);
    out.push_back(at(j));
    // Position i is never read again; j only if a later draw reaches it.
    if (j != i && i + 1 < k) moved[j] = at(i);
  }
  return out;
}

/// Invitation for one round, split by group. For uniform samplers the
/// sticky list is empty and need_sticky == 0.
struct CandidateSet {
  std::vector<int> sticky;
  std::vector<int> nonsticky;
  /// How many of each group the aggregation wants (C and K - C).
  int need_sticky = 0;
  int need_nonsticky = 0;

  int total_invited() const {
    return static_cast<int>(sticky.size() + nonsticky.size());
  }
};

/// Predicate deciding whether a client can be invited this round.
using AvailabilityFn = std::function<bool(int client)>;

class Sampler {
 public:
  virtual ~Sampler() = default;
  virtual std::string name() const = 0;

  /// Draws the round's invitations. `k` is the aggregation target K,
  /// `overcommit` >= 1 the OC factor.
  virtual CandidateSet invite(int round, int k, double overcommit, Rng& rng,
                              const AvailabilityFn& available) = 0;

  /// Informs the sampler which invitees actually participated, per group
  /// (needed for the sticky-group rebalance; no-op for uniform sampling).
  virtual void post_round(const std::vector<int>& included_sticky,
                          const std::vector<int>& included_nonsticky,
                          Rng& rng) {
    (void)included_sticky;
    (void)included_nonsticky;
    (void)rng;
  }

  /// True if the client is currently in the sticky group.
  virtual bool in_sticky_group(int client) const {
    (void)client;
    return false;
  }
};

}  // namespace gluefl
