// Population-scale client state. A ClientDirectory answers "what is client
// c's profile?" and "is client c online in round t?" for any client id in
// [0, population) without materializing per-client state over the
// population.
//
// Profiles are rederived on demand via `derive_profile(c, env,
// profile_rng)` and availability is replayed per client from a two-state
// Markov chain (fork constant 0xA7A1 + c, stationary start, state-before-
// flip recording). Two LRU caches keep the queried clients resident; each
// cached value is a pure function of the client id, so an eviction only
// costs a rederivation and never changes an answer. `make_profiles` and
// AvailabilityTrace are the eager forms of the same functions, kept as
// the tests' reference. Queries are not thread-safe: call them from the
// coordinator thread (the engine's worker pool never touches profiles or
// availability).
#pragma once

#include <cstdint>
#include <vector>

#include "common/lru_cache.h"
#include "common/rng.h"
#include "net/client_profile.h"
#include "net/environment.h"
#include "scenario/scenario.h"

namespace gluefl {

class ClientDirectory {
 public:
  /// Cache capacity above kDenseScanThreshold, where the samplers and the
  /// async dispatch query only the clients they draw: comfortably covers
  /// an over-committed cohort plus async in-flight clients while staying
  /// a few hundred KB.
  static constexpr size_t kDefaultCacheCapacity = 4096;

  /// The cache capacity of a directory over `population` clients. Up to
  /// kDenseScanThreshold the samplers and the async dispatch pool query
  /// every client in id order every round, so the capacity is the
  /// population: every chain stays resident and a scan costs N cache hits
  /// instead of N chain replays from round 0 (DESIGN.md §8a).
  static size_t cache_capacity(int64_t population);

  /// Upper bound of resident_bytes() for a directory over `population`
  /// clients: both caches full.
  static size_t max_resident_bytes(int64_t population);

  /// `profile_rng` / `avail_rng` are the dedicated streams (the engine's
  /// kStreamProfiles / kStreamAvailability forks); the directory forks
  /// per entity from them and never advances them. When `use_availability`
  /// is false or the environment is fully available, every client is
  /// always online and no chain state is kept. The engine passes
  /// cache_capacity(population); tests pass tiny caches to force
  /// evictions.
  ClientDirectory(int64_t population, int horizon, const NetworkEnv& env,
                  const Rng& profile_rng, const Rng& avail_rng,
                  bool use_availability, size_t capacity);

  /// Applies a scenario (DESIGN.md §11) on top of the environment. Must be
  /// called before any profile/availability query (the engine does so right
  /// after construction). Device-class membership is a pure function of
  /// (scenario stream, client id) and the class multipliers are applied on
  /// top of derive_profile's output. Non-stationary availability modes
  /// (diurnal/trace) replace the Markov chains with a pure
  /// per-(client, round) draw and force always_on() to false.
  void set_scenario(const scenario::ScenarioSpec& spec,
                    const Rng& scenario_rng);

  /// Device class index of `client` into the scenario's device_classes,
  /// or -1 when the scenario defines no classes.
  int device_class(int64_t client) const;

  int64_t population() const { return population_; }
  bool always_on() const { return always_on_; }

  /// By value: lookups may evict cache entries, so references into the
  /// directory would not be stable.
  ClientProfile profile(int64_t client) const;
  bool available(int64_t client, int round) const;

  /// Bytes of per-client state currently resident (cached profiles and
  /// chains, cache bookkeeping), bounded by the cache capacity.
  size_t resident_bytes() const;

 private:
  // One lazily replayed availability chain. `on` is the online state for
  // round `pos` (the flip draw that leaves round `pos` has not been
  // consumed yet), matching AvailabilityTrace's record-then-flip order.
  struct Chain {
    Rng rng{0};
    int pos = 0;
    bool on = false;
  };

  // Hash node + list node bookkeeping dominates the payload for the small
  // cached structs; 48 bytes is a reasonable per-entry overhead estimate.
  static constexpr size_t kEntryOverhead = 48;
  static constexpr size_t kProfileEntryBytes =
      sizeof(ClientProfile) + kEntryOverhead;
  static constexpr size_t kChainEntryBytes = sizeof(Chain) + kEntryOverhead;

  Chain start_chain(int64_t client) const;
  void advance(Chain& chain) const;
  ClientProfile apply_device_class(int64_t client, ClientProfile p) const;

  int64_t population_;
  int horizon_;
  NetworkEnv env_;
  Rng profile_rng_;
  Rng avail_rng_;
  bool always_on_;
  double p_off_ = 0.0;  // on -> off per-round flip probability
  double p_on_ = 0.0;   // off -> on

  // Scenario overlay (set_scenario). `class_cum_` holds the cumulative
  // normalized device-class weights for the membership draw.
  scenario::ScenarioSpec scenario_;
  Rng scenario_rng_{0};
  std::vector<double> class_cum_;

  mutable LruCache<ClientProfile> profile_cache_;
  mutable LruCache<Chain> chain_cache_;
};

}  // namespace gluefl
