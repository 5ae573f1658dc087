// Population-scale client state. A ClientDirectory answers "what is client
// c's profile?" and "is client c online in round t?" for any virtual client
// id in [0, population) without necessarily materializing per-client state
// dense over the population.
//
// Two modes share one derivation contract:
//   - materialized (dense): eager `make_profiles` vector plus a
//     precomputed AvailabilityTrace, exactly the pre-directory layout.
//   - lazy (virtual): profiles are rederived on demand via
//     `derive_profile(c, env, profile_rng)` and availability is replayed
//     per client from the same two-state Markov chain the trace uses
//     (fork constant 0xA7A1 + c, stationary start, state-before-flip
//     recording). A small LRU cache keeps the active cohort resident.
//
// Because both modes evaluate the same per-entity functions of the same
// seeded streams, their answers are bit-identical; the lazy path only
// changes memory, never results. Queries are not thread-safe: call them
// from the coordinator thread (the engine's worker pool never touches
// profiles or availability).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "common/rng.h"
#include "net/availability.h"
#include "net/client_profile.h"
#include "net/environment.h"
#include "scenario/scenario.h"

namespace gluefl {

class ClientDirectory {
 public:
  /// Default LRU capacity; comfortably covers an over-committed cohort
  /// plus async in-flight clients while staying a few hundred KB.
  static constexpr size_t kDefaultCacheCapacity = 4096;

  /// `profile_rng` / `avail_rng` are the dedicated streams (the engine's
  /// kStreamProfiles / kStreamAvailability forks); the directory forks
  /// per entity from them and never advances them. When `use_availability`
  /// is false or the environment is fully available, every client is
  /// always online and no chain state is kept.
  ClientDirectory(int64_t population, int horizon, const NetworkEnv& env,
                  const Rng& profile_rng, const Rng& avail_rng,
                  bool use_availability, bool materialize,
                  size_t cache_capacity = kDefaultCacheCapacity);

  /// Applies a scenario (DESIGN.md §11) on top of the environment. Must be
  /// called before any profile/availability query (the engine does so right
  /// after construction). Device-class membership is a pure function of
  /// (scenario stream, client id) and the class multipliers are applied on
  /// top of derive_profile's output identically in both modes, so dense and
  /// virtual populations stay bit-identical. Non-stationary availability
  /// modes (diurnal/trace) replace the Markov chains with a pure
  /// per-(client, round) draw and force always_on() to false.
  void set_scenario(const scenario::ScenarioSpec& spec,
                    const Rng& scenario_rng);

  /// Device class index of `client` into the scenario's device_classes,
  /// or -1 when the scenario defines no classes.
  int device_class(int64_t client) const;

  int64_t population() const { return population_; }
  bool always_on() const { return always_on_; }
  bool materialized() const { return materialize_; }

  /// By value: lazy-mode lookups may evict cache entries, so references
  /// into the directory would not be stable.
  ClientProfile profile(int64_t client) const;
  bool available(int64_t client, int round) const;

  /// Bytes of per-client state currently resident (profiles, availability
  /// masks or chains, cache bookkeeping). Dense mode grows with the
  /// population; lazy mode is bounded by the cache capacity.
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

  Chain start_chain(int64_t client) const;
  void advance(Chain& chain) const;
  ClientProfile apply_device_class(int64_t client, ClientProfile p) const;

  int64_t population_;
  int horizon_;
  NetworkEnv env_;
  Rng profile_rng_;
  Rng avail_rng_;
  bool always_on_;
  bool materialize_;
  double p_off_ = 0.0;  // on -> off per-round flip probability
  double p_on_ = 0.0;   // off -> on

  // Scenario overlay (set_scenario). `class_cum_` holds the cumulative
  // normalized device-class weights for the membership draw.
  scenario::ScenarioSpec scenario_;
  Rng scenario_rng_{0};
  std::vector<double> class_cum_;

  // Materialized mode.
  std::vector<ClientProfile> profiles_;
  std::unique_ptr<AvailabilityTrace> trace_;

  // Lazy mode.
  mutable LruCache<ClientProfile> profile_cache_;
  mutable LruCache<Chain> chain_cache_;
};

}  // namespace gluefl
