#include "net/client_directory.h"

#include <algorithm>

#include "common/check.h"
#include "sampling/sampler.h"
#include "telemetry/telemetry.h"

namespace gluefl {

size_t ClientDirectory::cache_capacity(int64_t population) {
  return population <= kDenseScanThreshold ? static_cast<size_t>(population)
                                           : kDefaultCacheCapacity;
}

size_t ClientDirectory::max_resident_bytes(int64_t population) {
  return cache_capacity(population) * (kProfileEntryBytes + kChainEntryBytes);
}

ClientDirectory::ClientDirectory(int64_t population, int horizon,
                                 const NetworkEnv& env, const Rng& profile_rng,
                                 const Rng& avail_rng, bool use_availability,
                                 size_t capacity)
    : population_(population),
      horizon_(horizon),
      env_(env),
      profile_rng_(profile_rng),
      avail_rng_(avail_rng),
      always_on_(!use_availability || env.availability >= 1.0),
      profile_cache_(capacity),
      chain_cache_(capacity) {
  GLUEFL_CHECK(population > 0 && horizon > 0 && capacity > 0);
  if (!always_on_) {
    // Same geometric-sojourn parameters as AvailabilityTrace: steady-state
    // availability fixes the on/off balance, mean_on fixes the timescale.
    const double mean_on = std::max(1.0, env.mean_on_rounds);
    const double mean_off =
        std::max(1.0, mean_on * (1.0 - env.availability) / env.availability);
    p_off_ = 1.0 / mean_on;
    p_on_ = 1.0 / mean_off;
  }
}

void ClientDirectory::set_scenario(const scenario::ScenarioSpec& spec,
                                   const Rng& scenario_rng) {
  scenario_ = spec;
  scenario_rng_ = scenario_rng;
  class_cum_.clear();
  if (!spec.device_classes.empty()) {
    double total = 0.0;
    for (const auto& dc : spec.device_classes) total += dc.weight;
    double acc = 0.0;
    for (const auto& dc : spec.device_classes) {
      acc += dc.weight / total;
      class_cum_.push_back(acc);
    }
    class_cum_.back() = 1.0;  // guard against rounding in the last bin
  }
  // Diurnal/trace availability replaces the Markov chains with a pure
  // per-(client, round) draw; the engine must see always_on() == false so
  // its availability_fn stays wired in even when env.availability is 1.0.
  if (spec.availability != scenario::AvailabilityMode::kStationary) {
    always_on_ = false;
  }
}

int ClientDirectory::device_class(int64_t client) const {
  if (class_cum_.empty()) return -1;
  Rng cr = scenario_rng_.fork(static_cast<uint64_t>(client));
  const double u = cr.uniform();
  for (size_t i = 0; i < class_cum_.size(); ++i) {
    if (u < class_cum_[i]) return static_cast<int>(i);
  }
  return static_cast<int>(class_cum_.size()) - 1;
}

ClientProfile ClientDirectory::apply_device_class(int64_t client,
                                                  ClientProfile p) const {
  const int cls = device_class(client);
  if (cls < 0) return p;
  const scenario::DeviceClass& dc =
      scenario_.device_classes[static_cast<size_t>(cls)];
  p.gflops *= dc.compute_mult;
  p.down_mbps *= dc.down_mult;
  p.up_mbps *= dc.up_mult;
  return p;
}

ClientProfile ClientDirectory::profile(int64_t client) const {
  GLUEFL_CHECK(client >= 0 && client < population_);
  if (const ClientProfile* hit = profile_cache_.find(client)) {
    telemetry::count(telemetry::kDirProfileHits);
    return *hit;
  }
  // Eviction is re-derivation-only by construction: the evicted entry is
  // a pure function of (profile stream, client id) and comes back
  // bit-identical on the next miss (asserted in tests/test_telemetry.cpp).
  telemetry::count(telemetry::kDirProfileMisses);
  if (profile_cache_.at_capacity()) {
    telemetry::count(telemetry::kDirProfileEvictions);
  }
  return profile_cache_.insert(
      client, apply_device_class(
                  client, derive_profile(client, env_, profile_rng_)));
}

ClientDirectory::Chain ClientDirectory::start_chain(int64_t client) const {
  Chain chain;
  chain.rng = avail_rng_.fork(0xA7A1 + static_cast<uint64_t>(client));
  chain.on = chain.rng.bernoulli(env_.availability);  // stationary start
  chain.pos = 0;
  return chain;
}

void ClientDirectory::advance(Chain& chain) const {
  const double flip = chain.on ? p_off_ : p_on_;
  if (chain.rng.bernoulli(flip)) chain.on = !chain.on;
  ++chain.pos;
}

bool ClientDirectory::available(int64_t client, int round) const {
  GLUEFL_CHECK(client >= 0 && client < population_);
  if (scenario_.availability != scenario::AvailabilityMode::kStationary) {
    // Diurnal/trace mode: a pure per-(client, round) draw against the
    // scenario's online probability. No sojourn correlation across rounds
    // — the population-level online fraction is what these modes model.
    // Valid for any round >= 0 (the async engine queries by aggregation
    // version).
    GLUEFL_CHECK(round >= 0);
    const double p = scenario_.online_probability(round, env_.availability);
    Rng r = avail_rng_.fork(0xD1A3)
                .fork(static_cast<uint64_t>(client))
                .fork(static_cast<uint64_t>(round));
    return r.bernoulli(p);
  }
  if (always_on_) return true;
  GLUEFL_CHECK(round >= 0 && round < horizon_);
  Chain* chain = chain_cache_.find(client);
  if (chain != nullptr && chain->pos <= round) {
    telemetry::count(telemetry::kDirChainHits);
  } else {
    // Miss, or an out-of-order query behind the cached position: replay
    // the chain from its seed. Determinism is unaffected — the chain is a
    // pure function of (avail stream, client). Both cases count as a
    // miss (the chain is re-derived); only an absent key at capacity
    // evicts (re-inserting an existing key replaces in place).
    telemetry::count(telemetry::kDirChainMisses);
    if (chain == nullptr && chain_cache_.at_capacity()) {
      telemetry::count(telemetry::kDirChainEvictions);
    }
    chain = &chain_cache_.insert(client, start_chain(client));
  }
  while (chain->pos < round) advance(*chain);
  return chain->on;
}

size_t ClientDirectory::resident_bytes() const {
  return profile_cache_.size() * kProfileEntryBytes +
         chain_cache_.size() * kChainEntryBytes;
}

}  // namespace gluefl
