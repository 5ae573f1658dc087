// Per-client system profile: access link and device speed, drawn once per
// client from the environment's distributions (FedScale keeps these fixed
// per device across the trace; so do we).
//
// Profiles are derived per entity: client `c`'s profile is a pure function
// of the profile stream Rng and `c` (via `fork(c)`), so any client's
// profile can be recomputed on demand without materializing the rest of
// the population (ClientDirectory does so). `make_profiles` is the eager
// form, kept as the tests' reference for the directory.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/environment.h"

namespace gluefl {

struct ClientProfile {
  double down_mbps = 0.0;
  double up_mbps = 0.0;
  double gflops = 0.0;  // effective device training throughput
};

/// Derives client `client`'s profile from the profile stream `base`
/// without advancing it.
ClientProfile derive_profile(int64_t client, const NetworkEnv& env,
                             const Rng& base);

std::vector<ClientProfile> make_profiles(int64_t num_clients,
                                         const NetworkEnv& env,
                                         const Rng& rng);

}  // namespace gluefl
