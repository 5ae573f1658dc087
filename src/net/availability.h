// FedScale-style client availability: each client alternates between online
// and offline sojourns following a two-state Markov chain whose mean
// sojourn lengths come from the NetworkEnv. The whole trace is precomputed
// for a horizon of rounds so lookups are O(1) and deterministic.
// ClientDirectory replays the same per-client chains lazily; this eager
// form is kept as the tests' reference for it.
#pragma once

#include <vector>

#include "common/rng.h"
#include "compress/bitmask.h"
#include "net/environment.h"

namespace gluefl {

class AvailabilityTrace {
 public:
  /// Builds a trace for `num_clients` over `horizon` rounds. When the
  /// environment's availability is 1.0 the trace is trivially all-online.
  AvailabilityTrace(int num_clients, int horizon, const NetworkEnv& env,
                    Rng& rng);

  bool available(int client, int round) const;
  /// Fraction of clients online in `round`.
  double online_fraction(int round) const;
  int horizon() const { return horizon_; }
  int num_clients() const { return num_clients_; }

 private:
  int num_clients_;
  int horizon_;
  bool always_on_;
  std::vector<BitMask> online_;  // one mask over clients per round
};

}  // namespace gluefl
