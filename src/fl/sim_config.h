// Training and simulation configuration (paper §5.1 defaults).
#pragma once

#include <cstdint>

#include "scenario/scenario.h"

namespace gluefl {

/// Client-side optimization hyper-parameters.
struct TrainConfig {
  int local_steps = 10;    // E: local SGD iterations per round
  int batch_size = 16;
  double lr0 = 0.05;       // initial learning rate
  double lr_decay = 0.98;  // multiplied every lr_decay_every rounds
  int lr_decay_every = 10;
  double momentum = 0.9;   // PyTorch SGD momentum (paper uses 0.9)
};

/// Staleness discount families s(tau) for asynchronous aggregation.
///   kConstant:   s(tau) = 1 (no discounting)
///   kPolynomial: s(tau) = (1 + tau)^(-alpha)  (FedBuff's default family)
enum class StalenessDiscount { kConstant, kPolynomial };

/// Asynchronous (FedBuff-style, K-of-N) execution parameters.
///
/// `concurrency` clients train at any moment, each against the model
/// version current at its dispatch time. The server folds updates into a
/// buffer as they arrive and aggregates as soon as `buffer_size` updates
/// are buffered; one aggregation consumes one RunConfig round, so a run
/// executes RunConfig::rounds aggregations. Staleness of an update is the
/// number of aggregations between its dispatch and its fold.
struct AsyncConfig {
  int buffer_size = 10;  // K: buffered updates per aggregation
  int concurrency = 30;  // N: clients training concurrently
};

/// Update-reduction backend selection (src/agg/aggregator.h).
enum class AggKind { kDense, kSharded };

struct AggConfig {
  AggKind kind = AggKind::kDense;
  /// Parameter-range shard count for kSharded; 0 = auto (scales with the
  /// engine's training thread count).
  int shards = 0;
};

/// Aggregation topology (src/agg/topology.h): 0 edges = flat (every client
/// reports to the cloud), E >= 1 = hierarchical with E edge aggregators.
struct TopologyConfig {
  int num_edges = 0;
  bool hierarchical() const { return num_edges > 0; }
};

/// Byte accounting (src/wire/codec.h, DESIGN.md §7). Client updates are
/// always serialized through the wire codec: transfers are priced off the
/// measured frame sizes and aggregation consumes the decoded payloads. The
/// single enumerator is kept only so existing configuration code that
/// names it keeps compiling; nothing reads it.
enum class WireMode { kEncoded };

struct WireConfig {
  WireMode mode = WireMode::kEncoded;
};

/// Client-population representation (src/net/client_directory.h).
///   kDense:   per-client state is materialized over the whole population
///             (profiles vector, availability masks) — the historical
///             layout, fine up to ~10^5 clients.
///   kVirtual: client state is derived on demand from per-entity seeded
///             Rng streams with a small LRU cache; memory is O(active
///             cohort) so populations of 10^6+ are practical. Both modes
///             evaluate the same per-entity functions, so results are
///             bit-identical.
enum class PopulationMode { kDense, kVirtual };

/// Round-loop / systems configuration.
struct RunConfig {
  int rounds = 300;
  int clients_per_round = 30;  // K
  /// Simulated client population; 0 = the dataset's client count. Larger
  /// populations map virtual ids onto dataset shards modulo the shard
  /// count (data weights rescale accordingly).
  int64_t population = 0;
  PopulationMode population_mode = PopulationMode::kDense;
  double overcommit = 1.3;     // OC factor (§5.1)
  int eval_every = 5;          // evaluate test accuracy every n rounds
  int eval_window = 5;         // paper: accuracy averaged over 5 evals
  int topk_accuracy = 1;       // 5 for OpenImage
  bool use_availability = true;
  uint64_t seed = 42;
  /// Threads for parallel client training; 0 = hardware concurrency.
  int num_threads = 0;
  /// Update-reduction backend (dense reference or sharded parallel).
  AggConfig agg;
  /// Flat or hierarchical (edge -> cloud) aggregation topology.
  TopologyConfig topology;
  /// Byte accounting; always the encoded (measured) wire.
  WireConfig wire;
  /// Fleet-shaping scenario (DESIGN.md §11): device-class mixes, diurnal/
  /// trace availability, deadlines, dropouts and Byzantine clients. The
  /// default spec is inert (scenario.enabled() == false) and reproduces
  /// the paper's baseline behaviour exactly.
  scenario::ScenarioSpec scenario;
};

}  // namespace gluefl
