// AsyncSimEngine: FedBuff-style asynchronous round execution.
//
// Instead of the synchronous fastest-finishers barrier, `concurrency`
// clients train at all times, each against the model version that was
// current when it was dispatched. The server folds finished updates into a
// buffer and aggregates as soon as `buffer_size` of them are waiting — the
// K-of-N trigger — discounting each update by the strategy's staleness
// weight s(tau), where tau is the number of aggregations that happened
// between the update's dispatch and its fold.
//
// The engine is an event-driven simulation over the same substrate as the
// synchronous path: per-client system profiles give download/compute/
// upload times, dispatch downloads are priced through the SyncTracker
// staleness diff (so masking strategies' staleness economics carry over),
// and one aggregation consumes one RunConfig "round" — RunResult,
// totals and the reporting helpers all work unchanged.
//
// Determinism: the event loop is serial (a single min-heap ordered by
// (finish time, dispatch seq)); client training draws from RNG streams
// keyed by the dispatch sequence number, so results are exactly
// reproducible and independent of the training thread count.
//
// Training happens at aggregation, not at dispatch. A delta is a pure
// function of its dispatch version's params and stats, its shard, its
// seq-keyed stream and that version's learning rate, so a dispatch
// records only who, when and at which version, and prices its upload at
// wire::dense_frame_bytes. The engine keeps a table of model versions: a
// copy of the global params and stats taken at a version's first dispatch.
// When the buffer fills, the buffered updates train as one batch, each
// from its version's copy, their frames are sealed, every copy that no
// in-flight update references is dropped, and the strategy opens the
// frames. Dropouts, deadline misses and the updates still in flight when
// the run ends are never trained.
//
// The whole loop state lives in AsyncRunState rather than locals so the
// checkpoint subsystem can snapshot it at an aggregation boundary and
// resume() can continue bit-identically: the binary-heap vector, the
// version table, the sampling RNG and the simulated clock are all part of
// the snapshot. The buffer is empty at every boundary.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fl/engine.h"
#include "fl/metrics.h"
#include "fl/run_hook.h"
#include "fl/sim_config.h"
#include "fl/strategy.h"

namespace gluefl {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// One finished client update waiting in (or folded from) the buffer.
struct AsyncUpdate {
  int client = 0;
  int version = 0;    // aggregation version the client trained against
  int staleness = 0;  // aggregation version at fold time - version
  uint64_t seq = 0;   // dispatch sequence number: training stream and fates
  /// Loss and sample count only: `delta`/`stat_delta` are empty, because
  /// the payload travels in `wire`.
  LocalResult result;
  /// The serialized payload (delta + stats), trained and sealed through
  /// the uplink intake when the buffer fills; the strategy opens it at
  /// aggregation. Empty until then.
  std::vector<uint8_t> wire;
};

/// A dispatched client downloading, training or uploading right now, in
/// simulated time. Nothing is trained yet: the update trains from its
/// version's copy if and when it reaches an aggregation.
struct AsyncInFlight {
  double finish = 0.0;
  uint64_t seq = 0;
  int client = 0;
  int version = 0;
  double dt = 0.0, ct = 0.0, ut = 0.0;
  size_t up_b = 0;    // priced upload frame bytes; 0 for a crashed client
  size_t down_b = 0;  // dispatch-time download frame bytes (unscaled)
};

/// The model a version's dispatches train from: the global params and
/// stats as they stood when the version was first dispatched.
struct AsyncModelVersion {
  int version = 0;
  std::vector<float> params;
  std::vector<float> stats;
};

/// Complete event-loop state at any instant; snapshot-able at aggregation
/// boundaries (buffer just cleared, version just advanced).
struct AsyncRunState {
  int version = 0;        // completed aggregations == current model version
  double now = 0.0;       // simulated seconds
  double last_agg = 0.0;  // sim time of the previous aggregation
  uint64_t seq = 0;       // dispatches issued so far
  int free_slots = 0;
  /// Pending finish events as a binary heap (std::push_heap/pop_heap with
  /// the (finish, seq) ordering). Serialized as the raw vector: restoring
  /// the exact layout is what keeps the resumed pop sequence identical.
  std::vector<AsyncInFlight> events;
  /// Clients currently dispatched. Sparse over the population (bounded by
  /// `concurrency`) and fully derivable from `events`, so it is NOT
  /// serialized — restore_state reconstructs it from the event list.
  std::unordered_set<int> in_flight;
  /// Copies of the model versions that in-flight or buffered updates
  /// train from, ascending. A copy that no update references any more is
  /// dropped at the next aggregation, so at a boundary the table holds
  /// exactly the versions of `events`.
  std::vector<AsyncModelVersion> versions;
  std::vector<AsyncUpdate> buffer;  // empty at every boundary
  RoundRecord rec;  // the partially-accumulated next record
  Rng pick_rng{0};  // dispatch sampling stream (advances per draw)

  /// Checkpoint section (ckpt subsystem). save_state requires an empty
  /// buffer. restore_state validates client ids against `num_clients` and
  /// the version table against the events and the model's shapes, and
  /// throws CkptError on a mismatch.
  void save_state(ckpt::Writer& w) const;
  void restore_state(ckpt::Reader& r, int num_clients, size_t dim,
                     size_t stat_dim);
};

class AsyncSimEngine {
 public:
  /// Wraps an engine without taking ownership; `engine` must outlive this.
  /// One AsyncSimEngine per run is cheap — state resets per run, so many
  /// async (and sync) runs can share one engine with paired noise.
  AsyncSimEngine(SimEngine& engine, AsyncConfig cfg);

  const AsyncConfig& config() const { return cfg_; }

  /// Executes run_config().rounds buffer aggregations of `strategy`,
  /// evaluating every eval_every aggregations. If the dispatch pool ever
  /// drains completely (every client offline and none in flight) the run
  /// flushes a final partial buffer and returns early. `hook` (may be
  /// null) observes every aggregation boundary — the checkpoint seam.
  RunResult run(AsyncStrategy& strategy, RoundHook* hook = nullptr);

  /// Continues a restored run from `state` (an aggregation boundary),
  /// appending to `prefix` — the restored record history. The caller
  /// (ckpt::restore_async_run) must have restored the engine's
  /// params/stats/sync and the strategy state first; neither reset_state()
  /// nor strategy.init() is called here.
  RunResult resume(AsyncStrategy& strategy, AsyncRunState state,
                   RunResult prefix, RoundHook* hook = nullptr);

  /// Deterministic estimate of a run's peak resident bytes: the engine's
  /// estimate for one batch of buffer_size shards, plus that batch's
  /// deltas, sealed frames and decoded deltas, plus the version table at
  /// min(concurrency, rounds) copies. `residual_rows` as for
  /// SimEngine::memory_estimate_bytes.
  size_t memory_estimate_bytes(bool residual_rows) const;

 private:
  RunResult run_loop(AsyncStrategy& strategy, AsyncRunState st,
                     RunResult result, RoundHook* hook);

  SimEngine& engine_;
  AsyncConfig cfg_;
};

}  // namespace gluefl
