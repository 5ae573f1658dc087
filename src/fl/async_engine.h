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
// The whole loop state lives in AsyncRunState rather than locals so the
// checkpoint subsystem can snapshot it at an aggregation boundary and
// resume() can continue bit-identically: the binary-heap vector, the
// in-flight updates (training runs eagerly at dispatch, so pending events
// carry real wire frames), the sampling RNG and the simulated clock are
// all part of the snapshot.
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
  /// Loss and sample count only: `delta`/`stat_delta` are empty, because
  /// the payload travels in `wire`.
  LocalResult result;
  /// The serialized payload (delta + stats), sealed at dispatch through
  /// the uplink intake; the strategy opens it at aggregation.
  std::vector<uint8_t> wire;
};

/// A dispatched client training (or in transfer) right now. Training runs
/// eagerly at dispatch — the delta depends only on the model at dispatch
/// time — while the finish event is scheduled for download + compute +
/// upload later in simulated time.
struct AsyncInFlight {
  double finish = 0.0;
  uint64_t seq = 0;
  int client = 0;
  int version = 0;
  double dt = 0.0, ct = 0.0, ut = 0.0;
  size_t up_b = 0;
  size_t down_b = 0;  // dispatch-time download frame bytes (unscaled)
  LocalResult local;          // loss and sample count; payload in `wire`
  std::vector<uint8_t> wire;  // sealed frame; empty for a crashed client
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
  std::vector<AsyncUpdate> buffer;
  RoundRecord rec;  // the partially-accumulated next record
  Rng pick_rng{0};  // dispatch sampling stream (advances per draw)

  /// Checkpoint section (ckpt subsystem). restore_state validates client
  /// ids against `num_clients` and throws CkptError on mismatch.
  void save_state(ckpt::Writer& w) const;
  void restore_state(ckpt::Reader& r, int num_clients);
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

 private:
  RunResult run_loop(AsyncStrategy& strategy, AsyncRunState st,
                     RunResult result, RoundHook* hook);

  SimEngine& engine_;
  AsyncConfig cfg_;
};

}  // namespace gluefl
