// Versioned, CRC-guarded checkpoint snapshots (DESIGN.md §8).
//
// A snapshot captures everything a round boundary needs to continue a run
// bit-identically after a crash / restart:
//
//   * the global model (trainable params + BatchNorm stats),
//   * the SyncTracker (per-client last-sync rounds + the retained
//     changed-bitmap window, i.e. the staleness economics),
//   * the strategy's Checkpointable state (sticky cohort, error
//     residuals, shared mask, APF freeze schedule, ...),
//   * the metrics history (every RoundRecord produced so far, so the
//     resumed run's report/JSON equals the uninterrupted run's),
//   * on the async path, the full event-loop state (in-flight updates
//     with their trained deltas / wire frames, the dispatch RNG, the
//     simulated clock),
//   * free-form meta key/value pairs — the CLI stores its resolved
//     options plus build provenance here so `gluefl resume <ckpt>` can
//     reconstruct the exact engine and warn on binary mismatch.
//
// File layout (little-endian; Writer/Reader conventions from ckpt/io.h):
//
//   File    := magic u32 ("GFCK") | format u8 (=5) | reserved u8 (=0)
//              | crc32 u32 (of payload) | payload_len u64 | payload
//   payload := meta | core | sync blob | history | strategy | async
//              | telemetry
//     meta      := npairs varint | (key str, value str)*
//     core      := seed u64 | dim varint | stat_dim varint
//                 | num_clients varint | rounds varint | next_round varint
//                 | params f32s | stats f32s
//     history   := nrecords varint | RoundRecord*
//     strategy  := id str | state blob
//     async     := present u8 | [state blob]
//     telemetry := count varint | u64 * count   (sim-class counters at the
//                  boundary, telemetry::sim_values() order; restored on
//                  resume so the JSON "telemetry" block stays byte-
//                  identical to the uninterrupted run)
//
// Versioning rules: `format` bumps on ANY layout change, including a
// change to a component's save_state byte sequence; decoders reject
// unknown magic/version and CRC mismatches loudly (CkptError) rather than
// guess. Saves are atomic: write to "<path>.tmp", then rename, so a crash
// mid-save never leaves a half-written checkpoint under the final name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpointable.h"
#include "ckpt/io.h"
#include "fl/metrics.h"
#include "fl/run_hook.h"

namespace gluefl {
class SimEngine;
class Strategy;
class AsyncStrategy;
struct AsyncRunState;
}  // namespace gluefl

namespace gluefl::ckpt {

inline constexpr uint32_t kMagic = 0x4B434647;  // "GFCK"
/// Format 2: the SyncTracker section became a sparse id->round map and
/// the async section dropped the dense in-flight flag vector (both
/// per-client-dense layouts died with the virtual-population refactor).
/// Format 3: appended the sim-class telemetry counter section.
/// Format 4: the telemetry section grew the scenario counters (the CLI
/// additionally stores the canonical scenario JSON under meta "scenario").
/// Format 5: the telemetry section grew the flight-recorder digest
/// buckets (DESIGN.md §12) and the async in-flight entries carry the
/// dispatch-time download bytes.
inline constexpr uint8_t kFormatVersion = 5;
inline constexpr size_t kHeaderBytes = 18;

/// RoundRecord serialization shared by the history and async sections
/// (doubles as IEEE bit patterns, so unevaluated-NaN accuracies survive).
void write_record(Writer& w, const RoundRecord& rec);
RoundRecord read_record(Reader& r);

/// Fully-decoded snapshot. Component states stay as opaque sub-blobs
/// (decoded by the owning component's restore_state), so strategies can
/// evolve their sections without touching this container.
struct Snapshot {
  std::map<std::string, std::string> meta;
  uint64_t seed = 0;
  size_t dim = 0;
  size_t stat_dim = 0;
  int num_clients = 0;
  int rounds = 0;      // configured horizon of the checkpointed run
  int next_round = 0;  // boundary: rounds [0, next_round) are complete
  std::vector<float> params;
  std::vector<float> stats;
  std::vector<uint8_t> sync_state;
  std::vector<RoundRecord> history;
  std::string strategy_id;
  std::vector<uint8_t> strategy_state;
  bool has_async = false;
  std::vector<uint8_t> async_state;
  /// Sim-class telemetry counters at the boundary (telemetry::sim_values()
  /// order; zeros when telemetry was disabled at save time).
  std::vector<uint64_t> telemetry;
};

/// Captures a snapshot of a live run at the boundary `next_round`.
/// `async_state` is null on the synchronous path.
Snapshot snapshot_of(const SimEngine& engine, int next_round,
                     const RunResult& partial, const std::string& strategy_id,
                     const Checkpointable& strategy,
                     const AsyncRunState* async_state,
                     std::map<std::string, std::string> meta);

/// Byte-level codec (header + CRC framing included).
std::vector<uint8_t> encode_snapshot(const Snapshot& snap);
Snapshot decode_snapshot(const uint8_t* data, size_t size);

/// Atomic persistence: writes "<path>.tmp" then renames onto `path`.
void save_checkpoint(const std::string& path, const Snapshot& snap);
Snapshot load_checkpoint(const std::string& path);

/// Canonical file name for a boundary: <dir>/ckpt-<boundary, 8 digits>.gfc
std::string checkpoint_path(const std::string& dir, int boundary);

/// The restored history as a RunResult prefix for run_from()/resume().
RunResult history_result(const Snapshot& snap);

/// Restores a freshly-constructed engine + strategy to the snapshot's
/// boundary: validates shapes/seed/horizon, calls strategy.init(), then
/// replays the strategy / model / sync-tracker state. Follow with
/// engine.run_from(strategy, snap.next_round, history_result(snap)).
void restore_sync_run(const Snapshot& snap, SimEngine& engine,
                      Strategy& strategy);

/// Async variant: additionally decodes the event-loop state. Follow with
/// AsyncSimEngine::resume(strategy, state, history_result(snap)).
AsyncRunState restore_async_run(const Snapshot& snap, SimEngine& engine,
                                AsyncStrategy& strategy);

/// Thrown by CheckpointHook when --crash-at-round fires: simulates the
/// server dying at a round boundary (the CLI maps it to exit code 3).
class SimulatedCrash : public std::runtime_error {
 public:
  SimulatedCrash(int boundary, std::string last_checkpoint);
  int boundary() const { return boundary_; }
  /// Path of the newest checkpoint written before the crash ("" if none).
  const std::string& last_checkpoint() const { return last_checkpoint_; }

 private:
  int boundary_;
  std::string last_checkpoint_;
};

struct CkptOptions {
  /// Save a snapshot every N round boundaries; 0 disables saving.
  int every = 0;
  /// Target directory; must already exist (the CLI validates writability).
  std::string dir;
  /// Simulate a crash once N rounds have completed; 0 disables. The crash
  /// fires AFTER any snapshot due at the same boundary is persisted.
  int crash_at = 0;
};

/// The RoundHook both engines drive: persists a snapshot at every
/// `every`-th boundary (except the final one, which has nothing left to
/// resume) and throws SimulatedCrash at boundary `crash_at`.
class CheckpointHook final : public RoundHook {
 public:
  CheckpointHook(CkptOptions opts, std::map<std::string, std::string> meta,
                 std::string strategy_id, const Checkpointable& strategy);

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override;

  int saves() const { return saves_; }
  const std::string& last_path() const { return last_path_; }

  /// Seeds the "newest checkpoint" a crash report falls back to. A
  /// resumed run sets this to its source snapshot, so a crash before the
  /// first NEW save still points the user at a valid resume target.
  void set_last_checkpoint(std::string path) { last_path_ = std::move(path); }

 private:
  CkptOptions opts_;
  std::map<std::string, std::string> meta_;
  std::string strategy_id_;
  const Checkpointable* strategy_;
  int saves_ = 0;
  std::string last_path_;
};

}  // namespace gluefl::ckpt
