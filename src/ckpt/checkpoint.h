// Versioned, CRC-guarded checkpoint snapshots (DESIGN.md §8).
//
// A snapshot captures everything a round boundary needs to continue a run
// bit-identically after a crash / restart:
//
//   * the global model (trainable params + BatchNorm stats),
//   * the SyncTracker (per-client last-sync rounds + the retained
//     changed-bitmap window, i.e. the staleness economics),
//   * the strategy's Checkpointable state (sticky cohort, shared mask, APF
//     freeze schedule, ...) and its error-feedback residual rows,
//   * the metrics history (every RoundRecord produced so far, so the
//     resumed run's report/JSON equals the uninterrupted run's),
//   * on the async path, the full event-loop state (the in-flight
//     dispatches, the table of model versions they train from, the
//     dispatch RNG, the simulated clock); nothing is trained before its
//     aggregation, so no delta or frame is in flight,
//   * free-form meta key/value pairs — the CLI stores its resolved
//     options plus build provenance here so `gluefl resume <ckpt>` can
//     reconstruct the exact engine and warn on binary mismatch.
//
// On disk a checkpoint is a head file plus its directory's residual
// journal. The head `ckpt-<B>.gfc` holds everything but the residual rows
// (little-endian; Writer/Reader conventions from ckpt/io.h):
//
//   File    := magic u32 ("GFCK") | format u8 (=9) | reserved u8 (=0)
//              | crc32 u32 (of payload) | payload_len u64 | payload
//   payload := meta | core | sync blob | history | strategy | async
//              | telemetry | journal
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
//     journal   := at u64 | crc u32   (offset and CRC of the head's newest
//                  record in <dir>/residuals.gfj; at = kNoJournal and
//                  crc = 0 when the strategy keeps no residuals)
//
// The journal is append-only; each record is one base (every row) or
// delta (the rows stored since the previous commit) of the strategy's
// error-feedback residuals:
//
//   Record  := magic u32 ("GFJR") | kind u8 (1 base, 2 delta)
//              | boundary u32 | [parent u64, delta only] | payload_len u64
//              | payload | crc32 u32 (of every byte before it)
//   payload := compress/error_feedback.h's residual payload
//
// A head reaches its chain through its own offset and the parent links,
// so it depends on the journal only, never on another head.
//
// Versioning rules: `format` bumps on ANY layout change, including a
// change to a component's save_state byte sequence; decoders reject
// unknown magic/version and CRC mismatches loudly (CkptError) rather than
// guess. Saves are atomic: the journal record is appended and flushed
// first, then the head is written to "<path>.tmp" and renamed, so a crash
// mid-save never leaves a half-written head under the final name, and a
// torn journal tail is never referenced.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpointable.h"
#include "ckpt/io.h"
#include "compress/error_feedback.h"
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
/// Format 6: the residual rows left the strategy section for the
/// directory's journal, and the head gained the journal section.
/// Format 7: the telemetry section lost the six per-kernel wire value
/// counters, and the meta no longer carries "agg"/"agg_shards".
/// Format 8: the meta no longer carries "population_mode".
/// Format 9: the async section lost the in-flight payloads, their wire
/// frames and the buffer (empty at every boundary), and gained the table
/// of model versions the in-flight updates train from.
inline constexpr uint8_t kFormatVersion = 9;
inline constexpr size_t kHeaderBytes = 18;

inline constexpr uint32_t kJournalMagic = 0x524A4647;  // "GFJR"
inline constexpr uint8_t kJournalBase = 1;
inline constexpr uint8_t kJournalDelta = 2;
/// Head journal offset of a checkpoint without residual rows.
inline constexpr uint64_t kNoJournal = ~uint64_t{0};

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
  /// The head's journal section, as decoded (encode_snapshot writes it
  /// as is; the savers write where they appended).
  uint64_t journal_at = kNoJournal;
  uint32_t journal_crc = 0;
  /// The strategy's residual rows, when it keeps them: filled by
  /// snapshot_of and load_checkpoint, never part of the head bytes.
  std::optional<ResidualRows> residuals;
};

/// Captures a snapshot of a live run at the boundary `next_round`, its
/// residual rows included (their buffers are shared with the live store,
/// which copies a shared row before overwriting it). `async_state` is
/// null on the synchronous path.
Snapshot snapshot_of(const SimEngine& engine, int next_round,
                     const RunResult& partial, const std::string& strategy_id,
                     const Checkpointable& strategy,
                     const AsyncRunState* async_state,
                     std::map<std::string, std::string> meta);

/// Head codec (header + CRC framing included); residual rows are not
/// part of it.
std::vector<uint8_t> encode_snapshot(const Snapshot& snap);
Snapshot decode_snapshot(const uint8_t* data, size_t size);

/// Atomic persistence: appends the snapshot's residual rows, if any, as a
/// base record to the journal beside `path`, then writes "<path>.tmp" and
/// renames it onto `path`.
void save_checkpoint(const std::string& path, const Snapshot& snap);
/// Reads the head at `path` and, if it has one, its residual chain from
/// the journal beside it.
Snapshot load_checkpoint(const std::string& path);

/// Canonical file name for a boundary: <dir>/ckpt-<boundary, 8 digits>.gfc
std::string checkpoint_path(const std::string& dir, int boundary);
/// The directory's residual journal: <dir>/residuals.gfj
std::string journal_path(const std::string& dir);

/// Where a journal record landed: its offset, its CRC and its size.
struct JournalRecord {
  uint64_t at = kNoJournal;
  uint32_t crc = 0;
  uint64_t bytes = 0;
};

/// Exact size of the record append_residuals writes for these rows.
uint64_t residual_record_bytes(const ResidualRows& rows, bool base,
                               uint64_t since);
/// Appends one record to the journal in `dir` and flushes it: a base of
/// every row, or a delta of the rows stamped after `since` whose parent is
/// the record at `parent`.
JournalRecord append_residuals(const std::string& dir, bool base,
                               int boundary, uint64_t parent,
                               const ResidualRows& rows, uint64_t since);
/// Reads the chain whose newest record sits at `at` in the journal in
/// `dir`, newest first: each live row is copied once and the newest wins.
/// The newest record must carry `crc` and `boundary`; every record's CRC,
/// kind, parent link and boundary order are checked (CkptError).
ResidualRows load_residuals(const std::string& dir, uint64_t at,
                            uint32_t crc, int boundary);

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
///
/// Residual rows go to the journal: the hook's first commit writes a
/// base, and each later one a delta of the rows stored since the previous
/// commit, unless the deltas written since the last base plus this one
/// would exceed a base's bytes; then it writes a base again. Replaying a
/// chain therefore reads at most twice the live rows.
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
  /// Appends this boundary's base or delta record of `ef`'s rows.
  JournalRecord commit_residuals(int boundary, const ErrorFeedback& ef);

  CkptOptions opts_;
  std::map<std::string, std::string> meta_;
  std::string strategy_id_;
  const Checkpointable* strategy_;
  int saves_ = 0;
  std::string last_path_;
  // Journal cursor: this hook's newest record, the commit stamp it
  // covered, and the delta bytes written since its last base.
  uint64_t journal_tip_ = kNoJournal;
  uint64_t journal_stamp_ = 0;
  uint64_t delta_bytes_ = 0;
};

}  // namespace gluefl::ckpt
