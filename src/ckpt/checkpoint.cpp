#include "ckpt/checkpoint.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "fl/strategy.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"

namespace gluefl::ckpt {

namespace {

constexpr uint64_t kRoundCap = kIntCap;

[[noreturn]] void fail(const std::string& msg) { throw CkptError(msg); }

void check_engine_match(const Snapshot& snap, const SimEngine& eng) {
  if (snap.dim != eng.dim() || snap.stat_dim != eng.stat_dim()) {
    fail("checkpoint model shape (dim " + std::to_string(snap.dim) +
         ", stats " + std::to_string(snap.stat_dim) +
         ") does not match the engine (dim " + std::to_string(eng.dim()) +
         ", stats " + std::to_string(eng.stat_dim()) + ")");
  }
  if (snap.num_clients != eng.num_clients()) {
    fail("checkpoint population (" + std::to_string(snap.num_clients) +
         " clients) does not match the engine (" +
         std::to_string(eng.num_clients()) + ")");
  }
  if (snap.seed != eng.run_config().seed) {
    fail("checkpoint seed " + std::to_string(snap.seed) +
         " does not match the engine seed " +
         std::to_string(eng.run_config().seed));
  }
  if (snap.rounds != eng.run_config().rounds) {
    fail("checkpoint horizon (" + std::to_string(snap.rounds) +
         " rounds) does not match the engine (" +
         std::to_string(eng.run_config().rounds) + ")");
  }
  if (snap.next_round < 0 || snap.next_round > snap.rounds ||
      static_cast<int>(snap.history.size()) != snap.next_round) {
    fail("checkpoint round counter is inconsistent with its history");
  }
}

void restore_engine_state(const Snapshot& snap, SimEngine& eng) {
  if (snap.params.size() != eng.dim() || snap.stats.size() != eng.stat_dim()) {
    fail("checkpoint tensors have the wrong dimension");
  }
  eng.params() = snap.params;
  eng.stats() = snap.stats;
  Reader sr(snap.sync_state.data(), snap.sync_state.size());
  eng.sync().restore_state(sr);
  sr.expect_end("sync-tracker");
}

/// The part restore_sync_run and restore_async_run share: validate, init()
/// the strategy as a fresh run would, then replay its state, its residual
/// rows and the engine's.
template <typename S>
void restore_strategy_and_engine(const Snapshot& snap, SimEngine& engine,
                                 S& strategy) {
  check_engine_match(snap, engine);
  if (strategy.name() != snap.strategy_id) {
    fail("checkpoint was written by strategy '" + snap.strategy_id +
         "', not '" + strategy.name() + "'");
  }
  // init() allocates the strategy's structures (sampler, residual store,
  // masks) exactly as a fresh run would; restore_state then replays the
  // checkpointed contents over them.
  engine.reset_state();
  strategy.init(engine);
  Reader r(snap.strategy_state.data(), snap.strategy_state.size());
  strategy.restore_state(r);
  r.expect_end("strategy");
  if (strategy.residuals() != nullptr) {
    if (!snap.residuals) {
      fail("checkpoint has no residual rows for strategy '" +
           snap.strategy_id + "'");
    }
    strategy.restore_residuals(*snap.residuals);
  } else if (snap.residuals) {
    fail("checkpoint has residual rows, which strategy '" +
         snap.strategy_id + "' does not keep");
  }
  restore_engine_state(snap, engine);
}

/// The head part of a snapshot: everything but the residual rows.
Snapshot head_of(const SimEngine& engine, int next_round,
                 const RunResult& partial, const std::string& strategy_id,
                 const Checkpointable& strategy,
                 const AsyncRunState* async_state,
                 std::map<std::string, std::string> meta) {
  GLUEFL_CHECK_MSG(static_cast<int>(partial.rounds.size()) == next_round,
                   "snapshot boundary must match the record history");
  Snapshot snap;
  snap.meta = std::move(meta);
  snap.seed = engine.run_config().seed;
  snap.dim = engine.dim();
  snap.stat_dim = engine.stat_dim();
  snap.num_clients = engine.num_clients();
  snap.rounds = engine.run_config().rounds;
  snap.next_round = next_round;
  snap.params = engine.params();
  snap.stats = engine.stats();
  {
    Writer sw;
    engine.sync().save_state(sw);
    snap.sync_state = sw.take();
  }
  snap.history = partial.rounds;
  snap.strategy_id = strategy_id;
  {
    Writer sw;
    strategy.save_state(sw);
    snap.strategy_state = sw.take();
  }
  if (async_state != nullptr) {
    snap.has_async = true;
    Writer aw;
    async_state->save_state(aw);
    snap.async_state = aw.take();
  }
  // Sim-class counters at the boundary: restoring them on resume is what
  // keeps the resumed run's "telemetry" JSON block byte-identical to the
  // uninterrupted run's (zeros when telemetry is disabled, e.g. library
  // users snapshotting outside the CLI).
  snap.telemetry = telemetry::sim_values();
  return snap;
}

/// Writes a head atomically: "<path>.tmp", then rename onto `path`.
void write_head(const std::string& path, const Snapshot& snap) {
  const std::vector<uint8_t> bytes = encode_snapshot(snap);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) fail("cannot open checkpoint file '" + tmp + "' for writing");
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f.good()) {
      f.close();
      std::remove(tmp.c_str());
      fail("failed writing checkpoint file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename checkpoint '" + tmp + "' onto '" + path + "'");
  }
  telemetry::count(telemetry::kCkptWrittenBytes, bytes.size());
}

uint64_t ms_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

std::string dir_of(const std::string& path) {
  return std::filesystem::path(path).parent_path().string();
}

}  // namespace

void write_record(Writer& w, const RoundRecord& rec) {
  w.varint(static_cast<uint64_t>(rec.round));
  w.f64(rec.down_bytes);
  w.f64(rec.up_bytes);
  w.f64(rec.down_time_s);
  w.f64(rec.up_time_s);
  w.f64(rec.compute_time_s);
  w.f64(rec.wall_time_s);
  w.f64(rec.train_loss);
  w.f64(rec.test_acc);
  w.varint(static_cast<uint64_t>(rec.num_invited));
  w.varint(static_cast<uint64_t>(rec.num_included));
  w.f64(rec.mean_staleness);
  w.f64(rec.changed_frac);
  w.f64(rec.mask_overlap);
}

RoundRecord read_record(Reader& r) {
  RoundRecord rec;
  rec.round = static_cast<int>(r.varint_max(kRoundCap, "round"));
  rec.down_bytes = r.f64();
  rec.up_bytes = r.f64();
  rec.down_time_s = r.f64();
  rec.up_time_s = r.f64();
  rec.compute_time_s = r.f64();
  rec.wall_time_s = r.f64();
  rec.train_loss = r.f64();
  rec.test_acc = r.f64();
  rec.num_invited =
      static_cast<int>(r.varint_max(kRoundCap, "invitee count"));
  rec.num_included =
      static_cast<int>(r.varint_max(kRoundCap, "participant count"));
  rec.mean_staleness = r.f64();
  rec.changed_frac = r.f64();
  rec.mask_overlap = r.f64();
  return rec;
}

Snapshot snapshot_of(const SimEngine& engine, int next_round,
                     const RunResult& partial, const std::string& strategy_id,
                     const Checkpointable& strategy,
                     const AsyncRunState* async_state,
                     std::map<std::string, std::string> meta) {
  Snapshot snap = head_of(engine, next_round, partial, strategy_id, strategy,
                          async_state, std::move(meta));
  if (const ErrorFeedback* ef = strategy.residuals()) snap.residuals = ef->rows();
  return snap;
}

std::vector<uint8_t> encode_snapshot(const Snapshot& snap) {
  // Header and payload share ONE buffer: the crc/payload_len fields are
  // written as placeholders and patched once the payload bytes exist, so
  // a 32 MB OpenImage snapshot is never copied wholesale just to prepend
  // 18 bytes (this runs on the round-boundary hot path). The buffer is
  // reserved up front from the fields' sizes, with every varint counted
  // at its 10-byte maximum, so appending never regrows it.
  constexpr size_t kVarintMax = 10;
  constexpr size_t kRecordMax = 11 * 8 + 3 * kVarintMax;
  size_t bound = kHeaderBytes + kVarintMax;
  for (const auto& [key, value] : snap.meta) {
    bound += 2 * kVarintMax + key.size() + value.size();
  }
  bound += 8 + 7 * kVarintMax + 4 * (snap.params.size() + snap.stats.size());
  bound += kVarintMax + snap.sync_state.size();
  bound += kVarintMax + kRecordMax * snap.history.size();
  bound += 2 * kVarintMax + snap.strategy_id.size() +
           snap.strategy_state.size();
  bound += 1 + kVarintMax + snap.async_state.size();
  bound += kVarintMax + 8 * static_cast<size_t>(telemetry::kNumSimValues);
  bound += 8 + 4;
  Writer w;
  w.reserve(bound);
  w.u32(kMagic);
  w.u8(kFormatVersion);
  w.u8(0);   // reserved
  w.u32(0);  // crc32, patched below
  w.u64(0);  // payload_len, patched below
  w.varint(snap.meta.size());
  for (const auto& [key, value] : snap.meta) {
    w.str(key);
    w.str(value);
  }
  w.u64(snap.seed);
  w.varint(snap.dim);
  w.varint(snap.stat_dim);
  w.varint(static_cast<uint64_t>(snap.num_clients));
  w.varint(static_cast<uint64_t>(snap.rounds));
  w.varint(static_cast<uint64_t>(snap.next_round));
  w.f32s(snap.params.data(), snap.params.size());
  w.f32s(snap.stats.data(), snap.stats.size());
  w.blob(snap.sync_state);
  w.varint(snap.history.size());
  for (const RoundRecord& rec : snap.history) write_record(w, rec);
  w.str(snap.strategy_id);
  w.blob(snap.strategy_state);
  w.u8(snap.has_async ? 1 : 0);
  if (snap.has_async) w.blob(snap.async_state);
  // Telemetry section: always exactly kNumSimValues entries so hand-built
  // Snapshots (tests) with an empty vector still encode a valid v3 frame.
  w.varint(static_cast<uint64_t>(telemetry::kNumSimValues));
  for (int i = 0; i < telemetry::kNumSimValues; ++i) {
    const size_t idx = static_cast<size_t>(i);
    w.u64(idx < snap.telemetry.size() ? snap.telemetry[idx] : 0);
  }
  w.u64(snap.journal_at);
  w.u32(snap.journal_crc);

  std::vector<uint8_t> out = w.take();
  const uint64_t payload_len = out.size() - kHeaderBytes;
  const uint32_t crc = crc32(out.data() + kHeaderBytes, payload_len);
  for (int i = 0; i < 4; ++i) {
    out[6 + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    out[10 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(payload_len >> (8 * i));
  }
  return out;
}

Snapshot decode_snapshot(const uint8_t* data, size_t size) {
  if (size < kHeaderBytes) fail("checkpoint is truncated (no header)");
  Reader h(data, kHeaderBytes);
  if (h.u32() != kMagic) fail("not a gluefl checkpoint (bad magic)");
  const uint8_t version = h.u8();
  h.u8();  // reserved
  if (version != kFormatVersion) {
    fail("unsupported checkpoint format version " + std::to_string(version) +
         " (this binary reads version " + std::to_string(kFormatVersion) +
         ")");
  }
  const uint32_t crc = h.u32();
  const uint64_t payload_len = h.u64();
  if (payload_len != size - kHeaderBytes) {
    fail("checkpoint is truncated (header promises " +
         std::to_string(payload_len) + " payload bytes, file has " +
         std::to_string(size - kHeaderBytes) + ")");
  }
  const uint8_t* payload = data + kHeaderBytes;
  if (crc32(payload, payload_len) != crc) {
    fail("corrupt checkpoint (CRC mismatch)");
  }

  Reader r(payload, payload_len);
  Snapshot snap;
  const uint64_t npairs = r.varint_max(4096, "meta pair count");
  for (uint64_t i = 0; i < npairs; ++i) {
    std::string key = r.str();
    snap.meta[std::move(key)] = r.str();
  }
  snap.seed = r.u64();
  snap.dim = static_cast<size_t>(r.varint());
  snap.stat_dim = static_cast<size_t>(r.varint());
  snap.num_clients =
      static_cast<int>(r.varint_max(kRoundCap, "client count"));
  snap.rounds = static_cast<int>(r.varint_max(kRoundCap, "round count"));
  snap.next_round = static_cast<int>(r.varint_max(kRoundCap, "round"));
  snap.params = r.f32s();
  snap.stats = r.f32s();
  snap.sync_state = r.blob();
  // A serialized record is at least 91 bytes (11 f64 bit patterns + 3
  // varints), so capping the count by the bytes physically left keeps a
  // hostile CRC-resealed length from sizing a giant reserve.
  const uint64_t nrec = r.varint_max(r.remaining() / 91, "history length");
  snap.history.reserve(nrec);
  for (uint64_t i = 0; i < nrec; ++i) snap.history.push_back(read_record(r));
  snap.strategy_id = r.str();
  snap.strategy_state = r.blob();
  snap.has_async = r.u8() != 0;
  if (snap.has_async) snap.async_state = r.blob();
  const uint64_t ntel = r.varint_max(4096, "telemetry counter count");
  if (ntel != static_cast<uint64_t>(telemetry::kNumSimValues)) {
    fail("checkpoint telemetry section has " + std::to_string(ntel) +
         " counters (this binary expects " +
         std::to_string(telemetry::kNumSimValues) + ")");
  }
  snap.telemetry.resize(static_cast<size_t>(ntel));
  for (uint64_t i = 0; i < ntel; ++i) {
    snap.telemetry[static_cast<size_t>(i)] = r.u64();
  }
  snap.journal_at = r.u64();
  snap.journal_crc = r.u32();
  if (snap.journal_at == kNoJournal && snap.journal_crc != 0) {
    fail("checkpoint journal section is inconsistent");
  }
  r.expect_end("checkpoint");
  return snap;
}

void save_checkpoint(const std::string& path, const Snapshot& snap) {
  telemetry::Span span("ckpt.save");
  const auto t0 = std::chrono::steady_clock::now();
  Snapshot head = snap;  // shares the residual buffers
  head.journal_at = kNoJournal;
  head.journal_crc = 0;
  if (snap.residuals) {
    const JournalRecord rec =
        append_residuals(dir_of(path), /*base=*/true, snap.next_round,
                         kNoJournal, *snap.residuals, 0);
    head.journal_at = rec.at;
    head.journal_crc = rec.crc;
  }
  write_head(path, head);
  telemetry::count(telemetry::kCkptSaves);
  telemetry::count(telemetry::kCkptSaveMs, ms_since(t0));
}

Snapshot load_checkpoint(const std::string& path) {
  telemetry::Span span("ckpt.load");
  const auto t0 = std::chrono::steady_clock::now();
  telemetry::count(telemetry::kCkptLoads);
  const uint64_t size = regular_file_size(path, "checkpoint");
  std::ifstream f(path, std::ios::binary);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (!f || f.gcount() != static_cast<std::streamsize>(bytes.size())) {
    fail("checkpoint '" + path + "' cannot be read");
  }
  Snapshot snap = decode_snapshot(bytes.data(), bytes.size());
  if (snap.journal_at != kNoJournal) {
    snap.residuals = load_residuals(dir_of(path), snap.journal_at,
                                    snap.journal_crc, snap.next_round);
  }
  telemetry::count(telemetry::kCkptLoadMs, ms_since(t0));
  return snap;
}

std::string checkpoint_path(const std::string& dir, int boundary) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08d.gfc", boundary);
  if (dir.empty()) return name;
  const char sep = dir.back() == '/' ? '\0' : '/';
  return sep == '\0' ? dir + name : dir + sep + name;
}

std::string journal_path(const std::string& dir) {
  constexpr const char* kName = "residuals.gfj";
  if (dir.empty()) return kName;
  return dir.back() == '/' ? dir + kName : dir + '/' + kName;
}

uint64_t residual_record_bytes(const ResidualRows& rows, bool base,
                               uint64_t since) {
  // magic, kind, boundary, [parent], payload_len ... crc
  const uint64_t framing = 4 + 1 + 4 + (base ? 0 : 8) + 8 + 4;
  return framing + residual_payload_bytes(rows, base, since);
}

JournalRecord append_residuals(const std::string& dir, bool base,
                               int boundary, uint64_t parent,
                               const ResidualRows& rows, uint64_t since) {
  const std::string path = journal_path(dir);
  std::error_code ec;
  const uint64_t at = std::filesystem::exists(path, ec)
                          ? regular_file_size(path, "checkpoint journal")
                          : 0;
  std::ofstream f(path, std::ios::binary | std::ios::app);
  if (!f) fail("cannot open checkpoint journal '" + path + "' for appending");
  CrcOut out(f);
  Writer w;
  w.u32(kJournalMagic);
  w.u8(base ? kJournalBase : kJournalDelta);
  w.u32(static_cast<uint32_t>(boundary));
  if (!base) w.u64(parent);
  w.u64(residual_payload_bytes(rows, base, since));
  out.put(w);
  write_residual_payload(rows, base, since, out);
  JournalRecord rec;
  rec.at = at;
  rec.crc = out.crc();
  w.u32(rec.crc);
  out.put(w);
  rec.bytes = out.count();
  f.flush();
  if (!f.good()) fail("failed appending to checkpoint journal '" + path + "'");
  telemetry::count(telemetry::kCkptWrittenBytes, rec.bytes);
  return rec;
}

ResidualRows load_residuals(const std::string& dir, uint64_t at,
                            uint32_t crc, int boundary) {
  const std::string path = journal_path(dir);
  const uint64_t size = regular_file_size(path, "checkpoint journal");
  std::ifstream f(path, std::ios::binary);
  if (!f) fail("checkpoint journal '" + path + "' cannot be read");
  ResidualRows rows;
  uint64_t next = at;
  int64_t newer = -1;  // boundary of the record read before this one
  for (;;) {
    const std::string where = "checkpoint journal '" + path +
                              "' record at offset " + std::to_string(next);
    try {
      if (next >= size) fail("is past the end of the journal");
      f.seekg(static_cast<std::streamoff>(next));
      CrcIn in(f, size - next);
      if (in.u32() != kJournalMagic) fail("has a bad magic");
      const uint8_t kind = in.u8();
      if (kind != kJournalBase && kind != kJournalDelta) {
        fail("has unknown kind " + std::to_string(kind));
      }
      const int64_t b = in.u32();
      if (newer < 0 && b != boundary) {
        fail("is for boundary " + std::to_string(b) + ", not the head's " +
             std::to_string(boundary));
      }
      if (newer >= 0 && b >= newer) {
        fail("does not precede boundary " + std::to_string(newer));
      }
      const uint64_t parent = kind == kJournalDelta ? in.u64() : 0;
      if (kind == kJournalDelta && parent >= next) {
        fail("has a parent link that does not point backward");
      }
      const uint64_t len = in.u64();
      if (len > in.remaining() || in.remaining() - len < 4) {
        fail("is truncated");
      }
      in.limit(len);
      read_residual_payload(in, rows);
      if (in.remaining() != 0) fail("has trailing payload bytes");
      const uint32_t sum = in.crc();
      CrcIn tail(f, 4);
      const uint32_t stored = tail.u32();
      if (stored != sum) fail("is corrupt (CRC mismatch)");
      if (newer < 0 && stored != crc) fail("does not match the head's CRC");
      if (kind == kJournalBase) return rows;
      newer = b;
      next = parent;
    } catch (const CkptError& e) {
      throw CkptError(where + ": " + e.what());
    }
  }
}

RunResult history_result(const Snapshot& snap) {
  RunResult result;
  result.strategy = snap.strategy_id;
  result.rounds = snap.history;
  return result;
}

void restore_sync_run(const Snapshot& snap, SimEngine& engine,
                      Strategy& strategy) {
  if (snap.has_async) {
    fail("checkpoint was taken from an async run; resume it with "
         "restore_async_run");
  }
  restore_strategy_and_engine(snap, engine, strategy);
}

AsyncRunState restore_async_run(const Snapshot& snap, SimEngine& engine,
                                AsyncStrategy& strategy) {
  if (!snap.has_async) {
    fail("checkpoint was taken from a synchronous run; resume it with "
         "restore_sync_run");
  }
  restore_strategy_and_engine(snap, engine, strategy);
  AsyncRunState state;
  Reader ar(snap.async_state.data(), snap.async_state.size());
  state.restore_state(ar, engine.num_clients(), engine.dim(),
                      engine.stat_dim());
  ar.expect_end("async-state");
  if (state.version != snap.next_round) {
    fail("checkpoint async version does not match its round boundary");
  }
  return state;
}

SimulatedCrash::SimulatedCrash(int boundary, std::string last_checkpoint)
    : std::runtime_error("simulated crash after round boundary " +
                         std::to_string(boundary)),
      boundary_(boundary),
      last_checkpoint_(std::move(last_checkpoint)) {}

CheckpointHook::CheckpointHook(CkptOptions opts,
                               std::map<std::string, std::string> meta,
                               std::string strategy_id,
                               const Checkpointable& strategy)
    : opts_(std::move(opts)),
      meta_(std::move(meta)),
      strategy_id_(std::move(strategy_id)),
      strategy_(&strategy) {
  GLUEFL_CHECK_MSG(opts_.every >= 0 && opts_.crash_at >= 0,
                   "checkpoint cadence / crash round must be non-negative");
  GLUEFL_CHECK_MSG(opts_.every == 0 || !opts_.dir.empty(),
                   "checkpointing needs a target directory");
}

void CheckpointHook::on_round_end(SimEngine& engine, int round,
                                  const RunResult& partial,
                                  const AsyncRunState* async_state) {
  const int boundary = round + 1;  // rounds [0, boundary) are complete
  const int horizon = engine.run_config().rounds;
  if (opts_.every > 0 && boundary % opts_.every == 0 && boundary < horizon) {
    Snapshot head = head_of(engine, boundary, partial, strategy_id_,
                            *strategy_, async_state, meta_);
    const std::string path = checkpoint_path(opts_.dir, boundary);
    {
      telemetry::Span span("ckpt.save");
      const auto t0 = std::chrono::steady_clock::now();
      if (const ErrorFeedback* ef = strategy_->residuals()) {
        const JournalRecord rec = commit_residuals(boundary, *ef);
        head.journal_at = rec.at;
        head.journal_crc = rec.crc;
      }
      write_head(path, head);
      telemetry::count(telemetry::kCkptSaves);
      telemetry::count(telemetry::kCkptSaveMs, ms_since(t0));
    }
    // The flight-recorder log must never run ahead of the newest
    // checkpoint: commit its buffered rounds only once the snapshot they
    // belong with is safely on disk (events.h, "checkpoint-consistent").
    events::checkpoint_commit();
    last_path_ = path;
    ++saves_;
  }
  if (opts_.crash_at > 0 && boundary == opts_.crash_at) {
    throw SimulatedCrash(boundary, last_path_);
  }
}

JournalRecord CheckpointHook::commit_residuals(int boundary,
                                               const ErrorFeedback& ef) {
  const ResidualRows& rows = ef.rows();
  const uint64_t delta = residual_record_bytes(rows, false, journal_stamp_);
  const bool base = journal_tip_ == kNoJournal ||
                    delta_bytes_ + delta > residual_record_bytes(rows, true, 0);
  const JournalRecord rec = append_residuals(opts_.dir, base, boundary,
                                             journal_tip_, rows,
                                             journal_stamp_);
  delta_bytes_ = base ? 0 : delta_bytes_ + rec.bytes;
  journal_tip_ = rec.at;
  journal_stamp_ = ef.stamp();
  return rec;
}

}  // namespace gluefl::ckpt
