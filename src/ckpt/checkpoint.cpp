#include "ckpt/checkpoint.h"

#include <chrono>
#include <cstdio>
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
  r.expect_end("checkpoint");
  return snap;
}

void save_checkpoint(const std::string& path, const Snapshot& snap) {
  telemetry::Span span("ckpt.save");
  const auto t0 = std::chrono::steady_clock::now();
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
  telemetry::count(telemetry::kCkptSaves);
  telemetry::count(
      telemetry::kCkptSaveMs,
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count()));
}

Snapshot load_checkpoint(const std::string& path) {
  telemetry::Span span("ckpt.load");
  const auto t0 = std::chrono::steady_clock::now();
  telemetry::count(telemetry::kCkptLoads);
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) fail("cannot open checkpoint '" + path + "'");
  const std::streamoff size = f.tellg();
  if (size < 0) fail("cannot read checkpoint '" + path + "'");
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(bytes.data()),
         static_cast<std::streamsize>(bytes.size()));
  if (!f.good() || f.gcount() != static_cast<std::streamsize>(bytes.size())) {
    fail("cannot read checkpoint '" + path + "'");
  }
  Snapshot snap = decode_snapshot(bytes.data(), bytes.size());
  telemetry::count(
      telemetry::kCkptLoadMs,
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count()));
  return snap;
}

std::string checkpoint_path(const std::string& dir, int boundary) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08d.gfc", boundary);
  if (dir.empty()) return name;
  const char sep = dir.back() == '/' ? '\0' : '/';
  return sep == '\0' ? dir + name : dir + sep + name;
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
  restore_engine_state(snap, engine);
}

AsyncRunState restore_async_run(const Snapshot& snap, SimEngine& engine,
                                AsyncStrategy& strategy) {
  if (!snap.has_async) {
    fail("checkpoint was taken from a synchronous run; resume it with "
         "restore_sync_run");
  }
  check_engine_match(snap, engine);
  if (strategy.name() != snap.strategy_id) {
    fail("checkpoint was written by strategy '" + snap.strategy_id +
         "', not '" + strategy.name() + "'");
  }
  engine.reset_state();
  strategy.init(engine);
  Reader r(snap.strategy_state.data(), snap.strategy_state.size());
  strategy.restore_state(r);
  r.expect_end("strategy");
  restore_engine_state(snap, engine);
  AsyncRunState state;
  Reader ar(snap.async_state.data(), snap.async_state.size());
  state.restore_state(ar, engine.num_clients());
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
    const Snapshot snap = snapshot_of(engine, boundary, partial, strategy_id_,
                                      *strategy_, async_state, meta_);
    const std::string path = checkpoint_path(opts_.dir, boundary);
    save_checkpoint(path, snap);
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

}  // namespace gluefl::ckpt
