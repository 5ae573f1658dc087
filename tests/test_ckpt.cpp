// Checkpoint subsystem: io primitives, snapshot codec framing (CRC /
// version / truncation rejection), atomic persistence, and the central
// deterministic-resume contract — for every strategy x execution mode x
// aggregation backend x topology, run-to-boundary-then-resume must be
// bit-identical to the uninterrupted run (params, stats and every
// per-round byte/time metric), across seeds and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "cli/cli.h"
#include "compress/error_feedback.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "fl/sync_tracker.h"
#include "net/environment.h"
#include "strategies/apf.h"
#include "strategies/async_fedbuff.h"
#include "strategies/fedavg.h"
#include "strategies/gluefl.h"
#include "strategies/stc.h"
#include "test_util.h"

namespace gluefl {
namespace {

namespace fs = std::filesystem;
using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

/// A directory that exists for one test (or one loop pass of it).
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

std::vector<uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- io

TEST(CkptIo, ScalarAndVarintRoundTrip) {
  ckpt::Writer w;
  w.u8(7);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(UINT64_MAX);
  w.str("gluefl");
  w.f32(-0.0f);
  w.f64(std::numeric_limits<double>::quiet_NaN());

  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), UINT64_MAX);
  EXPECT_EQ(r.str(), "gluefl");
  const float nz = r.f32();
  EXPECT_TRUE(std::signbit(nz) && nz == 0.0f);
  EXPECT_TRUE(std::isnan(r.f64()));
  r.expect_end("test");
}

TEST(CkptIo, TruncatedReadsThrow) {
  ckpt::Writer w;
  w.u32(42);
  ckpt::Reader r(w.buffer().data(), 2);
  EXPECT_THROW(r.u32(), ckpt::CkptError);
}

TEST(CkptIo, HostileLengthFailsBeforeAllocation) {
  // A varint length far beyond the remaining bytes must throw CkptError,
  // not attempt the allocation it describes.
  ckpt::Writer w;
  w.varint(uint64_t{1} << 60);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(r.f32s(), ckpt::CkptError);
}

ckpt::Snapshot tiny_snapshot();

// The CRC register after one more byte, by the bytewise definition of
// CRC-32 over the reflected polynomial 0xEDB88320.
uint32_t crc_step(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int k = 0; k < 8; ++k) {
    reg = (reg & 1) ? 0xEDB88320u ^ (reg >> 1) : reg >> 1;
  }
  return reg;
}

uint32_t crc32_bytewise(const uint8_t* p, size_t n) {
  uint32_t reg = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) reg = crc_step(reg, p[i]);
  return reg ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> random_bytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  Rng rng(seed);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.next_u64());
  return out;
}

TEST(CkptIo, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const auto* s = reinterpret_cast<const uint8_t*>("123456789");
  EXPECT_EQ(ckpt::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::detail::crc32_portable(s, 9), 0xCBF43926u);

  // On a CPU with PCLMULQDQ, crc32 folds the whole 16-byte blocks of an
  // input of 64 bytes or more and hands the rest to slicing-by-8, the
  // portable tier. Both must give the bytewise loop's value at every
  // length through the fold's main loop, its 16-byte steps and every
  // tail, at every start offset mod 16.
  const std::vector<uint8_t> buf = random_bytes(16 + 1100, 86);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* p = buf.data() + offset;
    uint32_t reg = 0xFFFFFFFFu;  // the bytewise register of p[0, len)
    for (size_t len = 0; len <= 1100; ++len) {
      if (len > 0) reg = crc_step(reg, p[len - 1]);
      const uint32_t want = reg ^ 0xFFFFFFFFu;
      ASSERT_EQ(ckpt::crc32(p, len), want)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(ckpt::detail::crc32_portable(p, len), want)
          << "offset " << offset << " length " << len;
    }
  }

  // One input far longer than a journal row: 1 MiB and 13 bytes.
  const std::vector<uint8_t> big = random_bytes((size_t{1} << 20) + 13, 87);
  const uint32_t want = crc32_bytewise(big.data(), big.size());
  EXPECT_EQ(ckpt::crc32(big.data(), big.size()), want);
  EXPECT_EQ(ckpt::detail::crc32_portable(big.data(), big.size()), want);

  // A whole encoded snapshot, pinned to the bytes format 9 writes: its
  // size, the payload CRC in the header and the file's CRC (the one value
  // that moved with the format byte, which the payload CRC does not
  // cover).
  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  ASSERT_EQ(bytes.size(), 1016u);
  uint32_t header_crc = 0;
  for (int i = 0; i < 4; ++i) {
    header_crc |= static_cast<uint32_t>(bytes[6 + static_cast<size_t>(i)])
                  << (8 * i);
  }
  EXPECT_EQ(header_crc, 0xFF6F1E88u);
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0xD8171075u);
}

TEST(CkptIo, Crc32ContinuesAcrossSplits) {
  // The journal checksums a record piecewise as it streams, row-sized
  // pieces at arbitrary offsets; continuing the CRC at any split point
  // must give the one-shot value, whichever tier takes each piece.
  const std::vector<uint8_t> buf = random_bytes(4099, 17);
  const uint32_t whole = crc32_bytewise(buf.data(), buf.size());
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const uint8_t* rest = buf.data() + cut;
    const size_t n = buf.size() - cut;
    ASSERT_EQ(ckpt::crc32(rest, n, ckpt::crc32(buf.data(), cut)), whole)
        << "split at " << cut;
    ASSERT_EQ(ckpt::detail::crc32_portable(
                  rest, n, ckpt::detail::crc32_portable(buf.data(), cut)),
              whole)
        << "split at " << cut;
  }
}

// ------------------------------------------------------ component state

TEST(CkptState, RngStateRoundTripContinuesIdentically) {
  Rng a(123);
  (void)a.normal();  // populate the cached Box-Muller half
  Rng b(0);
  b.set_state(a.state());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
    EXPECT_EQ(a.normal(), b.normal());
  }
}

TEST(CkptState, SyncTrackerRoundTrip) {
  SyncTracker t(5, 32);
  BitMask m(32);
  m.set(3);
  m.set(17);
  t.record_round_changes(0, m);
  m.set(20);
  t.record_round_changes(1, m);
  t.mark_synced(0, 1);
  t.mark_synced(3, 0);

  ckpt::Writer w;
  t.save_state(w);
  SyncTracker u(5, 32);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  u.restore_state(r);
  r.expect_end("sync");
  for (int c = 0; c < 5; ++c) {
    EXPECT_EQ(u.last_synced_round(c), t.last_synced_round(c));
    EXPECT_EQ(u.stale_positions(c, 2), t.stale_positions(c, 2));
    EXPECT_TRUE(u.stale_mask(c, 2) == t.stale_mask(c, 2));
  }
  // The restored tracker keeps recording consecutively.
  u.record_round_changes(2, m);
}

TEST(CkptState, SyncTrackerRejectsShapeMismatch) {
  SyncTracker t(5, 32);
  ckpt::Writer w;
  t.save_state(w);
  SyncTracker u(6, 32);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(u.restore_state(r), ckpt::CkptError);
}

TEST(CkptState, ErrorFeedbackRoundTrip) {
  // Residual rows have one byte form, the journal record: they round-trip
  // through a base record in a scratch directory.
  ScratchDir dir("ckpt_test_ef_roundtrip");
  ErrorFeedback ef(ErrorFeedback::Mode::kRescaled, 4);
  const float h1[4] = {1.0f, -2.0f, 0.5f, 0.0f};
  const float h2[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  ef.store(9, 0.7, h1);
  ef.store(2, 1.3, h2);

  const ckpt::JournalRecord rec = ckpt::append_residuals(
      dir.str(), /*base=*/true, 1, ckpt::kNoJournal, ef.rows(), 0);
  EXPECT_EQ(rec.at, 0u);
  EXPECT_EQ(rec.bytes, ckpt::residual_record_bytes(ef.rows(), true, 0));
  EXPECT_EQ(fs::file_size(ckpt::journal_path(dir.str())), rec.bytes);
  ErrorFeedback ef2(ErrorFeedback::Mode::kRescaled, 4);
  ef2.restore_rows(ckpt::load_residuals(dir.str(), rec.at, rec.crc, 1));

  EXPECT_EQ(ef2.num_tracked_clients(), 2u);
  for (const int c : {9, 2}) {
    std::vector<float> d1(4, 0.0f), d2(4, 0.0f);
    ef.apply(c, 0.7, d1.data());
    ef2.apply(c, 0.7, d2.data());
    EXPECT_EQ(d1, d2) << "client " << c;
  }
  // A restored row carries no commit stamp: only later stores are new.
  EXPECT_EQ(ef2.stamp(), 0u);
  EXPECT_EQ(ckpt::residual_record_bytes(ef2.rows(), false, ef2.stamp()),
            ckpt::residual_record_bytes(ResidualRows{4, {}}, false, 0));
}

/// A journal record sealed by hand, as a hostile writer could seal one.
std::vector<uint8_t> sealed_record(uint8_t kind, uint32_t boundary,
                                   uint64_t parent,
                                   const std::vector<uint8_t>& payload) {
  ckpt::Writer w;
  w.u32(ckpt::kJournalMagic);
  w.u8(kind);
  w.u32(boundary);
  if (kind == ckpt::kJournalDelta) w.u64(parent);
  w.u64(payload.size());
  w.bytes(payload.data(), payload.size());
  w.u32(ckpt::crc32(w.buffer().data(), w.size()));
  return w.take();
}

uint32_t trailing_crc(const std::vector<uint8_t>& record) {
  ckpt::Reader r(record.data() + record.size() - 4, 4);
  return r.u32();
}

TEST(CkptState, ErrorFeedbackRejectsNonAscendingIds) {
  // Writers emit client ids strictly ascending. A sealed record with a
  // swapped pair or a repeated id would otherwise restore a different
  // residual store, so both must fail as one CkptError line.
  ScratchDir dir("ckpt_test_ef_ids");
  const float h[2] = {1.0f, -1.0f};
  const auto payload = [&h](std::vector<int> ids) {
    ckpt::Writer w;
    w.varint(2);  // dim
    w.varint(ids.size());
    for (const int c : ids) {
      w.varint(static_cast<uint64_t>(c));
      w.f64(1.0);
      w.f32s(h, 2);
    }
    return w.take();
  };
  const std::string journal = ckpt::journal_path(dir.str());
  for (const std::vector<int>& ids :
       {std::vector<int>{5, 3}, std::vector<int>{3, 3}}) {
    const std::vector<uint8_t> rec =
        sealed_record(ckpt::kJournalBase, 1, 0, payload(ids));
    spit(journal, rec);
    try {
      ckpt::load_residuals(dir.str(), 0, trailing_crc(rec), 1);
      ADD_FAILURE() << "ids " << ids[0] << "," << ids[1] << " were accepted";
    } catch (const ckpt::CkptError& e) {
      EXPECT_EQ(std::string(e.what()).find('\n'), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("ascending"), std::string::npos)
          << e.what();
    }
  }
  // The canonical order still restores.
  const std::vector<uint8_t> ok =
      sealed_record(ckpt::kJournalBase, 1, 0, payload({3, 5}));
  spit(journal, ok);
  ErrorFeedback ef(ErrorFeedback::Mode::kRescaled, 2);
  ef.restore_rows(ckpt::load_residuals(dir.str(), 0, trailing_crc(ok), 1));
  EXPECT_EQ(ef.num_tracked_clients(), 2u);
}

// --------------------------------------------------------- file framing

ckpt::Snapshot tiny_snapshot() {
  ckpt::Snapshot snap;
  snap.meta = {{"strategy", "fedavg"}, {"exec", "sync"}};
  snap.seed = 42;
  snap.dim = 3;
  snap.stat_dim = 1;
  snap.num_clients = 2;
  snap.rounds = 10;
  snap.next_round = 2;
  snap.params = {1.0f, 2.0f, 3.0f};
  snap.stats = {4.0f};
  {
    SyncTracker t(2, 3);
    BitMask m(3);
    m.set(1);
    t.record_round_changes(0, m);
    t.record_round_changes(1, m);
    ckpt::Writer w;
    t.save_state(w);
    snap.sync_state = w.take();
  }
  RoundRecord rec;
  rec.round = 0;
  rec.down_bytes = 123.0;
  snap.history.push_back(rec);
  rec.round = 1;
  snap.history.push_back(rec);
  snap.strategy_id = "fedavg";
  return snap;
}

TEST(CkptFile, EncodeDecodeRoundTrip) {
  const ckpt::Snapshot snap = tiny_snapshot();
  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(snap);
  const ckpt::Snapshot back = ckpt::decode_snapshot(bytes.data(), bytes.size());
  EXPECT_EQ(back.meta, snap.meta);
  EXPECT_EQ(back.seed, snap.seed);
  EXPECT_EQ(back.dim, snap.dim);
  EXPECT_EQ(back.next_round, snap.next_round);
  EXPECT_EQ(back.params, snap.params);
  EXPECT_EQ(back.sync_state, snap.sync_state);
  EXPECT_EQ(back.history.size(), snap.history.size());
  EXPECT_EQ(back.strategy_id, snap.strategy_id);
  EXPECT_FALSE(back.has_async);
}

TEST(CkptFile, CorruptPayloadIsRejectedByCrc) {
  std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  bytes[ckpt::kHeaderBytes + 5] ^= 0x40;
  EXPECT_THROW(ckpt::decode_snapshot(bytes.data(), bytes.size()),
               ckpt::CkptError);
}

TEST(CkptFile, TruncationIsRejected) {
  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  for (const size_t keep : {size_t{0}, size_t{4}, size_t{17},
                            bytes.size() - 1}) {
    EXPECT_THROW(ckpt::decode_snapshot(bytes.data(), keep), ckpt::CkptError);
  }
}

TEST(CkptFile, UnknownVersionIsRejected) {
  std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  bytes[4] = ckpt::kFormatVersion + 1;  // format byte
  EXPECT_THROW(ckpt::decode_snapshot(bytes.data(), bytes.size()),
               ckpt::CkptError);
}

TEST(CkptFile, BadMagicIsRejected) {
  std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  bytes[0] ^= 0xFF;
  EXPECT_THROW(ckpt::decode_snapshot(bytes.data(), bytes.size()),
               ckpt::CkptError);
}

TEST(CkptFile, SaveIsAtomicAndLoadable) {
  const fs::path dir = fs::path("ckpt_test_save");
  fs::create_directories(dir);
  const std::string path = (dir / "snap.gfc").string();
  ckpt::save_checkpoint(path, tiny_snapshot());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp was renamed away
  const ckpt::Snapshot back = ckpt::load_checkpoint(path);
  EXPECT_EQ(back.next_round, 2);
  // FedAvg keeps no residuals: no journal, and the head says so.
  EXPECT_EQ(back.journal_at, ckpt::kNoJournal);
  EXPECT_FALSE(back.residuals.has_value());
  EXPECT_FALSE(fs::exists(ckpt::journal_path(dir.string())));
  fs::remove_all(dir);
}

TEST(CkptFile, SaveWritesTheSnapshotRowsAsABase) {
  ScratchDir dir("ckpt_test_save_rows");
  ckpt::Snapshot snap = tiny_snapshot();
  ResidualRows rows;
  rows.dim = 3;
  rows.rows[4].h =
      std::make_shared<std::vector<float>>(std::vector<float>{1, 2, 3});
  rows.rows[4].nu = 0.25;
  rows.rows[11].h =
      std::make_shared<std::vector<float>>(std::vector<float>{-1, 0, 1});
  snap.residuals = rows;
  const std::string path = (dir.path / "snap.gfc").string();
  ckpt::save_checkpoint(path, snap);
  ckpt::save_checkpoint(path, snap);  // a second base, appended
  const ckpt::Snapshot back = ckpt::load_checkpoint(path);
  ASSERT_TRUE(back.residuals.has_value());
  EXPECT_EQ(back.journal_at, ckpt::residual_record_bytes(rows, true, 0));
  EXPECT_EQ(back.residuals->dim, 3u);
  ASSERT_EQ(back.residuals->rows.size(), 2u);
  EXPECT_EQ(*back.residuals->rows.at(4).h, *rows.rows.at(4).h);
  EXPECT_EQ(back.residuals->rows.at(4).nu, 0.25);
  EXPECT_EQ(*back.residuals->rows.at(11).h, *rows.rows.at(11).h);
}

TEST(CkptFile, DirectoriesAreNotCheckpoints) {
  // A directory must fail as one line, not size a buffer from tellg().
  ScratchDir dir("ckpt_test_dir_path");
  for (const std::string& path :
       {dir.str(), ckpt::checkpoint_path(dir.str(), 1)}) {
    fs::create_directories(path);
    try {
      ckpt::load_checkpoint(path);
      ADD_FAILURE() << path << " loaded";
    } catch (const ckpt::CkptError& e) {
      EXPECT_NE(std::string(e.what()).find("not a regular file"),
                std::string::npos)
          << e.what();
    }
  }
  fs::create_directories(ckpt::journal_path(dir.str()));
  EXPECT_THROW(ckpt::load_residuals(dir.str(), 0, 0, 1), ckpt::CkptError);
}

TEST(CkptFile, MissingFileIsACleanError) {
  EXPECT_THROW(ckpt::load_checkpoint("no/such/checkpoint.gfc"),
               ckpt::CkptError);
}

// ------------------------------------------------- deterministic resume

struct MatrixConfig {
  uint64_t seed = 42;
  int threads = 1;
  int edges = 0;  // 0 = flat
};

/// Both seeds at 1 and 4 threads, each flat and hierarchical.
constexpr MatrixConfig kCombos[] = {
    {42, 1, 0}, {7, 4, 0}, {42, 1, 3}, {7, 4, 3}};

constexpr int kRounds = 6;
constexpr int kBoundary = 3;

SimEngine make_matrix_engine(const MatrixConfig& c) {
  RunConfig rc = tiny_run_config(kRounds, 6, c.seed);
  rc.eval_every = 2;
  rc.num_threads = c.threads;
  rc.topology.num_edges = c.edges;
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), rc);
}

std::unique_ptr<Strategy> make_matrix_strategy(const std::string& name) {
  if (name == "fedavg") return std::make_unique<FedAvgStrategy>();
  if (name == "stc") {
    StcConfig c;
    c.q = 0.25;
    return std::make_unique<StcStrategy>(c);
  }
  if (name == "apf") {
    ApfConfig c;
    c.check_every = 2;
    c.base_freeze = 2;
    c.max_freeze = 8;
    return std::make_unique<ApfStrategy>(c);
  }
  GlueFlConfig g;
  g.q = 0.3;
  g.q_shr = 0.1;
  g.regen_every = 3;
  g.sticky_group_size = 20;
  g.sticky_per_round = 3;
  return std::make_unique<GlueFlStrategy>(g);
}

/// Captures an in-memory snapshot at the configured boundary and lets the
/// run continue — one run doubles as the uninterrupted reference AND the
/// checkpoint source.
struct CaptureHook final : RoundHook {
  int boundary = kBoundary;
  std::string id;
  const ckpt::Checkpointable* strategy = nullptr;
  ckpt::Snapshot snap;
  bool captured = false;

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    if (round + 1 != boundary) return;
    snap = ckpt::snapshot_of(engine, boundary, partial, id, *strategy,
                             async_state, {{"origin", "test"}});
    captured = true;
  }
};

bool same_bits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, 8);
  std::memcpy(&y, &b, 8);
  return x == y;
}

void expect_identical_runs(const RunResult& ref, const RunResult& res,
                           const std::string& label) {
  ASSERT_EQ(ref.rounds.size(), res.rounds.size()) << label;
  for (size_t i = 0; i < ref.rounds.size(); ++i) {
    const RoundRecord& a = ref.rounds[i];
    const RoundRecord& b = res.rounds[i];
    EXPECT_EQ(a.round, b.round) << label << " round " << i;
    EXPECT_TRUE(same_bits(a.down_bytes, b.down_bytes))
        << label << " down_bytes @" << i;
    EXPECT_TRUE(same_bits(a.up_bytes, b.up_bytes))
        << label << " up_bytes @" << i;
    EXPECT_TRUE(same_bits(a.down_time_s, b.down_time_s))
        << label << " down_time @" << i;
    EXPECT_TRUE(same_bits(a.up_time_s, b.up_time_s))
        << label << " up_time @" << i;
    EXPECT_TRUE(same_bits(a.compute_time_s, b.compute_time_s))
        << label << " compute_time @" << i;
    EXPECT_TRUE(same_bits(a.wall_time_s, b.wall_time_s))
        << label << " wall_time @" << i;
    EXPECT_TRUE(same_bits(a.train_loss, b.train_loss))
        << label << " train_loss @" << i;
    EXPECT_TRUE(same_bits(a.test_acc, b.test_acc))
        << label << " test_acc @" << i;
    EXPECT_EQ(a.num_invited, b.num_invited) << label << " invited @" << i;
    EXPECT_EQ(a.num_included, b.num_included) << label << " included @" << i;
    EXPECT_TRUE(same_bits(a.mean_staleness, b.mean_staleness))
        << label << " staleness @" << i;
    EXPECT_TRUE(same_bits(a.changed_frac, b.changed_frac))
        << label << " changed_frac @" << i;
    EXPECT_TRUE(same_bits(a.mask_overlap, b.mask_overlap))
        << label << " mask_overlap @" << i;
  }
}

/// Every sync combination: the uninterrupted run saves a head at every
/// boundary, so the heads sit on base+delta journal chains; resuming from
/// an early and from the newest head must reproduce the same run.
void run_sync_matrix(const std::string& strategy_name) {
  for (const MatrixConfig& c : kCombos) {
    const std::string label =
        strategy_name + " seed=" + std::to_string(c.seed) +
        " threads=" + std::to_string(c.threads) +
        (c.edges > 0 ? " hier" : " flat");

    ScratchDir dir("ckpt_matrix_" + strategy_name);
    SimEngine ref_engine = make_matrix_engine(c);
    auto ref_strategy = make_matrix_strategy(strategy_name);
    ckpt::CkptOptions opts;
    opts.every = 1;
    opts.dir = dir.str();
    ckpt::CheckpointHook hook(opts, {{"origin", "test"}},
                              ref_strategy->name(), *ref_strategy);
    const RunResult ref = ref_engine.run(*ref_strategy, &hook);
    ASSERT_EQ(hook.saves(), kRounds - 1) << label;
    EXPECT_EQ(fs::exists(ckpt::journal_path(dir.str())),
              ref_strategy->residuals() != nullptr)
        << label;

    for (const int boundary : {kBoundary, kRounds - 1}) {
      const ckpt::Snapshot snap =
          ckpt::load_checkpoint(ckpt::checkpoint_path(dir.str(), boundary));
      SimEngine res_engine = make_matrix_engine(c);
      auto res_strategy = make_matrix_strategy(strategy_name);
      ckpt::restore_sync_run(snap, res_engine, *res_strategy);
      const RunResult res = res_engine.run_from(
          *res_strategy, snap.next_round, ckpt::history_result(snap));

      const std::string at = label + " from " + std::to_string(boundary);
      if (snap.residuals && boundary == kBoundary) {
        // This head's rows come back through a delta, not a lone base.
        const std::vector<uint8_t> journal =
            slurp(ckpt::journal_path(dir.str()));
        EXPECT_EQ(journal.at(static_cast<size_t>(snap.journal_at) + 4),
                  ckpt::kJournalDelta)
            << at;
      }
      expect_identical_runs(ref, res, at);
      EXPECT_EQ(ref_engine.params(), res_engine.params()) << at;
      EXPECT_EQ(ref_engine.stats(), res_engine.stats()) << at;
    }
  }
}

TEST(CkptResume, FedAvgMatrix) { run_sync_matrix("fedavg"); }
TEST(CkptResume, StcMatrix) { run_sync_matrix("stc"); }
TEST(CkptResume, ApfMatrix) { run_sync_matrix("apf"); }
TEST(CkptResume, GlueFlMatrix) { run_sync_matrix("gluefl"); }

TEST(CkptResume, AsyncFedBuffMatrix) {
  for (const MatrixConfig& c : kCombos) {
    const std::string label =
        "async-fedbuff seed=" + std::to_string(c.seed) +
        " threads=" + std::to_string(c.threads) +
        (c.edges > 0 ? " hier" : " flat");
    AsyncConfig acfg;
    acfg.buffer_size = 4;
    acfg.concurrency = 8;

    ScratchDir dir("ckpt_matrix_async");
    SimEngine ref_engine = make_matrix_engine(c);
    AsyncSimEngine ref_async(ref_engine, acfg);
    AsyncFedBuffStrategy ref_strategy{AsyncFedBuffConfig{}};
    ckpt::CkptOptions opts;
    opts.every = 1;
    opts.dir = dir.str();
    ckpt::CheckpointHook hook(opts, {{"origin", "test"}}, ref_strategy.name(),
                              ref_strategy);
    const RunResult ref = ref_async.run(ref_strategy, &hook);
    ASSERT_EQ(hook.saves(), kRounds - 1) << label;

    const ckpt::Snapshot snap =
        ckpt::load_checkpoint(ckpt::checkpoint_path(dir.str(), kBoundary));
    ASSERT_TRUE(snap.has_async) << label;
    SimEngine res_engine = make_matrix_engine(c);
    AsyncSimEngine res_async(res_engine, acfg);
    AsyncFedBuffStrategy res_strategy{AsyncFedBuffConfig{}};
    AsyncRunState state =
        ckpt::restore_async_run(snap, res_engine, res_strategy);
    const RunResult res = res_async.resume(res_strategy, std::move(state),
                                           ckpt::history_result(snap));

    expect_identical_runs(ref, res, label);
    EXPECT_EQ(ref_engine.params(), res_engine.params()) << label;
    EXPECT_EQ(ref_engine.stats(), res_engine.stats()) << label;
  }
}

// Availability churn uses an engine-owned trace reconstructed from the
// master seed: resume must line up with it without snapshotting it.
TEST(CkptResume, SurvivesAvailabilityChurn) {
  RunConfig rc = tiny_run_config(kRounds, 6, 42);
  rc.eval_every = 2;
  rc.use_availability = true;
  auto build = [&rc]() {
    return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                     make_edge_env(), tiny_train_config(), rc);
  };
  SimEngine ref_engine = build();
  auto ref_strategy = make_matrix_strategy("gluefl");
  CaptureHook hook;
  hook.id = ref_strategy->name();
  hook.strategy = ref_strategy.get();
  const RunResult ref = ref_engine.run(*ref_strategy, &hook);
  ASSERT_TRUE(hook.captured);

  SimEngine res_engine = build();
  auto res_strategy = make_matrix_strategy("gluefl");
  ckpt::restore_sync_run(hook.snap, res_engine, *res_strategy);
  const RunResult res = res_engine.run_from(
      *res_strategy, hook.snap.next_round, ckpt::history_result(hook.snap));
  expect_identical_runs(ref, res, "availability");
  EXPECT_EQ(ref_engine.params(), res_engine.params());
}

// ------------------------------------------------------ hook behaviour

TEST(CkptHook, SavesOnCadenceAndSkipsFinalBoundary) {
  const fs::path dir = fs::path("ckpt_test_hook");
  fs::create_directories(dir);

  MatrixConfig c;
  SimEngine engine = make_matrix_engine(c);
  auto strategy = make_matrix_strategy("fedavg");
  ckpt::CkptOptions opts;
  opts.every = 2;
  opts.dir = dir.string();
  ckpt::CheckpointHook hook(opts, {{"strategy", "fedavg"}}, "fedavg",
                            *strategy);
  engine.run(*strategy, &hook);

  // rounds = 6, every = 2: boundaries 2 and 4 saved, 6 (final) skipped.
  EXPECT_EQ(hook.saves(), 2);
  EXPECT_TRUE(fs::exists(ckpt::checkpoint_path(opts.dir, 2)));
  EXPECT_TRUE(fs::exists(ckpt::checkpoint_path(opts.dir, 4)));
  EXPECT_FALSE(fs::exists(ckpt::checkpoint_path(opts.dir, 6)));
  fs::remove_all(dir);
}

TEST(CkptHook, CrashThrowsAfterSavingDueSnapshot) {
  const fs::path dir = fs::path("ckpt_test_crash");
  fs::create_directories(dir);

  MatrixConfig c;
  SimEngine engine = make_matrix_engine(c);
  auto strategy = make_matrix_strategy("fedavg");
  ckpt::CkptOptions opts;
  opts.every = 2;
  opts.dir = dir.string();
  opts.crash_at = 4;
  ckpt::CheckpointHook hook(opts, {{"strategy", "fedavg"}}, "fedavg",
                            *strategy);
  try {
    engine.run(*strategy, &hook);
    FAIL() << "expected SimulatedCrash";
  } catch (const ckpt::SimulatedCrash& crash) {
    EXPECT_EQ(crash.boundary(), 4);
    // The boundary-4 snapshot is persisted BEFORE the crash fires.
    EXPECT_EQ(crash.last_checkpoint(), ckpt::checkpoint_path(opts.dir, 4));
    EXPECT_TRUE(fs::exists(crash.last_checkpoint()));
  }
  fs::remove_all(dir);
}

// -------------------------------------------------- restore validation

TEST(CkptRestore, RejectsSeedMismatch) {
  MatrixConfig c;
  SimEngine engine = make_matrix_engine(c);
  auto strategy = make_matrix_strategy("fedavg");
  CaptureHook hook;
  hook.id = strategy->name();
  hook.strategy = strategy.get();
  engine.run(*strategy, &hook);

  MatrixConfig other = c;
  other.seed = 1234;
  SimEngine wrong = make_matrix_engine(other);
  auto strategy2 = make_matrix_strategy("fedavg");
  EXPECT_THROW(ckpt::restore_sync_run(hook.snap, wrong, *strategy2),
               ckpt::CkptError);
}

TEST(CkptRestore, RejectsDuplicateInFlightClients) {
  // A tampered async snapshot with two events for one client would
  // double-complete it and starve the other flagged client forever.
  MatrixConfig c;
  AsyncConfig acfg;
  acfg.buffer_size = 4;
  acfg.concurrency = 8;

  SimEngine ref_engine = make_matrix_engine(c);
  AsyncSimEngine ref_async(ref_engine, acfg);
  AsyncFedBuffStrategy ref_strategy{AsyncFedBuffConfig{}};
  CaptureHook hook;
  hook.id = ref_strategy.name();
  hook.strategy = &ref_strategy;
  ref_async.run(ref_strategy, &hook);
  ASSERT_TRUE(hook.captured);

  SimEngine res_engine = make_matrix_engine(c);
  AsyncSimEngine res_async(res_engine, acfg);
  AsyncFedBuffStrategy res_strategy{AsyncFedBuffConfig{}};
  AsyncRunState state =
      ckpt::restore_async_run(hook.snap, res_engine, res_strategy);
  ASSERT_GE(state.events.size(), 2u);
  state.events[0].client = state.events[1].client;
  EXPECT_THROW(res_async.resume(res_strategy, std::move(state),
                                ckpt::history_result(hook.snap)),
               ckpt::CkptError);
}

// ------------------------------------------------- hostile async heads
//
// A real async head from `gluefl run`, its version table edited and the
// head re-sealed: every inconsistency must fail as one CkptError line,
// both when the async section is decoded and through `gluefl resume`
// (exit 1).

/// Writes an async head at boundary 3 into `dir` and returns it with its
/// async section decoded against the head's own shapes.
std::pair<ckpt::Snapshot, AsyncRunState> async_head(const ScratchDir& dir) {
  std::ostringstream out, err;
  const int code = cli::run_cli(
      {"run", "--exec", "async", "--rounds", "5", "--scale", "0.02",
       "--checkpoint-every", "3", "--checkpoint-dir", dir.str()},
      out, err);
  EXPECT_EQ(code, 0) << err.str();
  ckpt::Snapshot snap =
      ckpt::load_checkpoint(ckpt::checkpoint_path(dir.str(), 3));
  AsyncRunState st;
  ckpt::Reader r(snap.async_state.data(), snap.async_state.size());
  st.restore_state(r, snap.num_clients, snap.dim, snap.stat_dim);
  return {std::move(snap), std::move(st)};
}

/// Applies `edit` to a real head's decoded async state, re-encodes it, and
/// expects one CkptError line containing `what` from the decode and from
/// `gluefl resume`.
void expect_hostile_table(const std::string& name,
                          const std::function<void(AsyncRunState&)>& edit,
                          const std::string& what) {
  ScratchDir dir("ckpt_hostile_" + name);
  auto [snap, st] = async_head(dir);
  ASSERT_GE(st.versions.size(), 2u) << "the head needs two live versions";
  edit(st);
  ckpt::Writer w;
  st.save_state(w);
  snap.async_state = w.take();

  AsyncRunState back;
  ckpt::Reader r(snap.async_state.data(), snap.async_state.size());
  try {
    back.restore_state(r, snap.num_clients, snap.dim, snap.stat_dim);
    ADD_FAILURE() << name << ": the edited table decoded";
  } catch (const ckpt::CkptError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(what), std::string::npos) << name << ": " << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << name << ": " << msg;
  }

  const std::string path = (dir.path / "hostile.gfc").string();
  ckpt::save_checkpoint(path, snap);
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli({"resume", path}, out, err), 1) << name;
  const std::string line = err.str();
  EXPECT_NE(line.find(what), std::string::npos) << name << ": " << line;
  EXPECT_EQ(line.find('\n'), line.size() - 1) << name << ": " << line;
  EXPECT_EQ(line.find("GLUEFL_CHECK"), std::string::npos) << name;
}

/// Points every event of version `from` at version `to`.
void retarget(AsyncRunState& st, int from, int to) {
  for (AsyncInFlight& f : st.events) {
    if (f.version == from) f.version = to;
  }
}

TEST(CkptAsyncHead, RejectsATableLackingAnInFlightVersion) {
  expect_hostile_table(
      "lacks",
      [](AsyncRunState& st) { st.versions.erase(st.versions.begin()); },
      "lacks version");
}

TEST(CkptAsyncHead, RejectsAVersionNoEventReferences) {
  expect_hostile_table(
      "unreferenced",
      [](AsyncRunState& st) {
        retarget(st, st.versions[0].version, st.versions[1].version);
      },
      "which no in-flight update references");
}

TEST(CkptAsyncHead, RejectsRepeatedOrDescendingVersions) {
  expect_hostile_table(
      "repeated",
      [](AsyncRunState& st) {
        st.versions.insert(st.versions.begin() + 1, st.versions[0]);
      },
      "not strictly ascending");
  expect_hostile_table(
      "descending",
      [](AsyncRunState& st) { std::swap(st.versions[0], st.versions[1]); },
      "not strictly ascending");
}

TEST(CkptAsyncHead, RejectsAVersionAtOrPastTheBoundary) {
  for (const int past : {0, 1}) {
    expect_hostile_table(
        "boundary" + std::to_string(past),
        [past](AsyncRunState& st) {
          AsyncModelVersion& last = st.versions.back();
          retarget(st, last.version, st.version + past);
          last.version = st.version + past;
        },
        "at or past its boundary");
  }
}

TEST(CkptAsyncHead, RejectsParamsOrStatsOfTheWrongLength) {
  expect_hostile_table(
      "params",
      [](AsyncRunState& st) { st.versions[0].params.pop_back(); },
      "does not match the model's shapes");
  expect_hostile_table(
      "stats",
      [](AsyncRunState& st) { st.versions[1].stats.push_back(0.0f); },
      "does not match the model's shapes");
}

TEST(CkptRestore, RejectsStrategyMismatch) {
  MatrixConfig c;
  SimEngine engine = make_matrix_engine(c);
  auto strategy = make_matrix_strategy("fedavg");
  CaptureHook hook;
  hook.id = strategy->name();
  hook.strategy = strategy.get();
  engine.run(*strategy, &hook);

  SimEngine engine2 = make_matrix_engine(c);
  auto stc = make_matrix_strategy("stc");
  EXPECT_THROW(ckpt::restore_sync_run(hook.snap, engine2, *stc),
               ckpt::CkptError);
}

// ------------------------------------------------------ residual journal

/// Stores a scripted set of residual rows each round and changes nothing
/// else, so the journal's base/delta rule can be checked record by record.
class ScriptedResiduals final : public Strategy {
 public:
  explicit ScriptedResiduals(std::vector<std::vector<int>> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "scripted"; }
  void init(SimEngine& engine) override {
    ec_ = std::make_unique<ErrorFeedback>(ErrorFeedback::Mode::kRaw,
                                          engine.dim());
  }
  void run_round(SimEngine& engine, int round, RoundRecord& rec) override {
    (void)rec;
    const std::vector<float> h(engine.dim(), static_cast<float>(round));
    for (const int c : script_[static_cast<size_t>(round)]) {
      ec_->store(c, 1.0 + round, h.data());
    }
    engine.sync().record_round_changes(round, BitMask(engine.dim()));
  }
  void save_state(ckpt::Writer& w) const override { (void)w; }
  void restore_state(ckpt::Reader& r) override { (void)r; }
  const ErrorFeedback* residuals() const override { return ec_.get(); }
  void restore_residuals(const ResidualRows& rows) override {
    ec_->restore_rows(rows);
  }

 private:
  std::vector<std::vector<int>> script_;
  std::unique_ptr<ErrorFeedback> ec_;
};

/// One journal record as found on disk.
struct ParsedRecord {
  uint64_t at = 0;
  uint8_t kind = 0;
  uint32_t boundary = 0;
  uint64_t parent = 0;
  uint64_t bytes = 0;
  std::vector<int> clients;
};

std::vector<ParsedRecord> parse_journal(const std::vector<uint8_t>& bytes) {
  std::vector<ParsedRecord> out;
  ckpt::Reader r(bytes.data(), bytes.size());
  while (r.remaining() > 0) {
    ParsedRecord rec;
    rec.at = bytes.size() - r.remaining();
    EXPECT_EQ(r.u32(), ckpt::kJournalMagic);
    rec.kind = r.u8();
    rec.boundary = r.u32();
    if (rec.kind == ckpt::kJournalDelta) rec.parent = r.u64();
    const uint64_t len = r.u64();
    ckpt::Reader p(r.bytes(static_cast<size_t>(len)), static_cast<size_t>(len));
    p.varint();  // dim
    const uint64_t n = p.varint();
    for (uint64_t i = 0; i < n; ++i) {
      rec.clients.push_back(static_cast<int>(p.varint()));
      p.f64();
      p.f32s();
    }
    p.expect_end("payload");
    r.u32();  // crc
    rec.bytes = bytes.size() - r.remaining() - rec.at;
    out.push_back(rec);
  }
  return out;
}

TEST(CkptJournal, DeltasHoldTheRowsStoredSinceThePreviousCommit) {
  // Round r stores one new client and two it has stored before, so deltas
  // stay large next to the base and the rule has to fall back to a base
  // every few commits.
  constexpr int kScriptRounds = 14;
  std::vector<std::vector<int>> script = {{0, 1, 2, 3}};
  for (int r = 1; r < kScriptRounds; ++r) {
    script.push_back({r % 3, (r * 7) % (r + 3), r + 3});
  }
  ScratchDir dir("ckpt_test_journal_rule");
  RunConfig rc = tiny_run_config(kScriptRounds, 6, 42);
  rc.eval_every = kScriptRounds;
  SimEngine engine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(), rc);
  ScriptedResiduals strategy(script);
  ckpt::CkptOptions opts;
  opts.every = 1;
  opts.dir = dir.str();
  ckpt::CheckpointHook hook(opts, {}, strategy.name(), strategy);
  engine.run(strategy, &hook);

  const std::vector<ParsedRecord> recs =
      parse_journal(slurp(ckpt::journal_path(dir.str())));
  ASSERT_EQ(recs.size(), static_cast<size_t>(kScriptRounds - 1));

  // Replays the rule on the row bytes alone: the first commit is a base;
  // later ones are deltas unless the deltas since the last base plus this
  // one would exceed a base's bytes.
  const size_t dim = engine.dim();
  const auto row_bytes = [dim](int c) {
    return ckpt::varint_size(static_cast<uint64_t>(c)) + 8 +
           ckpt::varint_size(dim) + 4 * dim;
  };
  const auto record_bytes = [&](const std::set<int>& ids, bool base) {
    uint64_t b = (base ? 17 : 25) + 4 + ckpt::varint_size(dim) +
                 ckpt::varint_size(ids.size());
    for (const int c : ids) b += row_bytes(c);
    return b;
  };
  std::set<int> live;
  uint64_t delta_sum = 0;
  int bases = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    const int boundary = static_cast<int>(i) + 1;
    const std::set<int> stored(script[i].begin(), script[i].end());
    live.insert(stored.begin(), stored.end());
    const uint64_t delta = record_bytes(stored, false);
    const bool base = i == 0 || delta_sum + delta > record_bytes(live, true);
    const ParsedRecord& rec = recs[i];
    const std::string at = "boundary " + std::to_string(boundary);
    EXPECT_EQ(rec.boundary, static_cast<uint32_t>(boundary)) << at;
    ASSERT_EQ(rec.kind, base ? ckpt::kJournalBase : ckpt::kJournalDelta) << at;
    const std::set<int>& want = base ? live : stored;
    EXPECT_EQ(rec.clients, std::vector<int>(want.begin(), want.end())) << at;
    EXPECT_EQ(rec.bytes, record_bytes(want, base)) << at;
    if (!base) {
      EXPECT_EQ(rec.parent, recs[i - 1].at) << at;
    }
    delta_sum = base ? 0 : delta_sum + delta;
    bases += base ? 1 : 0;

    // Every head loads the rows live at its boundary: the newest store of
    // each client wins.
    const ckpt::Snapshot snap =
        ckpt::load_checkpoint(ckpt::checkpoint_path(dir.str(), boundary));
    ASSERT_TRUE(snap.residuals.has_value()) << at;
    EXPECT_EQ(snap.journal_at, rec.at) << at;
    ASSERT_EQ(snap.residuals->rows.size(), live.size()) << at;
    for (const int c : live) {
      int last = 0;
      for (int r = 0; r < boundary; ++r) {
        for (const int s : script[static_cast<size_t>(r)]) {
          if (s == c) last = r;
        }
      }
      const ResidualRow& row = snap.residuals->rows.at(c);
      EXPECT_EQ(row.nu, 1.0 + last) << at << " client " << c;
      EXPECT_EQ(row.h->front(), static_cast<float>(last))
          << at << " client " << c;
    }
  }
  // The script must exercise both kinds more than once.
  EXPECT_GE(bases, 3);
  EXPECT_GE(static_cast<int>(recs.size()) - bases, 3);
}

TEST(CkptJournal, HostileJournalsFailWithOneLine) {
  ScratchDir dir("ckpt_test_journal_hostile");
  ErrorFeedback ef(ErrorFeedback::Mode::kRaw, 4);
  const float h1[4] = {1.0f, 2.0f, 3.0f, 4.0f};
  const float h2[4] = {-1.0f, -2.0f, -3.0f, -4.0f};
  ef.store(1, 1.0, h1);
  ef.store(5, 1.0, h1);
  const ckpt::JournalRecord base = ckpt::append_residuals(
      dir.str(), true, 1, ckpt::kNoJournal, ef.rows(), 0);
  const uint64_t stamp = ef.stamp();
  ef.store(5, 1.0, h2);
  ef.store(7, 1.0, h2);
  const ckpt::JournalRecord delta =
      ckpt::append_residuals(dir.str(), false, 2, base.at, ef.rows(), stamp);
  ASSERT_EQ(delta.at, base.bytes);

  const ResidualRows rows = ckpt::load_residuals(dir.str(), delta.at,
                                                 delta.crc, 2);
  ASSERT_EQ(rows.rows.size(), 3u);
  EXPECT_EQ(rows.rows.at(5).h->front(), -1.0f);  // the newest row wins
  EXPECT_EQ(rows.rows.at(1).h->front(), 1.0f);

  const std::string journal = ckpt::journal_path(dir.str());
  const std::vector<uint8_t> good = slurp(journal);
  const size_t d = static_cast<size_t>(delta.at);
  const size_t delta_end = d + static_cast<size_t>(delta.bytes);
  // Recomputes a record's trailing CRC after a deliberate edit.
  const auto reseal = [](std::vector<uint8_t>& b, size_t at, size_t end) {
    const uint32_t crc = ckpt::crc32(b.data() + at, end - 4 - at);
    for (size_t i = 0; i < 4; ++i) {
      b[end - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
    }
  };
  struct Case {
    const char* label;
    std::vector<uint8_t> bytes;
    uint32_t crc;
    int boundary;
    const char* expect;
  };
  std::vector<Case> cases;
  cases.push_back({"truncated record",
                   std::vector<uint8_t>(good.begin(), good.end() - 3),
                   delta.crc, 2, "truncated"});
  {
    std::vector<uint8_t> b = good;
    b[delta_end - 9] ^= 0x10;  // inside the last row's floats
    cases.push_back({"flipped payload byte", b, delta.crc, 2, "CRC mismatch"});
  }
  {
    std::vector<uint8_t> b = good;
    b[delta_end - 1] ^= 0x01;
    cases.push_back({"flipped CRC byte", b, delta.crc, 2, "CRC mismatch"});
  }
  {
    std::vector<uint8_t> b = good;
    b[d + 4] = 7;  // kind
    reseal(b, d, delta_end);
    cases.push_back({"bad kind", b, 0, 2, "unknown kind"});
  }
  {
    std::vector<uint8_t> b = good;
    for (size_t i = 0; i < 8; ++i) {
      b[d + 9 + i] = static_cast<uint8_t>(delta.at >> (8 * i));  // parent
    }
    reseal(b, d, delta_end);
    cases.push_back({"self parent", b, 0, 2, "does not point backward"});
  }
  {
    std::vector<uint8_t> b = good;
    b[5] = 2;  // the base claims boundary 2, the delta's own
    reseal(b, 0, static_cast<size_t>(base.bytes));
    cases.push_back({"base not before delta", b, delta.crc, 2,
                     "does not precede"});
  }
  cases.push_back({"chain ends elsewhere", good, delta.crc, 3, "not the head's"});
  cases.push_back({"head CRC mismatch", good, delta.crc ^ 1u, 2,
                   "does not match the head"});

  for (Case& c : cases) {
    spit(journal, c.bytes);
    // A re-sealed delta carries a new CRC; the head must name it.
    const uint32_t crc =
        c.crc != 0 ? c.crc : ckpt::Reader(&c.bytes[delta_end - 4], 4).u32();
    try {
      ckpt::load_residuals(dir.str(), delta.at, crc, c.boundary);
      ADD_FAILURE() << c.label << " was accepted";
    } catch (const ckpt::CkptError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find('\n'), std::string::npos) << c.label;
      EXPECT_NE(what.find(c.expect), std::string::npos)
          << c.label << ": " << what;
    }
  }
  fs::remove(journal);
  try {
    ckpt::load_residuals(dir.str(), delta.at, delta.crc, 2);
    ADD_FAILURE() << "a missing journal was accepted";
  } catch (const ckpt::CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot be read"), std::string::npos)
        << e.what();
  }
}

TEST(CkptJournal, ResumingAnOlderHeadForksALineageAndKeepsEveryHeadLoadable) {
  // Resume from boundary 2 into the same directory, saving again: the
  // resumed hook starts with a base, appends after the first lineage's
  // records, and every head of both lineages stays loadable and resumes
  // to the uninterrupted run.
  ScratchDir dir("ckpt_test_journal_fork");
  MatrixConfig c;
  ckpt::CkptOptions opts;
  opts.every = 1;
  opts.dir = dir.str();

  SimEngine ref_engine = make_matrix_engine(c);
  auto ref_strategy = make_matrix_strategy("gluefl");
  ckpt::CheckpointHook first(opts, {}, "gluefl", *ref_strategy);
  const RunResult ref = ref_engine.run(*ref_strategy, &first);
  const std::string old4 = (dir.path / "old-4.gfc").string();
  fs::rename(ckpt::checkpoint_path(dir.str(), 4), old4);
  const uint64_t first_lineage = fs::file_size(ckpt::journal_path(dir.str()));

  {
    const ckpt::Snapshot snap =
        ckpt::load_checkpoint(ckpt::checkpoint_path(dir.str(), 2));
    SimEngine engine = make_matrix_engine(c);
    auto strategy = make_matrix_strategy("gluefl");
    ckpt::CheckpointHook second(opts, {}, "gluefl", *strategy);
    ckpt::restore_sync_run(snap, engine, *strategy);
    engine.run_from(*strategy, snap.next_round, ckpt::history_result(snap),
                    &second);
    EXPECT_EQ(second.saves(), kRounds - 1 - 2);
  }
  const std::vector<ParsedRecord> recs =
      parse_journal(slurp(ckpt::journal_path(dir.str())));
  const auto fork = std::find_if(recs.begin(), recs.end(),
                                 [&](const ParsedRecord& r) {
                                   return r.at == first_lineage;
                                 });
  ASSERT_NE(fork, recs.end());
  EXPECT_EQ(fork->kind, ckpt::kJournalBase);
  EXPECT_EQ(fork->boundary, 3u);

  for (const std::string& path :
       {old4, ckpt::checkpoint_path(dir.str(), 1),
        ckpt::checkpoint_path(dir.str(), 4)}) {
    const ckpt::Snapshot snap = ckpt::load_checkpoint(path);
    SimEngine engine = make_matrix_engine(c);
    auto strategy = make_matrix_strategy("gluefl");
    ckpt::restore_sync_run(snap, engine, *strategy);
    const RunResult res = engine.run_from(*strategy, snap.next_round,
                                          ckpt::history_result(snap));
    expect_identical_runs(ref, res, path);
    EXPECT_EQ(ref_engine.params(), engine.params()) << path;
  }
}

}  // namespace
}  // namespace gluefl
