// Checkpoint subsystem: io primitives, snapshot codec framing (CRC /
// version / truncation rejection), atomic persistence, and the central
// deterministic-resume contract — for every strategy x execution mode x
// aggregation backend x topology, run-to-boundary-then-resume must be
// bit-identical to the uninterrupted run (params, stats and every
// per-round byte/time metric), across seeds and thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
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

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

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

TEST(CkptIo, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(ckpt::crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);

  // crc32 folds eight bytes per step; a bytewise loop over the same
  // reflected polynomial must agree for every tail length and every
  // misaligned start.
  const auto bytewise = [](const uint8_t* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<uint8_t> buf(8 + 64);
  Rng rng(86);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.next_u64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(ckpt::crc32(buf.data() + offset, len),
                bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }

  // A whole encoded snapshot, pinned to the bytes format 5 has always
  // written: its size, the payload CRC in the header and the file's CRC.
  const std::vector<uint8_t> bytes = ckpt::encode_snapshot(tiny_snapshot());
  ASSERT_EQ(bytes.size(), 1052u);
  uint32_t header_crc = 0;
  for (int i = 0; i < 4; ++i) {
    header_crc |= static_cast<uint32_t>(bytes[6 + static_cast<size_t>(i)])
                  << (8 * i);
  }
  EXPECT_EQ(header_crc, 0x1E8CC6C4u);
  EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()), 0xC7B05626u);
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
  ErrorFeedback ef(ErrorFeedback::Mode::kRescaled, 4);
  const float h1[4] = {1.0f, -2.0f, 0.5f, 0.0f};
  const float h2[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  ef.store(9, 0.7, h1);
  ef.store(2, 1.3, h2);

  ckpt::Writer w;
  ef.save_state(w);
  EXPECT_EQ(w.size(), ef.state_bytes());  // the size save_state reserves
  ErrorFeedback ef2(ErrorFeedback::Mode::kRescaled, 4);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  ef2.restore_state(r);
  r.expect_end("ef");

  EXPECT_EQ(ef2.num_tracked_clients(), 2u);
  std::vector<float> d1(4, 0.0f), d2(4, 0.0f);
  ef.apply(9, 0.7, d1.data());
  ef2.apply(9, 0.7, d2.data());
  EXPECT_EQ(d1, d2);
}

TEST(CkptState, ErrorFeedbackRejectsNonAscendingIds) {
  // save_state writes client ids strictly ascending. A CRC-resealed
  // section with a swapped pair or a repeated id would otherwise restore
  // a different residual store, so both must fail as one CkptError line.
  const float h[2] = {1.0f, -1.0f};
  const auto section = [&h](std::vector<int> ids) {
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
  for (const std::vector<int>& ids :
       {std::vector<int>{5, 3}, std::vector<int>{3, 3}}) {
    const std::vector<uint8_t> bytes = section(ids);
    ErrorFeedback ef(ErrorFeedback::Mode::kRescaled, 2);
    ckpt::Reader r(bytes.data(), bytes.size());
    try {
      ef.restore_state(r);
      ADD_FAILURE() << "ids " << ids[0] << "," << ids[1] << " were accepted";
    } catch (const ckpt::CkptError& e) {
      EXPECT_EQ(std::string(e.what()).find('\n'), std::string::npos);
    }
  }
  // The canonical order still restores.
  const std::vector<uint8_t> ok = section({3, 5});
  ErrorFeedback ef(ErrorFeedback::Mode::kRescaled, 2);
  ckpt::Reader r(ok.data(), ok.size());
  ef.restore_state(r);
  r.expect_end("ef");
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
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("ckpt_test_save");
  fs::create_directories(dir);
  const std::string path = (dir / "snap.gfc").string();
  ckpt::save_checkpoint(path, tiny_snapshot());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp was renamed away
  const ckpt::Snapshot back = ckpt::load_checkpoint(path);
  EXPECT_EQ(back.next_round, 2);
  fs::remove_all(dir);
}

TEST(CkptFile, MissingFileIsACleanError) {
  EXPECT_THROW(ckpt::load_checkpoint("no/such/checkpoint.gfc"),
               ckpt::CkptError);
}

// ------------------------------------------------- deterministic resume

struct MatrixConfig {
  uint64_t seed = 42;
  int threads = 1;
  bool sharded = false;
  int edges = 0;  // 0 = flat
};

constexpr int kRounds = 6;
constexpr int kBoundary = 3;

SimEngine make_matrix_engine(const MatrixConfig& c) {
  RunConfig rc = tiny_run_config(kRounds, 6, c.seed);
  rc.eval_every = 2;
  rc.num_threads = c.threads;
  rc.agg.kind = c.sharded ? AggKind::kSharded : AggKind::kDense;
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

void run_sync_matrix(const std::string& strategy_name) {
  const MatrixConfig combos[] = {
      {42, 1, false, 0}, {7, 4, false, 0}, {42, 1, true, 0}, {7, 4, true, 0},
      {42, 1, false, 3}, {7, 4, false, 3}, {42, 1, true, 3}, {7, 4, true, 3},
  };
  for (const MatrixConfig& c : combos) {
    const std::string label =
        strategy_name + " seed=" + std::to_string(c.seed) +
        " threads=" + std::to_string(c.threads) +
        (c.sharded ? " sharded" : " dense") +
        (c.edges > 0 ? " hier" : " flat");

    SimEngine ref_engine = make_matrix_engine(c);
    auto ref_strategy = make_matrix_strategy(strategy_name);
    CaptureHook hook;
    hook.id = ref_strategy->name();
    hook.strategy = ref_strategy.get();
    const RunResult ref = ref_engine.run(*ref_strategy, &hook);
    ASSERT_TRUE(hook.captured) << label;

    // The snapshot goes through the full byte codec, like a real file.
    const std::vector<uint8_t> bytes = ckpt::encode_snapshot(hook.snap);
    const ckpt::Snapshot snap =
        ckpt::decode_snapshot(bytes.data(), bytes.size());

    SimEngine res_engine = make_matrix_engine(c);
    auto res_strategy = make_matrix_strategy(strategy_name);
    ckpt::restore_sync_run(snap, res_engine, *res_strategy);
    const RunResult res = res_engine.run_from(
        *res_strategy, snap.next_round, ckpt::history_result(snap));

    expect_identical_runs(ref, res, label);
    EXPECT_EQ(ref_engine.params(), res_engine.params()) << label;
    EXPECT_EQ(ref_engine.stats(), res_engine.stats()) << label;
  }
}

TEST(CkptResume, FedAvgMatrix) { run_sync_matrix("fedavg"); }
TEST(CkptResume, StcMatrix) { run_sync_matrix("stc"); }
TEST(CkptResume, ApfMatrix) { run_sync_matrix("apf"); }
TEST(CkptResume, GlueFlMatrix) { run_sync_matrix("gluefl"); }

TEST(CkptResume, AsyncFedBuffMatrix) {
  const MatrixConfig combos[] = {
      {42, 1, false, 0}, {7, 4, false, 0}, {42, 1, true, 0}, {7, 4, true, 0},
      {42, 1, false, 3}, {7, 4, false, 3}, {42, 1, true, 3}, {7, 4, true, 3},
  };
  for (const MatrixConfig& c : combos) {
    const std::string label =
        "async-fedbuff seed=" + std::to_string(c.seed) +
        " threads=" + std::to_string(c.threads) +
        (c.sharded ? " sharded" : " dense") +
        (c.edges > 0 ? " hier" : " flat");
    AsyncConfig acfg;
    acfg.buffer_size = 4;
    acfg.concurrency = 8;

    SimEngine ref_engine = make_matrix_engine(c);
    AsyncSimEngine ref_async(ref_engine, acfg);
    AsyncFedBuffStrategy ref_strategy{AsyncFedBuffConfig{}};
    CaptureHook hook;
    hook.id = ref_strategy.name();
    hook.strategy = &ref_strategy;
    const RunResult ref = ref_async.run(ref_strategy, &hook);
    ASSERT_TRUE(hook.captured) << label;
    ASSERT_TRUE(hook.snap.has_async) << label;

    const std::vector<uint8_t> bytes = ckpt::encode_snapshot(hook.snap);
    const ckpt::Snapshot snap =
        ckpt::decode_snapshot(bytes.data(), bytes.size());

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
  namespace fs = std::filesystem;
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
  namespace fs = std::filesystem;
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

}  // namespace
}  // namespace gluefl
