// Checkpoint-codec fuzz smoke (CTest: ckpt_fuzz_smoke; also run under the
// ASan leg). Mirrors tests/fuzz_wire_roundtrip.cpp for the checkpoint
// files: a head plus the residual journal beside it.
//
//   1. Round-trip identity: a REAL mid-run checkpoint (tiny engine +
//      gluefl, a head saved at every boundary so the journal holds a
//      base+delta chain) must load back every field the live state had at
//      that boundary, residual rows included, and restore.
//   2. Decoder robustness: random truncations and byte flips of the head
//      or of the journal must fail as CkptError. Half the mutations
//      additionally get their CRCs re-sealed (the head's, or the mutated
//      journal record's and the head's pointer to it) so the structural
//      parsers (not just the checksums) are exercised; a re-sealed file
//      must either load+restore or throw CkptError/CheckError. Anything
//      else — crash, sanitizer report, bad_alloc from a silently-trusted
//      huge length — fails the smoke.
//   3. Async version tables: a REAL async head (tiny engine +
//      async-fedbuff) gets its table of model versions edited — entries
//      dropped, repeated, swapped, renumbered or resized, events pointed
//      at other versions — and is re-sealed. It must load, restore and
//      resume, or fail as one CkptError.
//
// GLUEFL_FUZZ_ITERS / GLUEFL_FUZZ_SEED tune the budget.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/check.h"
#include "common/rng.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "strategies/async_fedbuff.h"
#include "strategies/gluefl.h"
#include "test_util.h"

using namespace gluefl;

namespace {

size_t env_or(const char* name, size_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def
                      : static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

std::unique_ptr<GlueFlStrategy> make_strategy() {
  GlueFlConfig g;
  g.q = 0.3;
  g.q_shr = 0.1;
  g.regen_every = 3;
  g.sticky_group_size = 20;
  g.sticky_per_round = 3;
  return std::make_unique<GlueFlStrategy>(g);
}

SimEngine make_engine() {
  RunConfig rc = testing::tiny_run_config(4, 6, 42);
  rc.eval_every = 2;
  return SimEngine(make_synthetic_dataset(testing::tiny_spec()),
                   testing::tiny_proxy(), make_datacenter_env(),
                   testing::tiny_train_config(), rc);
}

constexpr int kBoundary = 3;

/// Saves a checkpoint at every boundary through the real hook and keeps
/// the in-memory snapshot of boundary kBoundary to compare against.
struct SaveAndCapture final : RoundHook {
  ckpt::CheckpointHook* saver = nullptr;
  const ckpt::Checkpointable* strategy = nullptr;
  ckpt::Snapshot snap;
  bool captured = false;
  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    saver->on_round_end(engine, round, partial, async_state);
    if (round + 1 != kBoundary) return;
    snap = ckpt::snapshot_of(engine, kBoundary, partial, "gluefl", *strategy,
                             async_state, {{"origin", "fuzz"}});
    captured = true;
  }
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

void put_le(std::vector<uint8_t>& b, size_t at, uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    b[at + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
  }
}

/// Re-seals a mutated head: recomputes payload_len + CRC so the
/// structural parser runs instead of stopping at the checksum.
void reseal_head(std::vector<uint8_t>& head) {
  if (head.size() < ckpt::kHeaderBytes) return;
  const size_t payload = head.size() - ckpt::kHeaderBytes;
  put_le(head, 6, ckpt::crc32(head.data() + ckpt::kHeaderBytes, payload), 4);
  put_le(head, 10, payload, 8);
}

/// Re-seals journal record [at, end) and points the head at its new CRC.
void reseal_record(std::vector<uint8_t>& journal, size_t at, size_t end,
                   std::vector<uint8_t>& head) {
  if (end > journal.size() || end < at + 4) return;
  const uint32_t crc = ckpt::crc32(journal.data() + at, end - 4 - at);
  put_le(journal, end - 4, crc, 4);
  if (head.size() >= ckpt::kHeaderBytes + 4) {
    put_le(head, head.size() - 4, crc, 4);
    reseal_head(head);
  }
}

/// Truncates `bytes` or flips 1-4 of them, within [lo, hi).
void mutate(std::vector<uint8_t>& bytes, size_t lo, size_t hi, Rng& rng) {
  if (hi <= lo) return;
  const auto pick = [&] {
    return lo + static_cast<size_t>(
                    rng.uniform_int(0, static_cast<int>(hi - lo) - 1));
  };
  if (rng.bernoulli(0.4)) {
    bytes.resize(pick());
    return;
  }
  const int flips = rng.uniform_int(1, 4);
  for (int f = 0; f < flips; ++f) {
    bytes[pick()] = static_cast<uint8_t>(rng.uniform_int(0, 255));
  }
}

/// Captures the async state at kBoundary.
struct CaptureAsync final : RoundHook {
  const ckpt::Checkpointable* strategy = nullptr;
  ckpt::Snapshot snap;
  bool captured = false;
  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    if (round + 1 != kBoundary) return;
    snap = ckpt::snapshot_of(engine, kBoundary, partial, "async-fedbuff",
                             *strategy, async_state, {{"origin", "fuzz"}});
    captured = true;
  }
};

AsyncConfig fuzz_async_config() {
  AsyncConfig cfg;
  cfg.buffer_size = 3;
  cfg.concurrency = 12;
  return cfg;
}

/// One to three random edits of the version table (or of the versions the
/// events name).
void mutate_versions(AsyncRunState& st, Rng& rng) {
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
  };
  const int edits = rng.uniform_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    std::vector<AsyncModelVersion>& v = st.versions;
    const int op = rng.uniform_int(0, 6);
    if (v.empty() && op != 6) continue;
    switch (op) {
      case 0:
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size())));
        break;
      case 1: {
        const AsyncModelVersion copy = v[pick(v.size())];
        v.insert(v.begin() + static_cast<std::ptrdiff_t>(pick(v.size() + 1)),
                 copy);
        break;
      }
      case 2:
        std::swap(v[pick(v.size())], v[pick(v.size())]);
        break;
      case 3:
        v[pick(v.size())].version = rng.uniform_int(0, st.version + 2);
        break;
      case 4: {
        std::vector<float>& p = v[pick(v.size())].params;
        p.resize(static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(p.size()) + 1)));
        break;
      }
      case 5: {
        std::vector<float>& s = v[pick(v.size())].stats;
        s.resize(static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(s.size()) + 1)));
        break;
      }
      default:
        if (!st.events.empty()) {
          st.events[pick(st.events.size())].version =
              rng.uniform_int(0, st.version + 1);
        }
        break;
    }
  }
}

bool same_rows(const ResidualRows& a, const ResidualRows& b) {
  if (a.dim != b.dim || a.rows.size() != b.rows.size()) return false;
  for (const auto& [client, row] : a.rows) {
    const auto it = b.rows.find(client);
    if (it == b.rows.end() || *it->second.h != *row.h ||
        it->second.nu != row.nu) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  namespace fs = std::filesystem;
  const size_t iters = env_or("GLUEFL_FUZZ_ITERS", 300);
  const uint64_t seed0 = env_or("GLUEFL_FUZZ_SEED", 20260731);
  const fs::path dir = "fuzz_ckpt_roundtrip.d";
  fs::remove_all(dir);
  fs::create_directories(dir / "live");
  fs::create_directories(dir / "mutant");

  // One real checkpoint from a live run; the engine is reused as the
  // restore target for every surviving mutant.
  SimEngine engine = make_engine();
  auto source = make_strategy();
  ckpt::CkptOptions opts;
  opts.every = 1;
  opts.dir = (dir / "live").string();
  ckpt::CheckpointHook saver(opts, {{"origin", "fuzz"}}, "gluefl", *source);
  SaveAndCapture capture;
  capture.saver = &saver;
  capture.strategy = source.get();
  engine.run(*source, &capture);
  if (!capture.captured || !capture.snap.residuals) {
    std::fprintf(stderr, "failed to capture the seed snapshot\n");
    return 1;
  }
  const std::string head_path = ckpt::checkpoint_path(opts.dir, kBoundary);
  const std::vector<uint8_t> head = slurp(head_path);
  const std::vector<uint8_t> journal = slurp(ckpt::journal_path(opts.dir));

  // Property 1: clean round trip + restore.
  size_t chain_at = 0;   // the head's newest record ...
  size_t chain_end = 0;  // ... and its end
  try {
    const ckpt::Snapshot back = ckpt::load_checkpoint(head_path);
    if (back.next_round != kBoundary || back.params != capture.snap.params ||
        back.sync_state != capture.snap.sync_state ||
        back.strategy_state != capture.snap.strategy_state ||
        !back.residuals ||
        !same_rows(*back.residuals, *capture.snap.residuals)) {
      std::fprintf(stderr, "checkpoint round trip diverged\n");
      return 1;
    }
    chain_at = static_cast<size_t>(back.journal_at);
    const bool delta = journal[chain_at + 4] == ckpt::kJournalDelta;
    const size_t len_at = chain_at + (delta ? 17 : 9);
    ckpt::Reader r(journal.data() + len_at, 8);
    chain_end = len_at + 8 + static_cast<size_t>(r.u64()) + 4;
    auto target = make_strategy();
    ckpt::restore_sync_run(back, engine, *target);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clean round trip threw: %s\n", e.what());
    return 1;
  }

  // Property 2: mutation robustness, of the head or of the journal.
  const std::string mutant_head = (dir / "mutant" / "ckpt.gfc").string();
  const std::string mutant_journal =
      ckpt::journal_path((dir / "mutant").string());
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(seed0 + i);
    std::vector<uint8_t> bad_head = head;
    std::vector<uint8_t> bad_journal = journal;
    const bool in_journal = rng.bernoulli(0.5);
    const bool resealed = rng.bernoulli(0.5);
    if (!in_journal) {
      mutate(bad_head, 0, bad_head.size(), rng);
      if (resealed) reseal_head(bad_head);
    } else if (resealed) {
      // Mutate the head's newest record and re-seal it: its payload
      // parser, not its checksum, has to catch the damage.
      mutate(bad_journal, chain_at, chain_end, rng);
      reseal_record(bad_journal, chain_at, chain_end, bad_head);
    } else {
      mutate(bad_journal, 0, bad_journal.size(), rng);
    }
    spit(mutant_head, bad_head);
    spit(mutant_journal, bad_journal);

    try {
      const ckpt::Snapshot snap = ckpt::load_checkpoint(mutant_head);
      // A surviving load must also restore cleanly or fail loudly.
      auto target = make_strategy();
      ckpt::restore_sync_run(snap, engine, *target);
    } catch (const ckpt::CkptError&) {
      // Expected failure mode for malformed checkpoints.
    } catch (const CheckError&) {
      // Component restore_state may reject through the shared invariant
      // machinery (e.g. the wire mask codec); also a loud, safe failure.
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "iteration %zu (seed %llu, %s, resealed=%d) escaped as: "
                   "%s\n",
                   i, static_cast<unsigned long long>(seed0 + i),
                   in_journal ? "journal" : "head", resealed ? 1 : 0,
                   e.what());
      return 1;
    }
  }

  // Property 3: a real async head, its version table mutated.
  SimEngine async_engine = make_engine();
  AsyncFedBuffStrategy async_source{AsyncFedBuffConfig{}};
  CaptureAsync async_capture;
  async_capture.strategy = &async_source;
  AsyncSimEngine(async_engine, fuzz_async_config())
      .run(async_source, &async_capture);
  if (!async_capture.captured) {
    std::fprintf(stderr, "failed to capture the async snapshot\n");
    return 1;
  }
  const ckpt::Snapshot& async_snap = async_capture.snap;
  AsyncRunState live;
  {
    ckpt::Reader r(async_snap.async_state.data(),
                   async_snap.async_state.size());
    live.restore_state(r, async_snap.num_clients, async_snap.dim,
                       async_snap.stat_dim);
  }
  if (live.versions.size() < 2) {
    std::fprintf(stderr, "the async head holds fewer than two versions\n");
    return 1;
  }
  const std::string async_head = (dir / "mutant" / "async.gfc").string();
  size_t resumed = 0;
  for (size_t i = 0; i < iters; ++i) {
    Rng rng(seed0 + iters + i);
    AsyncRunState st = live;
    mutate_versions(st, rng);
    ckpt::Snapshot bad = async_snap;
    ckpt::Writer w;
    st.save_state(w);
    bad.async_state = w.take();
    ckpt::save_checkpoint(async_head, bad);
    try {
      const ckpt::Snapshot snap = ckpt::load_checkpoint(async_head);
      AsyncFedBuffStrategy target{AsyncFedBuffConfig{}};
      AsyncRunState restored =
          ckpt::restore_async_run(snap, async_engine, target);
      AsyncSimEngine(async_engine, fuzz_async_config())
          .resume(target, std::move(restored), ckpt::history_result(snap));
      ++resumed;
    } catch (const ckpt::CkptError&) {
      // Expected failure mode for an inconsistent table.
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "async iteration %zu (seed %llu) escaped as: %s\n", i,
                   static_cast<unsigned long long>(seed0 + iters + i),
                   e.what());
      return 1;
    }
  }
  fs::remove_all(dir);
  std::printf("ckpt fuzz smoke: %zu + %zu iterations ok (%zu async mutants "
              "resumed, %zu rejected)\n",
              iters, iters, resumed, iters - resumed);
  return 0;
}
