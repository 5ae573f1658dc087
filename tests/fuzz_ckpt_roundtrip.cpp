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
#include "fl/engine.h"
#include "net/environment.h"
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
  fs::remove_all(dir);
  std::printf("ckpt fuzz smoke: %zu iterations ok\n", iters);
  return 0;
}
