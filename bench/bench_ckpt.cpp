// Checkpoint commit and resume latency at OpenImage scale, on the path a
// durable run takes. Under --checkpoint-every=1 every round pays one
// commit: a residual-journal record (a base of every error-feedback row,
// or a delta of the rows stored since the previous commit) plus a small
// head file. Resume pays the chain load plus the restore.
//
// The measured state is REAL: a GlueFL campaign on the OpenImage preset
// runs a few rounds, then the real CheckpointHook commits a base at
// boundary R and a delta at R+1 into a scratch directory. The head at R+1
// is loaded back (delta, then base) and restored into a fresh strategy.
// The loaded state must equal the live boundary state bit for bit before
// any timing is reported.
//
// Environment knobs:
//   GLUEFL_CKPT_SCALE_PCT=n  population scale in percent      [100]
//   GLUEFL_ROUNDS=n          rounds before the base commit R  [3]
//   GLUEFL_BENCH_JSON=FILE   machine-readable summary (perf trajectory)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/rng.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "strategies/factory.h"

using namespace gluefl;
namespace fs = std::filesystem;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

uint64_t size_or_zero(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// One timed commit of the real hook.
struct Commit {
  int boundary = 0;
  uint8_t kind = 0;
  double ms = 0.0;
  uint64_t journal_bytes = 0;
  uint64_t head_bytes = 0;
};

/// Forwards boundaries >= `first` to the real CheckpointHook (so its first
/// commit, a base, lands at `first`), timing each commit, and keeps the
/// live snapshot of boundary `last` for the round-trip check.
struct TimedCommits final : RoundHook {
  ckpt::CheckpointHook* hook = nullptr;
  const ckpt::Checkpointable* strategy = nullptr;
  std::string dir;
  int first = 0;
  int last = 0;
  std::vector<Commit> commits;
  ckpt::Snapshot live;

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    const int boundary = round + 1;
    if (boundary < first || boundary > last) return;
    const std::string journal = ckpt::journal_path(dir);
    Commit c;
    c.boundary = boundary;
    const uint64_t before = size_or_zero(journal);
    const auto t0 = std::chrono::steady_clock::now();
    hook->on_round_end(engine, round, partial, async_state);
    c.ms = ms_since(t0);
    c.journal_bytes = size_or_zero(journal) - before;
    c.head_bytes = size_or_zero(ckpt::checkpoint_path(dir, boundary));
    std::ifstream f(journal, std::ios::binary);
    f.seekg(static_cast<std::streamoff>(before + 4));
    c.kind = static_cast<uint8_t>(f.get());
    commits.push_back(c);
    if (boundary == last) {
      live = ckpt::snapshot_of(engine, boundary, partial, "gluefl", *strategy,
                               async_state, {});
    }
  }
};

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
  const size_t scale_pct =
      bench::env_positive("GLUEFL_CKPT_SCALE_PCT", 100, 100);
  const double scale = static_cast<double>(scale_pct) / 100.0;
  const int rounds =
      static_cast<int>(bench::env_positive("GLUEFL_ROUNDS", 3, 1000));

  const SyntheticSpec spec = openimage_spec(scale);
  const int k = preset_clients_per_round(spec);
  const int topk = preset_topk(spec);

  bench::print_header(
      "Checkpoint commit and resume latency",
      "the durable round's commit: a journal base or delta plus a head",
      "GlueFL on openimage (scale " + std::to_string(scale_pct) + "%, N=" +
          std::to_string(spec.num_clients) + ", K=" + std::to_string(k) +
          "), base after " + std::to_string(rounds) +
          " rounds, delta one round later, single core");

  TrainConfig train;
  train.lr0 = 0.05;
  RunConfig run;
  run.rounds = rounds + 2;  // the hook never saves the final boundary
  run.clients_per_round = k;
  run.topk_accuracy = topk;
  run.eval_every = run.rounds;  // one eval at round 0; this bench times IO
  run.use_availability = true;
  SimEngine engine(make_synthetic_dataset(spec),
                   make_proxy("shufflenet", spec.feature_dim,
                              spec.num_classes),
                   make_edge_env(), train, run);

  const std::string dir = "bench_ckpt.d";
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto strategy = make_strategy("gluefl", k, "shufflenet");
  ckpt::CkptOptions opts;
  opts.every = 1;
  opts.dir = dir;
  ckpt::CheckpointHook hook(opts, {{"origin", "bench"}}, strategy->name(),
                            *strategy);
  TimedCommits timed;
  timed.hook = &hook;
  timed.strategy = strategy.get();
  timed.dir = dir;
  timed.first = rounds;
  timed.last = rounds + 1;
  engine.run(*strategy, &timed);
  GLUEFL_CHECK_MSG(timed.commits.size() == 2,
                   "bench expected two commits (a base, then a delta)");
  const Commit& base = timed.commits[0];
  const Commit& delta = timed.commits[1];
  GLUEFL_CHECK_MSG(base.kind == ckpt::kJournalBase &&
                       delta.kind == ckpt::kJournalDelta,
                   "bench expected a base commit followed by a delta");

  // Chain load (head, then delta and base newest-first), 3 reps, min.
  const std::string head = ckpt::checkpoint_path(dir, delta.boundary);
  ckpt::Snapshot loaded;
  double load_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    loaded = ckpt::load_checkpoint(head);
    load_ms = std::min(load_ms, ms_since(t0));
  }
  GLUEFL_CHECK_MSG(loaded.params == timed.live.params &&
                       loaded.sync_state == timed.live.sync_state &&
                       loaded.strategy_state == timed.live.strategy_state &&
                       loaded.residuals && timed.live.residuals &&
                       same_rows(*loaded.residuals, *timed.live.residuals),
                   "checkpoint round trip diverged");

  // Restore (fresh strategy init + state and residual replay), 3 reps, min.
  double restore_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    auto target = make_strategy("gluefl", k, "shufflenet");
    const auto t0 = std::chrono::steady_clock::now();
    ckpt::restore_sync_run(loaded, engine, *target);
    restore_ms = std::min(restore_ms, ms_since(t0));
  }
  const uint64_t chain_bytes = base.journal_bytes + delta.journal_bytes;
  fs::remove_all(dir);

  const auto bytes = [](uint64_t b) {
    return fmt_bytes(static_cast<double>(b));
  };
  TablePrinter t;
  t.set_headers({"phase", "latency (ms)", "bytes"});
  t.add_row({"base commit (boundary " + std::to_string(base.boundary) + ")",
             fmt_double(base.ms, 2),
             bytes(base.journal_bytes + base.head_bytes)});
  t.add_row({"delta commit (boundary " + std::to_string(delta.boundary) + ")",
             fmt_double(delta.ms, 2),
             bytes(delta.journal_bytes + delta.head_bytes)});
  t.add_row({"chain load", fmt_double(load_ms, 2),
             bytes(delta.head_bytes + chain_bytes)});
  t.add_row({"restore", fmt_double(restore_ms, 2), "-"});
  std::cout << t.to_string();
  std::cout << "\ncommit bytes: base record " << bytes(base.journal_bytes)
            << ", delta record " << bytes(delta.journal_bytes) << ", head "
            << bytes(delta.head_bytes) << " ("
            << loaded.residuals->rows.size() << " live residual rows)"
            << "\nShape: a delta carries only the rows stored since the"
               " previous commit, so a\ndurable round writes about one"
               " round's participants, not every row.\n";

  if (const char* json_path = std::getenv("GLUEFL_BENCH_JSON")) {
    std::ostringstream json;
    json << "{\"schema\": \"gluefl.bench_ckpt.v2\", \"scale\": " << scale
         << ", \"clients\": " << spec.num_clients << ", \"rounds\": " << rounds
         << ", \"live_rows\": " << loaded.residuals->rows.size()
         << ", \"base_ms\": " << base.ms
         << ", \"base_record_bytes\": " << base.journal_bytes
         << ", \"delta_ms\": " << delta.ms
         << ", \"delta_record_bytes\": " << delta.journal_bytes
         << ", \"head_bytes\": " << delta.head_bytes
         << ", \"load_ms\": " << load_ms
         << ", \"load_bytes\": " << delta.head_bytes + chain_bytes
         << ", \"restore_ms\": " << restore_ms << "}";
    std::ofstream f(json_path);
    GLUEFL_CHECK_MSG(f.good(), std::string("cannot open GLUEFL_BENCH_JSON "
                                           "file '") + json_path + "'");
    f << json.str() << "\n";
    std::cout << "\nJSON summary written to " << json_path << "\n";
  }
  return 0;
}
