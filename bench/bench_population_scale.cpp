// Population scaling: per-round cost and peak RSS from 10k to 1M clients.
// The client directory derives client state on demand, so memory must
// stay O(active cohort) — flat per-round cost and flat RSS as the
// population grows 100x. The 10k arm is at most kDenseScanThreshold: its
// samplers scan every client each round, and its directory caches the
// whole population (DESIGN.md §8a). The larger arms sample by rejection
// over the id space with the default 4,096-entry caches.
//
// Each arm runs in a forked child so wait4()'s ru_maxrss measures that
// arm's true peak RSS in isolation (a shared process would report the
// high-water mark of the largest arm for every later one). The child
// reports its per-round wall time over a pipe.
//
// Environment knobs:
//   GLUEFL_POP_MAX=n        largest population arm           [1000000]
//   GLUEFL_ROUNDS=n         rounds per arm                   [2]
//   GLUEFL_BENCH_JSON=FILE  machine-readable summary (perf trajectory)
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fl/engine.h"
#include "fl/sim_config.h"
#include "net/environment.h"
#include "strategies/factory.h"

using namespace gluefl;

namespace {

struct ArmResult {
  int64_t population = 0;
  double per_round_ms = 0.0;
  double peak_rss_mb = 0.0;
};

/// Runs one population's arm in a forked child; the parent collects
/// ru_maxrss from wait4 and the per-round milliseconds from a pipe.
ArmResult run_arm(int64_t population, int rounds) {
  int fds[2];
  GLUEFL_CHECK_MSG(pipe(fds) == 0, "pipe() failed");
  const pid_t pid = fork();
  GLUEFL_CHECK_MSG(pid >= 0, "fork() failed");

  if (pid == 0) {
    close(fds[0]);
    const SyntheticSpec spec = femnist_spec(0.25);
    const int k = preset_clients_per_round(spec);
    TrainConfig train;
    train.lr0 = 0.05;
    RunConfig run;
    run.rounds = rounds;
    run.clients_per_round = k;
    run.topk_accuracy = preset_topk(spec);
    run.eval_every = rounds;  // this bench times rounds, not evals
    run.use_availability = true;
    run.population = population;
    SimEngine engine(make_synthetic_dataset(spec),
                     make_proxy("shufflenet", spec.feature_dim,
                                spec.num_classes),
                     make_edge_env(), train, run);
    auto strategy = make_strategy("gluefl", k, "shufflenet");
    const auto t0 = std::chrono::steady_clock::now();
    engine.run(*strategy);
    const double total_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::ostringstream line;
    line << (total_ms / rounds) << "\n";
    const std::string s = line.str();
    const ssize_t wrote = write(fds[1], s.data(), s.size());
    close(fds[1]);
    _exit(wrote == static_cast<ssize_t>(s.size()) ? 0 : 1);
  }

  close(fds[1]);
  std::string payload;
  char buf[64];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    payload.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  GLUEFL_CHECK_MSG(wait4(pid, &status, 0, &ru) == pid, "wait4() failed");
  GLUEFL_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                   "bench arm child failed");
  ArmResult r;
  r.population = population;
  r.per_round_ms = std::strtod(payload.c_str(), nullptr);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
  return r;
}

}  // namespace

int main() {
  const int64_t pop_max = static_cast<int64_t>(
      bench::env_positive("GLUEFL_POP_MAX", 1000000, 100000000));
  const int rounds =
      static_cast<int>(bench::env_positive("GLUEFL_ROUNDS", 2, 1000000));

  std::vector<int64_t> ladder;
  for (const int64_t p : {int64_t{10000}, int64_t{100000}, int64_t{1000000}}) {
    if (p <= pop_max) ladder.push_back(p);
  }
  if (ladder.empty()) ladder.push_back(pop_max);

  bench::print_header(
      "Population scaling: per-round cost and peak RSS, 10k -> 1M clients",
      "O(active-cohort) memory over large populations",
      "GlueFL on femnist shards, " + std::to_string(rounds) +
          " rounds per arm; each arm is a forked child so ru_maxrss is "
          "per-arm");

  std::vector<ArmResult> arms;
  for (const int64_t pop : ladder) arms.push_back(run_arm(pop, rounds));

  TablePrinter t;
  t.set_headers({"population", "per-round (ms)", "peak RSS (MB)"});
  for (const ArmResult& a : arms) {
    t.add_row({std::to_string(a.population), fmt_double(a.per_round_ms, 1),
               fmt_double(a.peak_rss_mb, 1)});
  }
  std::cout << t.to_string();
  std::cout << "\nShape: RSS and per-round cost stay flat as the population"
               " grows 100x.\n";

  if (const char* json_path = std::getenv("GLUEFL_BENCH_JSON")) {
    std::ostringstream json;
    json << "{\"schema\": \"gluefl.bench_population_scale.v2\", \"rounds\": "
         << rounds << ", \"arms\": [";
    for (size_t i = 0; i < arms.size(); ++i) {
      if (i > 0) json << ", ";
      json << "{\"population\": " << arms[i].population
           << ", \"per_round_ms\": " << arms[i].per_round_ms
           << ", \"peak_rss_mb\": " << arms[i].peak_rss_mb << "}";
    }
    json << "]}";
    std::ofstream f(json_path);
    GLUEFL_CHECK_MSG(f.good(), std::string("cannot open GLUEFL_BENCH_JSON "
                                           "file '") + json_path + "'");
    f << json.str() << "\n";
    std::cout << "\nJSON summary written to " << json_path << "\n";
  }
  return 0;
}
