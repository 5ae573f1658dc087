// Figure 2: why masking alone fails under client sampling.
// (a) STC's downstream vs upstream volume per round (q = 10% and 20%) on
//     FEMNIST with N = 2800, K = 30 — downstream stays near the full model
//     because re-sampled clients are stale.
// (b) the fraction of the model a client must download after skipping r
//     rounds (the changed-position union growth).
#include <iostream>

#include "bench_common.h"
#include "compress/encoding.h"
#include "strategies/stc.h"

using namespace gluefl;

int main() {
  const int rounds = bench::rounds_for(60);
  bench::print_header("STC bandwidth under client sampling",
                      "Figure 2a/2b",
                      "FEMNIST-S (scaled population), K=30, OC=1.3, edge network");

  const bench::Workload w = bench::make_workload("femnist", "shufflenet");

  for (double q : {0.20, 0.10}) {
    SimEngine engine = bench::make_engine(w, make_edge_env(), rounds);
    StcStrategy stc(StcConfig{.q = q, .error_feedback = true});
    const RunResult res = engine.run(stc);

    std::cout << "\n-- STC q = " << fmt_percent(q)
              << " -- per-round volume (MB, all invited clients)\n";
    TablePrinter t;
    t.set_headers({"round", "down (MB)", "up (MB)", "down/client vs model"});
    const double model_mb =
        static_cast<double>(dense_bytes(engine.dim())) * engine.wire_scale() /
        1e6;
    for (const auto& r : res.rounds) {
      if (r.round % std::max(1, rounds / 9) != 0) continue;
      const double down_mb = r.down_bytes / 1e6;
      const double per_client_frac =
          down_mb / std::max(1, r.num_invited) / model_mb;
      t.add_row({std::to_string(r.round), fmt_double(down_mb, 1),
                 fmt_double(r.up_bytes / 1e6, 1),
                 fmt_percent(per_client_frac)});
    }
    std::cout << t.to_string();

    // Fig. 2b: what a client re-sampled after skipping `skip` rounds must
    // download, averaged over re-sample times in the second half of the run.
    std::cout << "\n   re-download fraction after skipping r rounds (q = "
              << fmt_percent(q) << "):\n";
    TablePrinter u;
    u.set_headers({"skipped rounds", "model fraction to download"});
    for (int skip : {1, 5, 10, 15, 20, 30, 45}) {
      if (skip >= rounds / 2) break;
      double acc = 0.0;
      int count = 0;
      for (int t_end = rounds / 2; t_end + 1 <= rounds; t_end += 5) {
        acc += static_cast<double>(
                   engine.sync().changed_union(t_end - skip, t_end)) /
               static_cast<double>(engine.dim());
        ++count;
      }
      u.add_row({std::to_string(skip), fmt_percent(acc / count)});
    }
    std::cout << u.to_string();
  }

  std::cout << "\nPaper shape: upstream shrinks with q, but a re-sampled\n"
               "client still downloads ~70% of the model on average, and the\n"
               "re-download fraction grows quickly with skipped rounds.\n";
  return 0;
}
