// Unified command-line front end for the GlueFL simulator.
//
// One binary, three subcommands, consolidating the driver logic that was
// previously duplicated across examples/*.cpp:
//
//   gluefl list                  enumerate strategies, dataset presets,
//                                network environments and model proxies
//   gluefl run --strategy gluefl --dataset femnist --rounds 50
//                                run one strategy on one workload; prints a
//                                per-eval report table, run totals and a
//                                machine-readable JSON summary (trajectory
//                                included); --json FILE also writes the
//                                JSON to a file
//   gluefl sweep --dataset femnist --q 0.1,0.2,0.3 --q-shr 0.08,0.16
//                                grid over GlueFL's q / q_shr / sticky
//                                parameters; prints a Table-2-style cost
//                                table at the common target accuracy
//   gluefl resume CKPT           continue a crashed / interrupted run from
//                                a checkpoint written by
//                                `run --checkpoint-every=N
//                                --checkpoint-dir=D`; the final report and
//                                JSON summary are byte-identical to the
//                                uninterrupted run's
//
// Everything below is a library (linked into both the `gluefl` binary and
// tests/test_cli.cpp) so argument parsing and command behaviour are unit
// testable without spawning processes.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace gluefl::cli {

/// Parsed command line: a subcommand plus `--key value` flags.
struct ParsedArgs {
  std::string command;                        // "list", "run", "sweep", ...
  std::map<std::string, std::string> flags;   // key without the leading "--"
  std::vector<std::string> positionals;       // non-flag tokens, in order
  std::string error;                          // non-empty = parse failure
};

/// Parses `args` (argv without the program name). Accepts `--key value` and
/// `--key=value`. A flag with a missing value sets `error`; positional
/// tokens are collected for the command to consume (`resume` takes the
/// checkpoint path this way — every other command rejects them).
ParsedArgs parse_args(const std::vector<std::string>& args);

/// Options shared by `run` and `sweep`, resolved from flags + defaults.
struct RunOptions {
  std::string dataset = "femnist";
  std::string model = "shufflenet";
  std::string env = "edge";
  std::string exec = "sync";  // round execution model: sync | async
  int rounds = 50;
  double scale = 0.25;     // population scale of the dataset preset
  // Simulated client population; 0 = the dataset preset's client count.
  // With --population-mode=virtual, per-client state is derived on demand
  // so populations of 10^6+ stay O(active-cohort) in memory.
  long population = 0;
  std::string population_mode = "dense";  // dense | virtual
  double overcommit = 1.3;
  int eval_every = 5;
  uint64_t seed = 42;
  int threads = 0;         // training threads; 0 = hardware concurrency
  std::string agg = "dense";      // update-reduction backend: dense | sharded
  int agg_shards = 0;             // sharded backend shard count; 0 = auto
  std::string topology = "flat";  // "flat" or "hier:<E>"
  int num_edges = 0;              // parsed from topology; 0 = flat
  std::string wire = "encoded";   // byte accounting: encoded (only mode)
  // Fleet-shaping scenario (src/scenario/, DESIGN.md §11): "" = off;
  // otherwise a bundled scenario name or a JSON spec file path, loaded and
  // validated eagerly (also under --dry-run) into `scenario_spec`.
  std::string scenario;
  scenario::ScenarioSpec scenario_spec;
  std::string json_path;   // empty = stdout only
  // Telemetry sinks (src/telemetry/, DESIGN.md §10); both empty = counters
  // only (no trace buffer, no JSONL stream).
  std::string trace_path;    // Chrome trace-event JSON; empty = off
  std::string metrics_path;  // per-round cumulative JSONL; empty = off
  // Flight recorder (src/telemetry/events.h, DESIGN.md §12): binary
  // per-client event log; empty = recorder off. run/resume only — sweep
  // rejects it (interleaved arms would corrupt the attribution).
  std::string events_path;
  // Checkpoint / fault-injection knobs (src/ckpt/, DESIGN.md §8).
  int checkpoint_every = 0;     // save every N rounds; 0 = off
  std::string checkpoint_dir;   // must exist and be writable
  int crash_at_round = 0;       // simulate a crash at boundary K; 0 = off
};

/// Entry point used by main(): dispatches to the subcommand, writing
/// human-readable output to `out` and diagnostics to `err`. Returns the
/// process exit code (0 ok, 2 usage error, 1 runtime failure).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

// ---- individual subcommands (exposed for tests) ----
int cmd_list(const ParsedArgs& args, std::ostream& out, std::ostream& err);
int cmd_run(const ParsedArgs& args, std::ostream& out, std::ostream& err);
int cmd_sweep(const ParsedArgs& args, std::ostream& out, std::ostream& err);
int cmd_resume(const ParsedArgs& args, std::ostream& out, std::ostream& err);
int cmd_profile(const ParsedArgs& args, std::ostream& out, std::ostream& err);
int cmd_report(const ParsedArgs& args, std::ostream& out, std::ostream& err);

/// Known registry names (kept in sync with strategies/factory and
/// data/presets; `gluefl list` prints these).
const std::vector<std::string>& strategy_names();
const std::vector<std::string>& async_strategy_names();
const std::vector<std::string>& dataset_names();
const std::vector<std::string>& env_names();
const std::vector<std::string>& model_names();

}  // namespace gluefl::cli
