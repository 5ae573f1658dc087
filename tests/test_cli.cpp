// CLI layer: argument parsing, `list` output, and small end-to-end `run` /
// `sweep` smokes through run_cli (no process spawning).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "ckpt/checkpoint.h"

namespace gluefl::cli {
namespace {

std::vector<std::string> argv(std::initializer_list<const char*> parts) {
  return std::vector<std::string>(parts.begin(), parts.end());
}

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(std::initializer_list<const char*> parts) {
  std::ostringstream out, err;
  const int code = run_cli(argv(parts), out, err);
  return {code, out.str(), err.str()};
}

// ---------------------------------------------------------------- parsing

TEST(CliParse, CommandAndFlagStyles) {
  const ParsedArgs p = parse_args(
      argv({"run", "--strategy", "gluefl", "--rounds=5", "--scale", "0.1"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.command, "run");
  ASSERT_EQ(p.flags.size(), 3u);
  EXPECT_EQ(p.flags.at("strategy"), "gluefl");
  EXPECT_EQ(p.flags.at("rounds"), "5");
  EXPECT_EQ(p.flags.at("scale"), "0.1");
}

TEST(CliParse, EmptyArgsIsAnError) {
  EXPECT_FALSE(parse_args({}).error.empty());
}

TEST(CliParse, MissingValueIsAnError) {
  const ParsedArgs p = parse_args(argv({"run", "--rounds"}));
  EXPECT_NE(p.error.find("--rounds"), std::string::npos);
}

TEST(CliParse, PositionalTokenIsCollectedForTheCommand) {
  // parse_args collects positionals (resume consumes its checkpoint path
  // this way); every other command rejects them at dispatch.
  const ParsedArgs p = parse_args(argv({"run", "gluefl"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  ASSERT_EQ(p.positionals.size(), 1u);
  EXPECT_EQ(p.positionals[0], "gluefl");
}

TEST(CliParse, PositionalRejectedByRunSweepList) {
  for (const char* cmd : {"run", "sweep", "list"}) {
    const CliResult r = invoke({cmd, "stray"});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("stray"), std::string::npos) << cmd;
  }
}

TEST(CliParse, DuplicateFlagIsAnError) {
  const ParsedArgs p =
      parse_args(argv({"run", "--rounds", "5", "--rounds", "6"}));
  EXPECT_NE(p.error.find("duplicate"), std::string::npos);
}

TEST(CliParse, EqualsValueMayContainEquals) {
  const ParsedArgs p = parse_args(argv({"run", "--json=a=b.json"}));
  EXPECT_TRUE(p.error.empty()) << p.error;
  EXPECT_EQ(p.flags.at("json"), "a=b.json");
}

// ---------------------------------------------------------------- list

TEST(CliList, EnumeratesAllRegistries) {
  const CliResult r = invoke({"list"});
  EXPECT_EQ(r.code, 0) << r.err;
  for (const auto& name : strategy_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : dataset_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : env_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  for (const auto& name : model_names()) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST(CliList, RejectsUnknownFlags) {
  const CliResult r = invoke({"list", "--bogus", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--bogus"), std::string::npos);
}

// ---------------------------------------------------------------- errors

TEST(CliErrors, UnknownCommand) {
  const CliResult r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("frobnicate"), std::string::npos);
}

TEST(CliErrors, UnknownStrategy) {
  const CliResult r = invoke({"run", "--strategy", "zeroth-order"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("zeroth-order"), std::string::npos);
}

TEST(CliErrors, MalformedNumber) {
  const CliResult r = invoke({"run", "--rounds", "abc"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("abc"), std::string::npos);
}

TEST(CliErrors, IntegerOverflowIsRejectedNotTruncated) {
  // 2^32 + 2 would truncate to 2 through a silent cast to int.
  const CliResult r = invoke({"run", "--rounds", "4294967298"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("rounds"), std::string::npos);
}

TEST(CliErrors, OutOfRangeScale) {
  const CliResult r = invoke({"run", "--scale", "1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("scale"), std::string::npos);
}

TEST(CliErrors, HelpExitsCleanly) {
  const CliResult r = invoke({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("usage"), std::string::npos);
}

// ---------------------------------------------------------------- run

TEST(CliRun, TwoRoundGlueFlSmokeEmitsTableAndJson) {
  const CliResult r =
      invoke({"run", "--strategy", "gluefl", "--dataset", "femnist",
              "--rounds", "2", "--scale", "0.02", "--eval-every", "1"});
  EXPECT_EQ(r.code, 0) << r.err;
  // Human-readable report table.
  EXPECT_NE(r.out.find("round"), std::string::npos);
  EXPECT_NE(r.out.find("best-acc"), std::string::npos);
  // Machine-readable summary with the trajectory.
  EXPECT_NE(r.out.find("JSON summary:"), std::string::npos);
  EXPECT_NE(r.out.find("\"schema\": \"gluefl.run.v1\""), std::string::npos);
  EXPECT_NE(r.out.find("\"strategy\": \"gluefl\""), std::string::npos);
  EXPECT_NE(r.out.find("\"trajectory\": [{"), std::string::npos);
}

TEST(CliRun, JsonFileFlagWritesTheSummary) {
  const std::string path = "test_cli_run_summary.json";
  const CliResult r =
      invoke({"run", "--strategy", "fedavg", "--dataset", "femnist",
              "--rounds", "1", "--scale", "0.02", "--json", path.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream content;
  content << f.rdbuf();
  EXPECT_NE(content.str().find("\"schema\": \"gluefl.run.v1\""),
            std::string::npos);
  EXPECT_NE(content.str().find("\"strategy\": \"fedavg\""), std::string::npos);
  f.close();
  std::remove(path.c_str());
}

// ------------------------------------------------------ agg / topology

TEST(CliAgg, RetiredFlagsAreUnknown) {
  // There is one update reduction; its old selector flags are gone and
  // fail like any other unknown flag: one line, exit 2.
  for (const char* cmd : {"run", "sweep"}) {
    for (const auto& flag : {std::pair{"--agg", "dense"},
                             std::pair{"--agg", "sharded"},
                             std::pair{"--agg-shards", "4"}}) {
      const CliResult r = invoke({cmd, "--rounds", "1", "--scale", "0.02",
                                  flag.first, flag.second});
      EXPECT_EQ(r.code, 2) << cmd << " " << flag.first;
      EXPECT_EQ(r.err, std::string("error: unknown flag ") + flag.first +
                           "\n");
    }
  }
}

TEST(CliTopology, FlatRunEchoesTopology) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"topology\": \"flat\""), std::string::npos);
  EXPECT_EQ(r.out.find("topology: "), std::string::npos);
}

TEST(CliTopology, HierarchicalRunEchoesTopology) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02", "--topology", "hier:2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"topology\": \"hier:2\""), std::string::npos);
  EXPECT_NE(r.out.find("topology: hier:2\n"), std::string::npos);
}

TEST(CliTopology, ZeroEdgesRejected) {
  const CliResult r = invoke({"run", "--topology", "hier:0", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("hier:<E>"), std::string::npos);
}

TEST(CliTopology, MalformedSpecRejected) {
  for (const char* spec : {"hier", "hier:", "hier:abc", "ring:3"}) {
    const CliResult r = invoke({"run", "--topology", spec, "--rounds", "1"});
    EXPECT_EQ(r.code, 2) << spec;
  }
}

TEST(CliTopology, MoreEdgesThanClientsRejected) {
  // femnist at scale 0.02 has well under 999999 clients.
  const CliResult r = invoke({"run", "--topology", "hier:999999", "--rounds",
                              "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("more edges than the population"), std::string::npos);
}

TEST(CliTopology, SweepAcceptsTopology) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "1", "--scale",
              "0.02", "--q", "0.2", "--topology", "hier:2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"topology\": \"hier:2\""), std::string::npos);
}

// ---------------------------------------------------------------- wire

TEST(CliWire, DefaultsToEncodedAndEchoesInJson) {
  const CliResult r = invoke({"run", "--rounds", "1", "--eval-every", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"wire\": \"encoded\""), std::string::npos);
  // Measured per-round byte fields ride the trajectory entries.
  EXPECT_NE(r.out.find("\"round_up_bytes\""), std::string::npos);
  EXPECT_NE(r.out.find("\"cum_up_gb\""), std::string::npos);
}

TEST(CliWire, AnalyticModeIsRetired) {
  // The analytic accounting mode is gone: run and sweep reject it as a
  // usage error with one line, before any work starts.
  const CliResult run = invoke(
      {"run", "--rounds", "1", "--scale", "0.02", "--wire", "analytic"});
  const CliResult sweep =
      invoke({"sweep", "--rounds", "1", "--scale", "0.02", "--q", "0.2",
              "--wire", "analytic"});
  for (const CliResult& r : {run, sweep}) {
    EXPECT_EQ(r.code, 2) << r.err;
    EXPECT_NE(r.err.find("unknown wire mode 'analytic'"), std::string::npos)
        << r.err;
    EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
    EXPECT_EQ(r.out.find("JSON summary:"), std::string::npos) << r.out;
  }
}

TEST(CliWire, UnknownModeRejected) {
  const CliResult r = invoke({"run", "--wire", "telepathy", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("wire mode"), std::string::npos);
}

TEST(CliWire, SweepEchoesWireMode) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "1", "--scale",
              "0.02", "--q", "0.2", "--wire", "encoded"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"wire\": \"encoded\""), std::string::npos);
}

// ---------------------------------------------------------------- async

TEST(CliAsync, DefaultBufferClampsToLoweredConcurrency) {
  // femnist's K is 30; with only --async-conc lowered, the buffer default
  // must clamp to N rather than erroring about an unset --async-buffer.
  const CliResult r = invoke({"run", "--exec=async", "--rounds", "1",
                              "--scale", "0.02", "--async-conc", "5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"buffer_size\": 5"), std::string::npos);
}

TEST(CliAsync, BufferLargerThanConcurrencyRejected) {
  const CliResult r =
      invoke({"run", "--exec=async", "--rounds", "1", "--scale", "0.02",
              "--async-buffer", "50", "--async-conc", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("must not exceed --async-conc"), std::string::npos);
}

TEST(CliAsync, SweepRejectsBufferArmAboveConcurrency) {
  const CliResult r =
      invoke({"sweep", "--exec=async", "--rounds", "1", "--scale", "0.02",
              "--async-buffer", "3,50", "--async-conc", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("must not exceed --async-conc"), std::string::npos);
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);  // no arm ran
}

TEST(CliAsync, RunEmitsAsyncBlockAndStalenessColumn) {
  const CliResult r =
      invoke({"run", "--exec=async", "--strategy", "async-fedbuff",
              "--dataset", "femnist", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--async-buffer", "4", "--async-conc", "8"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("staleness"), std::string::npos);
  EXPECT_NE(r.out.find("\"exec\": \"async\""), std::string::npos);
  EXPECT_NE(r.out.find("\"async\": {\"buffer_size\": 4"), std::string::npos);
  EXPECT_NE(r.out.find("\"trajectory\": [{"), std::string::npos);
}

TEST(CliAsync, DefaultStrategyUnderAsyncExecIsFedBuff) {
  const CliResult r = invoke({"run", "--exec=async", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"strategy\": \"async-fedbuff\""), std::string::npos);
}

TEST(CliAsync, SyncStrategyRejectedUnderAsyncExec) {
  const CliResult r = invoke({"run", "--exec=async", "--strategy", "gluefl",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("gluefl"), std::string::npos);
  EXPECT_NE(r.err.find("async-fedbuff"), std::string::npos);
}

TEST(CliAsync, OvercommitRejectedUnderAsyncExec) {
  const CliResult r = invoke({"run", "--exec=async", "--overcommit", "2.0",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--overcommit requires --exec=sync"),
            std::string::npos);
}

TEST(CliAsync, AsyncFlagsRequireAsyncExec) {
  const CliResult r = invoke({"run", "--async-buffer", "4", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--async-buffer requires --exec=async"),
            std::string::npos);
}

TEST(CliAsync, RejectsUnknownExecMode) {
  const CliResult r = invoke({"run", "--exec", "turbo", "--rounds", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("turbo"), std::string::npos);
}

TEST(CliAsync, RejectsBadStalenessMode) {
  const CliResult r = invoke({"run", "--exec=async", "--staleness", "linear",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("linear"), std::string::npos);
}

TEST(CliAsync, JsonIsIdenticalAcrossThreadCounts) {
  const CliResult t1 =
      invoke({"run", "--exec=async", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--threads", "1"});
  const CliResult t4 =
      invoke({"run", "--exec=async", "--rounds", "3", "--scale", "0.02",
              "--eval-every", "1", "--threads", "4"});
  ASSERT_EQ(t1.code, 0) << t1.err;
  ASSERT_EQ(t4.code, 0) << t4.err;
  EXPECT_EQ(t1.out, t4.out);
}

TEST(CliAsync, SweepGridsBufferAndAlpha) {
  const CliResult r =
      invoke({"sweep", "--exec=async", "--dataset", "femnist", "--rounds", "2",
              "--scale", "0.02", "--async-buffer", "3,6", "--staleness-alpha",
              "0.0,0.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("4 arms"), std::string::npos);
  EXPECT_NE(r.out.find("K=3 alpha=0.00"), std::string::npos);
  EXPECT_NE(r.out.find("K=6 alpha=0.50"), std::string::npos);
  EXPECT_NE(r.out.find("\"exec\": \"async\""), std::string::npos);
}

TEST(CliAsync, SweepRejectsFractionalBufferInsteadOfTruncating) {
  const CliResult r = invoke({"sweep", "--exec=async", "--async-buffer",
                              "3.7", "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--async-buffer"), std::string::npos);
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);  // no arm ran
}

TEST(CliAsync, SweepRejectsSyncGridFlagsUnderAsync) {
  const CliResult r = invoke({"sweep", "--exec=async", "--q", "0.2",
                              "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--q requires --exec=sync"), std::string::npos);
}

// ---------------------------------------------------------------- sweep

TEST(CliSweep, TwoArmGridReportsCostTable) {
  const CliResult r =
      invoke({"sweep", "--dataset", "femnist", "--rounds", "2", "--scale",
              "0.02", "--q", "0.2", "--q-shr", "0.05,0.1"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("2 arms"), std::string::npos);
  EXPECT_NE(r.out.find("q_shr=5.0%"), std::string::npos);
  EXPECT_NE(r.out.find("q_shr=10.0%"), std::string::npos);
  EXPECT_NE(r.out.find("\"schema\": \"gluefl.sweep.v1\""), std::string::npos);
  EXPECT_NE(r.out.find("target_accuracy"), std::string::npos);
}

TEST(CliSweep, ValidatesGridBeforeRunningAnyArm) {
  const CliResult r = invoke({"sweep", "--dataset", "femnist", "--rounds", "1",
                              "--scale", "0.02", "--q", "0.2,1.5"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--q"), std::string::npos);
  // The valid q=0.2 arm must not have executed first.
  EXPECT_EQ(r.out.find("best-acc"), std::string::npos);
}

TEST(CliSweep, RejectsOversizedGrid) {
  // 5 * 5 * 3 = 75 arms > 64.
  const CliResult r = invoke(
      {"sweep", "--q", "0.1,0.2,0.3,0.4,0.5", "--q-shr",
       "0.01,0.02,0.03,0.04,0.05", "--sticky-c", "6,12,18"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("75"), std::string::npos);
}

// --------------------------------------------------- checkpoint / resume

namespace fs = std::filesystem;

/// RAII scratch directory under the test working directory.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(CliCkpt, ProvenanceEmbeddedInRunJson) {
  const CliResult r = invoke({"run", "--strategy", "fedavg", "--rounds", "1",
                              "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"provenance\": {\"git_hash\": "), std::string::npos);
  EXPECT_NE(r.out.find("\"build_type\": "), std::string::npos);
}

TEST(CliCkpt, ProvenanceEmbeddedInSweepJson) {
  const CliResult r = invoke({"sweep", "--rounds", "1", "--scale", "0.02"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"provenance\": {\"git_hash\": "), std::string::npos);
}

TEST(CliCkpt, CheckpointEveryBelowOneRejected) {
  const CliResult r = invoke({"run", "--rounds", "2", "--scale", "0.02",
                              "--checkpoint-every", "0", "--checkpoint-dir",
                              "."});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint-every"), std::string::npos);
}

TEST(CliCkpt, CheckpointEveryRequiresDir) {
  const CliResult r = invoke(
      {"run", "--rounds", "2", "--scale", "0.02", "--checkpoint-every", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--checkpoint-dir"), std::string::npos);
}

TEST(CliCkpt, MissingCheckpointDirRejected) {
  const CliResult r = invoke({"run", "--rounds", "2", "--scale", "0.02",
                              "--checkpoint-every", "1", "--checkpoint-dir",
                              "no/such/dir/anywhere"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("missing or not writable"), std::string::npos);
}

TEST(CliCkpt, CrashRoundOutOfRangeRejected) {
  for (const char* bad : {"0", "7"}) {
    const CliResult r = invoke({"run", "--rounds", "6", "--scale", "0.02",
                                "--crash-at-round", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("crash-at-round"), std::string::npos) << bad;
  }
}

TEST(CliCkpt, ResumeMissingCheckpointIsACleanError) {
  const CliResult r = invoke({"resume", "no-such-checkpoint.gfc"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no-such-checkpoint.gfc"), std::string::npos);
  // One clean line, not a CHECK stack line.
  EXPECT_EQ(r.err.find("GLUEFL_CHECK"), std::string::npos);
}

TEST(CliCkpt, ResumeWithoutPathIsAUsageError) {
  const CliResult r = invoke({"resume"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint path"), std::string::npos);
}

TEST(CliCkpt, ResumeTruncatedAndCorruptAndWrongVersionRejected) {
  ScratchDir dir("cli_ckpt_bad");
  // Write a real checkpoint first.
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const fs::path good = dir.path / "ckpt-00000002.gfc";
  ASSERT_TRUE(fs::exists(good));
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();

  const auto write_variant = [&](const std::string& name,
                                 const std::vector<char>& content) {
    const fs::path p = dir.path / name;
    std::ofstream out(p, std::ios::binary);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    return p.string();
  };

  std::vector<char> truncated(bytes.begin(),
                              bytes.begin() + static_cast<long>(40));
  std::vector<char> corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x20;
  std::vector<char> wrong_version = bytes;
  wrong_version[4] = 99;  // format byte
  // The realistic case: a head written by the previous format.
  std::vector<char> previous_version = bytes;
  previous_version[4] = static_cast<char>(ckpt::kFormatVersion - 1);

  struct Case {
    std::string path;
    const char* expect;
  };
  const Case cases[] = {
      {write_variant("trunc.gfc", truncated), "truncated"},
      {write_variant("corrupt.gfc", corrupt), "CRC"},
      {write_variant("version.gfc", wrong_version), "version"},
      {write_variant("previous.gfc", previous_version), "version"},
  };
  for (const Case& c : cases) {
    const CliResult r = invoke({"resume", c.path.c_str()});
    EXPECT_EQ(r.code, 1) << c.path;
    EXPECT_NE(r.err.find(c.expect), std::string::npos) << r.err;
  }
  // A directory is not a checkpoint: one line, exit 1, no bad_alloc.
  const CliResult r = invoke({"resume", dir.str().c_str()});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.err.find("not a regular file"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
}

TEST(CliCkpt, CorruptResidualJournalIsACleanError) {
  // GlueFL's residual rows live in the directory's journal: a flipped
  // byte there fails the resume as one CkptError line, exit 1.
  ScratchDir dir("cli_ckpt_journal");
  const CliResult w =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "1", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const fs::path journal = dir.path / "residuals.gfj";
  ASSERT_TRUE(fs::exists(journal));
  std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(journal) - 9));
  f.put('\x5a');
  f.close();
  const std::string ckpt = (dir.path / "ckpt-00000003.gfc").string();
  const CliResult r = invoke({"resume", ckpt.c_str()});
  EXPECT_EQ(r.code, 1) << r.err;
  EXPECT_NE(r.err.find("CRC mismatch"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
}

std::string slurp_text(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CliCkpt, RejectedHeadLeavesOutputFilesUntouched) {
  // Resume truncates its output files only once the head has loaded and
  // its meta has resolved: a missing head, a CRC-corrupt one and one
  // whose meta `run` rejects each exit 1 and leave every existing output
  // file byte-identical.
  ScratchDir dir("cli_ckpt_keep_outputs");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string good = (dir.path / "ckpt-00000002.gfc").string();

  std::string bytes = slurp_text(good);
  bytes[bytes.size() / 2] ^= 0x20;
  const std::string corrupt = (dir.path / "corrupt.gfc").string();
  std::ofstream(corrupt, std::ios::binary) << bytes;
  ckpt::Snapshot snap = ckpt::load_checkpoint(good);
  snap.meta["eval_every"] = "0";
  const std::string tampered = (dir.path / "tampered.gfc").string();
  ckpt::save_checkpoint(tampered, snap);  // re-seals the CRC
  const std::string missing = (dir.path / "no-such.gfc").string();

  const fs::path outputs[] = {dir.path / "old.bin", dir.path / "old.jsonl",
                              dir.path / "old.trace", dir.path / "old.json"};
  const std::string kept[] = {"abcde", "xyz", "trace", "{}"};
  for (size_t i = 0; i < 4; ++i) std::ofstream(outputs[i]) << kept[i];
  const auto resume = [&](const std::string& head) {
    const std::string events = outputs[0].string();
    const std::string metrics = outputs[1].string();
    const std::string trace = outputs[2].string();
    const std::string json = outputs[3].string();
    return invoke({"resume", head.c_str(), "--events", events.c_str(),
                   "--metrics", metrics.c_str(), "--trace", trace.c_str(),
                   "--json", json.c_str()});
  };
  for (const std::string& head : {missing, corrupt, tampered}) {
    const CliResult r = resume(head);
    EXPECT_EQ(r.code, 1) << head << ": " << r.err;
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(slurp_text(outputs[i]), kept[i]) << head << " " << outputs[i];
    }
  }

  // An accepted head rewrites them, and the load is in the trace.
  const CliResult r = resume(good);
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(slurp_text(outputs[1]).rfind("{\"round\": 2,", 0), 0u);
  EXPECT_NE(slurp_text(outputs[2]).find("\"name\": \"ckpt.load\""),
            std::string::npos);
}

TEST(CliCkpt, CrashThenResumeReproducesUninterruptedJsonByteExactly) {
  ScratchDir dir("cli_ckpt_e2e");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "3"});
  EXPECT_EQ(crashed.code, 3);  // the simulated-crash exit code
  EXPECT_NE(crashed.out.find("simulated crash"), std::string::npos);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  EXPECT_NE(crashed.out.find(ckpt), std::string::npos);

  const CliResult resumed = invoke(
      {"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());  // byte-identical summary
}

TEST(CliCkpt, AsyncCrashThenResumeMatchesUninterruptedJson) {
  ScratchDir dir("cli_ckpt_async_e2e");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--exec", "async", "--rounds", "6", "--scale", "0.02",
              "--eval-every", "2", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--exec", "async", "--rounds", "6", "--scale", "0.02",
              "--eval-every", "2", "--checkpoint-every", "3",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "4"});
  EXPECT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000003.gfc").string();
  ASSERT_TRUE(fs::exists(ckpt));

  const CliResult resumed = invoke(
      {"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliCkpt, ResumeAcceptsThreadOverrideWithIdenticalJson) {
  ScratchDir dir("cli_ckpt_threads");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "stc", "--rounds", "4", "--scale", "0.02",
              "--threads", "1", "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "stc", "--rounds", "4", "--scale", "0.02",
              "--threads", "1", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str(), "--crash-at-round",
              "3"});
  EXPECT_EQ(crashed.code, 3);

  // Training is thread-count deterministic, so resuming with 4 threads
  // must still match the single-threaded original byte for byte.
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  const CliResult resumed =
      invoke({"resume", ckpt.c_str(), "--threads", "4", "--json",
              resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST(CliCkpt, TamperedMetaOutOfRangeIsACleanError) {
  // A checkpoint whose CRC has been re-sealed around a nonsense meta
  // value (eval_every=0 would divide by zero in the round loop) must die
  // as one clean CkptError line, never as UB.
  ScratchDir dir("cli_ckpt_tamper_range");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string good = (dir.path / "ckpt-00000002.gfc").string();

  ckpt::Snapshot snap = ckpt::load_checkpoint(good);
  snap.meta["eval_every"] = "0";
  const std::string bad = (dir.path / "tampered.gfc").string();
  ckpt::save_checkpoint(bad, snap);  // re-seals the CRC

  const CliResult r = invoke({"resume", bad.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("eval_every"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("out of range"), std::string::npos) << r.err;
}

TEST(CliCkpt, TamperedMetaIsOneCleanLine) {
  // A head whose meta was edited and its CRC re-sealed resolves through
  // run's own checks. Erasing any key, adding one, or giving a setting a
  // value `run` rejects must fail as one CkptError line naming the key
  // (exit 1): never resume (exit 0), never a usage error (exit 2), never
  // a GLUEFL_CHECK.
  ScratchDir dir("cli_ckpt_tamper");
  const std::string sync_dir = (dir.path / "sync").string();
  const std::string async_dir = (dir.path / "async").string();
  fs::create_directories(sync_dir);
  fs::create_directories(async_dir);
  const CliResult ws =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              sync_dir.c_str()});
  ASSERT_EQ(ws.code, 0) << ws.err;
  const CliResult wa =
      invoke({"run", "--exec", "async", "--rounds", "4", "--scale", "0.02",
              "--checkpoint-every", "2", "--checkpoint-dir",
              async_dir.c_str()});
  ASSERT_EQ(wa.code, 0) << wa.err;
  const ckpt::Snapshot heads[] = {
      ckpt::load_checkpoint(ckpt::checkpoint_path(sync_dir, 2)),
      ckpt::load_checkpoint(ckpt::checkpoint_path(async_dir, 2))};
  ASSERT_EQ(heads[0].meta.at("wire"), "encoded");

  const std::string bad = (dir.path / "tampered.gfc").string();
  const auto expect_clean = [&](const ckpt::Snapshot& snap,
                                const std::string& key,
                                const std::vector<std::string>& also,
                                const std::string& what) {
    ckpt::save_checkpoint(bad, snap);  // re-seals the CRC
    const CliResult r = invoke({"resume", bad.c_str()});
    EXPECT_EQ(r.code, 1) << what << ": " << r.err;
    EXPECT_NE(r.err.find("'" + key + "'"), std::string::npos)
        << what << ": " << r.err;
    EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << what << ": " << r.err;
    EXPECT_EQ(r.err.find("GLUEFL_CHECK"), std::string::npos)
        << what << ": " << r.err;
    for (const std::string& s : also) {
      EXPECT_NE(r.err.find(s), std::string::npos) << what << ": " << r.err;
    }
  };

  for (const ckpt::Snapshot& head : heads) {
    for (const auto& [key, value] : head.meta) {
      ckpt::Snapshot snap = head;
      snap.meta.erase(key);
      expect_clean(snap, key, {"missing"}, "erased " + key);
    }
  }

  struct Row {
    bool async;  // tamper the async head, else the sync (fedavg) one
    std::vector<std::pair<std::string, std::string>> set;
    std::string key;                // the key the error line must name
    std::vector<std::string> also;  // further text the line must hold
  };
  // eval_every=0, population_mode (a key no longer written) and
  // wire=analytic have tests of their own.
  const Row rows[] = {
      {false, {{"strategy", "bogus"}}, "strategy", {}},
      {false, {{"strategy", "async-fedbuff"}}, "strategy", {}},
      {true, {{"exec", "sync"}}, "strategy", {}},
      {false, {{"exec", "bogus"}}, "exec", {}},
      {false, {{"dataset", "bogus"}}, "dataset", {}},
      {false, {{"model", "bogus"}}, "model", {}},
      {false, {{"env", "bogus"}}, "env", {}},
      {false, {{"rounds", "0"}}, "rounds", {}},
      {false, {{"rounds", "four"}}, "rounds", {}},
      {false, {{"scale", "0"}}, "scale", {}},
      {false, {{"scale", "1.5"}}, "scale", {}},
      {false, {{"scale", "nan"}}, "scale", {}},
      {false, {{"population", "-1"}}, "population", {}},
      {false, {{"population", "100000001"}}, "population", {}},
      {false, {{"population", "10"}}, "population", {"K=30"}},
      {false, {{"overcommit", "0.5"}}, "overcommit", {}},
      {true, {{"overcommit", "0.5"}}, "overcommit", {}},
      {false, {{"seed", "-1"}}, "seed", {}},
      {false, {{"threads", "2000"}}, "threads", {}},
      {false, {{"topology", "bogus"}}, "topology", {}},
      {false, {{"topology", "hier:0"}}, "topology", {}},
      {false, {{"topology", "hier:999"}}, "topology", {"more edges"}},
      {false, {{"scenario", "{"}}, "scenario", {}},
      {true, {{"async_buffer", "50"}, {"async_conc", "9"}}, "async_buffer",
       {"K=50", "N=9"}},
      {true, {{"async_conc", "100000"}}, "async_conc", {"population"}},
      {true, {{"async_buffer", "0"}}, "async_buffer", {}},
      {true, {{"async_conc", "0"}}, "async_conc", {}},
      {true, {{"staleness", "bogus"}}, "staleness", {}},
      {true, {{"staleness_alpha", "-1"}}, "staleness_alpha", {}},
      {true, {{"server_lr", "0"}}, "server_lr", {}},
      {true, {{"max_staleness", "-1"}}, "max_staleness", {}},
      // A setting this binary does not know must not be dropped silently.
      {false, {{"extra_key", "1"}}, "extra_key", {}},
      {true, {{"extra_key", "1"}}, "extra_key", {}},
  };
  for (const Row& row : rows) {
    ckpt::Snapshot snap = heads[row.async ? 1 : 0];
    std::string what = row.async ? "async head:" : "sync head:";
    for (const auto& [key, value] : row.set) {
      snap.meta[key] = value;
      what += " " + key + "=" + value;
    }
    expect_clean(snap, row.key, row.also, what);
  }
}

TEST(CliCkpt, AnyLegalRunConfigurationIsResumable) {
  // Resume's meta validation must accept exactly what run's flag
  // validation accepts — an extreme-but-legal overcommit must not strand
  // the campaign's snapshots.
  ScratchDir dir("cli_ckpt_extreme");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--overcommit", "2000", "--checkpoint-every", "2",
              "--checkpoint-dir", dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  const CliResult r = invoke({"resume", ckpt.c_str()});
  EXPECT_EQ(r.code, 0) << r.err;
}

TEST(CliCkpt, TamperedRegistryNameIsACleanError) {
  // A head naming a population mode describes a setting this binary no
  // longer has: it must reject as CkptError (exit 1), never resume under
  // a silent default.
  ScratchDir dir("cli_ckpt_registry");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  ckpt::Snapshot snap =
      ckpt::load_checkpoint((dir.path / "ckpt-00000002.gfc").string());
  ASSERT_EQ(snap.meta.count("population_mode"), 0u);
  snap.meta["population_mode"] = "virtual";
  const std::string bad = (dir.path / "bad-mode.gfc").string();
  ckpt::save_checkpoint(bad, snap);
  const CliResult r = invoke({"resume", bad.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("'population_mode' is not a setting this binary "
                       "knows"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
}

TEST(CliCkpt, AnalyticWireSnapshotIsACleanError) {
  // A snapshot whose meta says wire=analytic describes a run mode this
  // binary no longer has: resume must refuse it with one CkptError line.
  ScratchDir dir("cli_ckpt_analytic");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  ckpt::Snapshot snap =
      ckpt::load_checkpoint((dir.path / "ckpt-00000002.gfc").string());
  ASSERT_EQ(snap.meta["wire"], "encoded");
  snap.meta["wire"] = "analytic";
  const std::string bad = (dir.path / "analytic.gfc").string();
  ckpt::save_checkpoint(bad, snap);
  const CliResult r = invoke({"resume", bad.c_str()});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("'wire'"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("analytic"), std::string::npos) << r.err;
  EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;
}

TEST(CliCkpt, ResumeRejectsCrashRoundAtOrBeforeTheBoundary) {
  ScratchDir dir("cli_ckpt_crash_range");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "4", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();

  // Boundary 2 is already complete: a crash at 1 or 2 can never fire.
  for (const char* bad : {"1", "2"}) {
    const CliResult r = invoke({"resume", ckpt.c_str(), "--checkpoint-every",
                                "2", "--checkpoint-dir", dir.str().c_str(),
                                "--crash-at-round", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("checkpoint boundary"), std::string::npos) << r.err;
  }
  // Boundary 3 is still ahead: the resumed run must crash there.
  const CliResult r = invoke({"resume", ckpt.c_str(), "--crash-at-round",
                              "3"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("simulated crash"), std::string::npos);
}

TEST(CliCkpt, ResumeCrashReportPointsAtTheSourceCheckpoint) {
  // A crash injected before the resumed run's first NEW snapshot must
  // still point the user at the (valid) source checkpoint.
  ScratchDir dir("cli_ckpt_crash_report");
  const CliResult w =
      invoke({"run", "--strategy", "fedavg", "--rounds", "6", "--scale",
              "0.02", "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str()});
  ASSERT_EQ(w.code, 0) << w.err;
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();

  const CliResult r = invoke({"resume", ckpt.c_str(), "--crash-at-round",
                              "3"});
  EXPECT_EQ(r.code, 3);
  EXPECT_NE(r.out.find("resume with: gluefl resume " + ckpt),
            std::string::npos)
      << r.out;
}

TEST(CliCkpt, SweepRejectsCheckpointFlags) {
  const CliResult r = invoke({"sweep", "--rounds", "1", "--scale", "0.02",
                              "--checkpoint-every", "1"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("checkpoint-every"), std::string::npos);
}

}  // namespace
}  // namespace gluefl::cli
