// Flight recorder (DESIGN.md §12): recorder round-trip through the binary
// log, the canonical flush order, thread-count and recorder-on/off
// byte-identity over the real CLI, crash/resume log concatenation,
// truncation/corruption rejection, and `gluefl report` attribution.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "common/json.h"
#include "telemetry/events.h"
#include "telemetry/report.h"

namespace gluefl {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = cli::run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The recorder hangs off a process-global sink; scope it so tests never
/// leak an open log into each other.
struct RecorderGuard {
  RecorderGuard() { events::reset(); }
  ~RecorderGuard() { events::reset(); }
};

// -------------------------------------------------------------- round trip

TEST(EventsRoundTrip, RecordsSurviveWriteAndReadBack) {
  RecorderGuard guard;
  ScratchDir dir("events_roundtrip");
  const std::string log_path = (dir.path / "events.bin").string();
  events::configure(log_path);
  ASSERT_TRUE(events::on());

  events::ClientEvent a;
  a.round = 0;
  a.client = 7;
  a.sticky = true;
  a.device_class = 2;
  a.down_bytes = 1000;
  a.down_s = 0.5;
  a.compute_s = 1.25;
  a.staleness = 3;
  events::client(a);

  events::ClientEvent b;
  b.round = 0;
  b.client = 3;  // lower id: canonical flush order puts it first
  b.fate = events::Fate::kDeadlineDrop;
  b.device_class = -1;
  b.down_bytes = 2000;
  b.staleness = -1;  // never synced
  events::client(b);

  // price_uplinks-style back-fill, then a strategy-side byzantine upgrade.
  events::set_uplink(7, 444, 0.75);
  events::mark_byzantine(7);
  // Upgrade only touches completed records: the deadline drop stays put.
  events::mark_byzantine(3);

  events::RoundSummary s;
  s.round = 0;
  s.num_invited = 2;
  s.num_included = 1;
  s.down_bytes = 3000.0;
  s.up_bytes = 444.0;
  s.wall_time_s = 2.5;
  s.mask_overlap = 0.25;
  events::round_flush(s);
  events::finalize();
  EXPECT_FALSE(events::on());

  const events::EventLog log = events::read_log(log_path);
  ASSERT_EQ(log.clients.size(), 2u);
  ASSERT_EQ(log.rounds.size(), 1u);
  EXPECT_EQ(log.clients[0].client, 3);
  EXPECT_EQ(log.clients[0].fate, events::Fate::kDeadlineDrop);
  EXPECT_EQ(log.clients[0].device_class, -1);
  EXPECT_EQ(log.clients[0].staleness, -1);
  EXPECT_EQ(log.clients[1].client, 7);
  EXPECT_EQ(log.clients[1].fate, events::Fate::kByzantine);
  EXPECT_TRUE(log.clients[1].sticky);
  EXPECT_EQ(log.clients[1].device_class, 2);
  EXPECT_EQ(log.clients[1].down_bytes, 1000u);
  EXPECT_EQ(log.clients[1].up_bytes, 444u);
  EXPECT_DOUBLE_EQ(log.clients[1].up_s, 0.75);
  EXPECT_DOUBLE_EQ(log.clients[1].compute_s, 1.25);
  EXPECT_EQ(log.clients[1].staleness, 3);
  EXPECT_EQ(log.rounds[0].num_invited, 2);
  EXPECT_DOUBLE_EQ(log.rounds[0].down_bytes, 3000.0);
  EXPECT_DOUBLE_EQ(log.rounds[0].mask_overlap, 0.25);
}

TEST(EventsRoundTrip, FinalizeDropsAnUnflushedHalfRound) {
  RecorderGuard guard;
  ScratchDir dir("events_halfround");
  const std::string log_path = (dir.path / "events.bin").string();
  events::configure(log_path);
  events::ClientEvent e;
  e.client = 1;
  events::client(e);
  events::finalize();  // no round_flush: the pending record must not leak
  const events::EventLog log = events::read_log(log_path);
  EXPECT_TRUE(log.clients.empty());
  EXPECT_TRUE(log.rounds.empty());
}

TEST(EventsRoundTrip, DisabledHooksAreInert) {
  RecorderGuard guard;
  EXPECT_FALSE(events::on());
  events::ClientEvent e;
  events::client(e);
  events::mark_byzantine(0);
  events::set_uplink(0, 1, 1.0);
  events::round_flush({});
  events::finalize();  // all no-ops, nothing to crash on
}

// ------------------------------------------------- byte-identity contracts

TEST(EventsIdentity, SyncLogIsByteIdenticalAcrossThreadCounts) {
  ScratchDir dir("events_identity_sync");
  std::string reference;
  for (const char* threads : {"1", "4", "8"}) {
    const std::string log_path =
        (dir.path / ("ev" + std::string(threads) + ".bin")).string();
    const CliResult r =
        invoke({"run", "--strategy", "gluefl", "--rounds", "3", "--scale",
                "0.02", "--scenario", "hostile", "--threads", threads,
                "--events", log_path});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string bytes = slurp(log_path);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
  // And the log parses: one round summary per round, clients sorted.
  const events::EventLog log =
      events::read_log((dir.path / "ev1.bin").string());
  ASSERT_EQ(log.rounds.size(), 3u);
  int64_t prev = -1;
  int prev_round = -1;
  for (const events::ClientEvent& e : log.clients) {
    if (e.round != prev_round) prev = -1;
    EXPECT_GE(e.client, prev) << "round " << e.round;
    prev = e.client;
    prev_round = e.round;
  }
}

TEST(EventsIdentity, RecorderOnOffLeavesSummariesByteIdentical) {
  ScratchDir dir("events_identity_onoff");
  const std::string plain = (dir.path / "plain.json").string();
  const std::string recorded = (dir.path / "recorded.json").string();
  const std::string log_path = (dir.path / "ev.bin").string();
  const CliResult off =
      invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
              "0.02", "--json", plain});
  ASSERT_EQ(off.code, 0) << off.err;
  const CliResult on =
      invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
              "0.02", "--json", recorded, "--events", log_path});
  ASSERT_EQ(on.code, 0) << on.err;
  EXPECT_EQ(off.out, on.out);
  EXPECT_EQ(slurp(plain), slurp(recorded));
  // The digest block rides in every summary, recorder on or off.
  EXPECT_NE(slurp(plain).find("\"digests\""), std::string::npos);
  EXPECT_NE(slurp(plain).find("client.rtt_ms_log2"), std::string::npos);
}

TEST(EventsIdentity, AsyncLogIsByteIdenticalAcrossThreadCounts) {
  ScratchDir dir("events_identity_async");
  std::string reference;
  for (const char* threads : {"1", "4"}) {
    const std::string log_path =
        (dir.path / ("ev" + std::string(threads) + ".bin")).string();
    const CliResult r =
        invoke({"run", "--exec", "async", "--rounds", "4", "--scale", "0.02",
                "--scenario", "hostile", "--threads", threads, "--events",
                log_path});
    ASSERT_EQ(r.code, 0) << r.err;
    const std::string bytes = slurp(log_path);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
  const events::EventLog log =
      events::read_log((dir.path / "ev1.bin").string());
  EXPECT_EQ(log.rounds.size(), 4u);
  for (const events::ClientEvent& e : log.clients) {
    EXPECT_FALSE(e.sticky);  // no sticky cohort on the async path
  }
}

TEST(EventsIdentity, CrashResumeConcatenationEqualsUninterruptedLog) {
  ScratchDir dir("events_identity_resume");
  const std::string full_log = (dir.path / "full.bin").string();
  const std::string full_json = (dir.path / "full.json").string();
  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--scenario", "hostile", "--eval-every", "1",
              "--events", full_log, "--json", full_json});
  ASSERT_EQ(full.code, 0) << full.err;

  const std::string crash_log = (dir.path / "crash.bin").string();
  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--scenario", "hostile", "--eval-every", "1",
              "--checkpoint-every", "2", "--checkpoint-dir", dir.str(),
              "--crash-at-round", "3", "--events", crash_log});
  ASSERT_EQ(crashed.code, 3);

  const std::string tail_log = (dir.path / "tail.bin").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  const CliResult resumed = invoke({"resume", ckpt, "--threads", "4",
                                    "--events", tail_log, "--json",
                                    resumed_json});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  // Headerless framing pays off here: crashed-segment bytes + resumed-
  // segment bytes ARE the uninterrupted log.
  EXPECT_EQ(slurp(crash_log) + slurp(tail_log), slurp(full_log));
  // And the digest-carrying JSON summary resumes byte-identically too.
  EXPECT_EQ(slurp(full_json), slurp(resumed_json));
  EXPECT_NE(slurp(full_json).find("\"digests\""), std::string::npos);
}

// ------------------------------------------------------- hostile log input

TEST(EventsReader, TruncatedLogFailsWithOneLineErrorNotACrash) {
  ScratchDir dir("events_truncated");
  const std::string log_path = (dir.path / "ev.bin").string();
  ASSERT_EQ(invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
                    "0.02", "--events", log_path})
                .code,
            0);
  const std::string bytes = slurp(log_path);
  ASSERT_GT(bytes.size(), 16u);
  // Chop at guaranteed non-record boundaries (records are at least 7
  // bytes: type + length + payload + crc, so offsets 1..6 cut the first
  // record and size-1/size-3 cut the last): every truncated prefix must be
  // rejected with exit 1 and a single-line diagnostic.
  for (const size_t cut :
       {bytes.size() - 1, bytes.size() - 3, size_t{3}, size_t{1}}) {
    const std::string cut_path = (dir.path / "cut.bin").string();
    spit(cut_path, bytes.substr(0, cut));
    const CliResult r = invoke({"report", cut_path});
    EXPECT_EQ(r.code, 1) << "cut=" << cut;
    EXPECT_NE(r.err.find("events:"), std::string::npos) << r.err;
    EXPECT_EQ(r.err.find('\n'), r.err.size() - 1) << r.err;  // one line
  }
}

TEST(EventsReader, CorruptedBytesFailTheRecordCrc) {
  ScratchDir dir("events_corrupt");
  const std::string log_path = (dir.path / "ev.bin").string();
  ASSERT_EQ(invoke({"run", "--strategy", "gluefl", "--rounds", "2", "--scale",
                    "0.02", "--events", log_path})
                .code,
            0);
  std::string bytes = slurp(log_path);
  ASSERT_GT(bytes.size(), 8u);
  // Flip one payload byte in the first record and one deep in the file.
  for (const size_t at : {size_t{4}, bytes.size() / 2}) {
    std::string evil = bytes;
    evil[at] = static_cast<char>(evil[at] ^ 0x5a);
    const std::string evil_path = (dir.path / "evil.bin").string();
    spit(evil_path, evil);
    const CliResult r = invoke({"report", evil_path});
    EXPECT_EQ(r.code, 1) << "at=" << at;
    EXPECT_NE(r.err.find("events:"), std::string::npos) << r.err;
  }
}

TEST(EventsReader, MissingFileAndEmptyLogBehaveSanely) {
  ScratchDir dir("events_missing");
  const CliResult missing =
      invoke({"report", (dir.path / "absent.bin").string()});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("events:"), std::string::npos) << missing.err;
  // A zero-byte log is a valid (empty) recording, not an error.
  const std::string empty_path = (dir.path / "empty.bin").string();
  spit(empty_path, "");
  const CliResult empty = invoke({"report", empty_path});
  EXPECT_EQ(empty.code, 0) << empty.err;
  EXPECT_NE(empty.out.find("rounds: 0"), std::string::npos) << empty.out;
  // A directory is neither: one line, exit 1, not an empty report.
  const CliResult is_dir = invoke({"report", dir.path.string()});
  EXPECT_EQ(is_dir.code, 1) << is_dir.out;
  EXPECT_NE(is_dir.err.find("not a regular file"), std::string::npos)
      << is_dir.err;
  EXPECT_EQ(is_dir.err.find('\n'), is_dir.err.size() - 1) << is_dir.err;
}

// ----------------------------------------------------------- gluefl report

TEST(EventsReport, JsonAttributionIsConsistentWithTheLog) {
  ScratchDir dir("events_report_json");
  const std::string log_path = (dir.path / "ev.bin").string();
  ASSERT_EQ(invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
                    "0.02", "--scenario", "hostile", "--events", log_path})
                .code,
            0);
  const CliResult r = invoke({"report", log_path, "--json", "--top", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  const json::Value doc = json::parse(r.out);
  EXPECT_EQ(doc.at("schema").str, "gluefl.report.v1");
  EXPECT_EQ(doc.at("rounds").number, 4.0);

  const json::Value& fates = doc.at("fates");
  const double parts = doc.at("participations").number;
  EXPECT_GT(parts, 0.0);
  EXPECT_EQ(fates.at("completed").number + fates.at("deadline_drop").number +
                fates.at("dropout").number + fates.at("byzantine").number,
            parts);

  const json::Value& stragglers = doc.at("stragglers");
  ASSERT_TRUE(stragglers.is_array());
  ASSERT_LE(stragglers.arr.size(), 5u);
  ASSERT_FALSE(stragglers.arr.empty());
  double prev = -1.0;
  for (const json::Value& s : stragglers.arr) {
    const double t = s.at("total_s").number;
    if (prev >= 0.0) {
      EXPECT_LE(t, prev);  // sorted by total time, descending
    }
    prev = t;
  }
  ASSERT_TRUE(doc.at("device_classes").is_array());
  EXPECT_FALSE(doc.at("device_classes").arr.empty());
  // The hostile scenario defines device classes, so no participation
  // should be unclassed.
  for (const json::Value& k : doc.at("device_classes").arr) {
    EXPECT_GE(k.at("device_class").number, 0.0);
  }
  // GlueFL runs a sticky cohort: the report must see it.
  EXPECT_GT(doc.at("sticky").at("rounds").number, 0.0);
  EXPECT_GT(doc.at("sticky").at("mean_size").number, 0.0);
  ASSERT_TRUE(doc.at("faults").is_array());
}

TEST(EventsReport, TextReportCarriesTheAttributionTables) {
  ScratchDir dir("events_report_text");
  const std::string log_path = (dir.path / "ev.bin").string();
  ASSERT_EQ(invoke({"run", "--strategy", "gluefl", "--rounds", "3", "--scale",
                    "0.02", "--scenario", "hostile", "--events", log_path})
                .code,
            0);
  const CliResult r = invoke({"report", log_path});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"Flight recorder report", "top stragglers", "device classes",
        "sticky cohort:", "mask overlap:", "fault timeline"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
}

TEST(EventsReport, UsageAndSweepRejection) {
  CliResult r = invoke({"report"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("report expects one event log"), std::string::npos)
      << r.err;

  r = invoke({"report", "a.bin", "b.bin"});
  EXPECT_EQ(r.code, 2);

  r = invoke({"report", "absent.bin", "--dry-run"});
  EXPECT_EQ(r.code, 0) << r.err;  // dry-run validates flags, reads nothing
  EXPECT_NE(r.out.find("dry-run"), std::string::npos);

  // Interleaved sweep arms would corrupt the attribution: sweep says no.
  r = invoke({"sweep", "--rounds", "1", "--scale", "0.02", "--q", "0.1",
              "--events", "sweep.bin"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--events requires"), std::string::npos) << r.err;
}

TEST(EventsReport, BadOutputPathFailsEagerly) {
  const CliResult r = invoke({"run", "--rounds", "1", "--scale", "0.02",
                              "--events", "no-such-dir/ev.bin"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--events"), std::string::npos) << r.err;
  EXPECT_EQ(r.out.find("run:"), std::string::npos);
}

}  // namespace
}  // namespace gluefl
