// Whole-run goldens: a fixed matrix of `gluefl run` / `gluefl resume`
// invocations, driven in process through run_cli, whose every output is
// hashed and compared with a pinned table.
//
// Each row writes a JSON summary, a flight-recorder event log, a head per
// round boundary and (for GlueFL and STC) the residual journal. The pins
// cover all of them, so any change to a run's arithmetic, wire bytes,
// sampling, telemetry or checkpoint layout fails here. Two things are
// normalized before hashing, because they may legitimately differ
// between builds and runs:
//
//   * the summary's "provenance" object (git hash and build type);
//   * each head's "git_hash", "build_type" and "threads" meta keys (the
//     head is decoded, the keys are dropped, and it is re-encoded).
//
// Every row runs at 1 and 4 threads. The fedavg and gluefl rows run their
// 4-thread variant once per GEMM tier, forced (DESIGN.md §2 "Training
// kernels"). Every variant of a row must reproduce that row's one set of
// pins. Re-pinning is a declared change: CHANGES.md names each moved hash
// and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint.h"
#include "cli/cli.h"
#include "tensor/ops.h"

namespace gluefl {
namespace {

namespace fs = std::filesystem;

using Pins = std::vector<std::pair<std::string, uint64_t>>;

uint64_t fnv1a(const uint8_t* p, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The summary with its provenance object replaced by `{}`.
uint64_t summary_hash(const fs::path& p) {
  const std::vector<uint8_t> bytes = read_file(p);
  std::string s(bytes.begin(), bytes.end());
  const std::string key = "\"provenance\": {";
  const size_t at = s.find(key);
  EXPECT_NE(at, std::string::npos) << p;
  if (at != std::string::npos) {
    const size_t open = at + key.size() - 1;
    const size_t close = s.find('}', open);
    s.erase(open + 1, close - open - 1);
  }
  return fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

/// The head re-encoded without its provenance and thread-count meta.
uint64_t head_hash(const fs::path& p) {
  const std::vector<uint8_t> bytes = read_file(p);
  ckpt::Snapshot snap = ckpt::decode_snapshot(bytes.data(), bytes.size());
  for (const char* key : {"git_hash", "build_type", "threads"}) {
    EXPECT_EQ(snap.meta.erase(key), 1u) << p << " meta " << key;
  }
  const std::vector<uint8_t> norm = ckpt::encode_snapshot(snap);
  return fnv1a(norm.data(), norm.size());
}

uint64_t file_hash(const fs::path& p) {
  const std::vector<uint8_t> bytes = read_file(p);
  return fnv1a(bytes.data(), bytes.size());
}

struct Row {
  const char* name = "";
  std::vector<const char*> flags;  // beyond the shared ones below
  bool crash = false;  // crash at boundary 2, then resume into the same dir
  bool tiers = false;  // run the 4-thread variant under each GEMM tier
  Pins pins;
};

// Shared by every row: OpenImage at scale 0.05 (531 clients), 3 rounds
// (4 for the crash rows, so the resumed segment writes a head), an event
// log and a head at every boundary.
const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {.name = "gluefl",
       .flags = {"--strategy", "gluefl"},
       .tiers = true,
       .pins = {{"summary", 0xa018e7b24fcabd7full},
                {"events", 0xef60c59547988603ull},
                {"ckpt-00000001.gfc", 0x4d1b58f2726990eaull},
                {"ckpt-00000002.gfc", 0xd35ec6a0ef9debf4ull},
                {"residuals.gfj", 0xe197d7ce69e5b080ull}}},
      {.name = "fedavg",
       .flags = {"--strategy", "fedavg"},
       .tiers = true,
       .pins = {{"summary", 0x43df042b871d87bfull},
                {"events", 0x7753abcf7a697042ull},
                {"ckpt-00000001.gfc", 0x8397b0bd8dc62649ull},
                {"ckpt-00000002.gfc", 0x82c7f2310fcf89dbull}}},
      {.name = "stc",
       .flags = {"--strategy", "stc"},
       .pins = {{"summary", 0x80cd3c9335adf1deull},
                {"events", 0x1a23ab084876db65ull},
                {"ckpt-00000001.gfc", 0x04f2534c99b407c4ull},
                {"ckpt-00000002.gfc", 0xc47e7f8bec36111full},
                {"residuals.gfj", 0x693c2530a7052829ull}}},
      {.name = "apf",
       .flags = {"--strategy", "apf"},
       .pins = {{"summary", 0x5cb9025f34fa654full},
                {"events", 0x64cc7fa67b70ed84ull},
                {"ckpt-00000001.gfc", 0x7e644ea488a1b335ull},
                {"ckpt-00000002.gfc", 0x86fcae1d45811278ull}}},
      {.name = "async",
       .flags = {"--exec", "async"},
       .pins = {{"summary", 0xf2f7cc00323c7722ull},
                {"events", 0x0585e3e99baf1a7eull},
                {"ckpt-00000001.gfc", 0xc20c98995ed1505full},
                {"ckpt-00000002.gfc", 0xd29f251e5bcf41e6ull}}},
      {.name = "hostile",
       .flags = {"--strategy", "gluefl", "--scenario", "hostile"},
       .pins = {{"summary", 0xe3cf37479bf2a5b8ull},
                {"events", 0x5272d349e6f5e52aull},
                {"ckpt-00000001.gfc", 0xf16c3771564e204aull},
                {"ckpt-00000002.gfc", 0xe440eaf9cb910c3full},
                {"residuals.gfj", 0x7fb8feec0eda76f5ull}}},
      {.name = "hier",
       .flags = {"--strategy", "gluefl", "--topology", "hier:3"},
       .pins = {{"summary", 0x88d8b7da2e3b6dedull},
                {"events", 0x8ac0ccb16ab3cddbull},
                {"ckpt-00000001.gfc", 0xf1a220f6c87ccceeull},
                {"ckpt-00000002.gfc", 0xbc8cac9c54afb2e9ull},
                {"residuals.gfj", 0xe197d7ce69e5b080ull}}},
      // The two virtual rows run a population above kDenseScanThreshold,
      // where the samplers and the async pool draw by rejection over the id
      // space instead of scanning it.
      {.name = "virtual",
       .flags = {"--strategy", "gluefl", "--population", "100000"},
       .crash = true,
       .pins = {{"summary", 0x4af6895e97a0b2fbull},
                {"events", 0x63c483dda72e7fbfull},
                {"events-resume", 0x66de4b19ed48b5efull},
                {"ckpt-00000001.gfc", 0x05589f68336336e7ull},
                {"ckpt-00000002.gfc", 0x3194cff578dbb1f7ull},
                {"ckpt-00000003.gfc", 0x24a2e16d948e2586ull},
                {"residuals.gfj", 0x381bb2cefb541797ull}}},
      {.name = "virtual_async",
       .flags = {"--exec", "async", "--population", "100000",
                 "--async-conc", "24", "--async-buffer", "6"},
       .crash = true,
       .pins = {{"summary", 0xc177c773e4afb715ull},
                {"events", 0xbd0c5520c820eec3ull},
                {"events-resume", 0x00bd57204f9195aeull},
                {"ckpt-00000001.gfc", 0x31bb1bcb60681db1ull},
                {"ckpt-00000002.gfc", 0xff7734a05196111bull},
                {"ckpt-00000003.gfc", 0xfa6ce5d05b926554ull}}},
      {.name = "crash_sync",
       .flags = {"--strategy", "gluefl"},
       .crash = true,
       .pins = {{"summary", 0x429b60d7149e1034ull},
                {"events", 0x6d57af7ab6035930ull},
                {"events-resume", 0x27b62533510253e7ull},
                {"ckpt-00000001.gfc", 0xa617d2dbe5fac869ull},
                {"ckpt-00000002.gfc", 0x0bd2fd2501572644ull},
                {"ckpt-00000003.gfc", 0x7c889a78a199af17ull},
                {"residuals.gfj", 0xda898f7ea2b00a47ull}}},
      {.name = "crash_async",
       .flags = {"--exec", "async"},
       .crash = true,
       .pins = {{"summary", 0x885a3fae2045d7bcull},
                {"events", 0xdbea0b197e81ea3bull},
                {"events-resume", 0xadf2f324311a001dull},
                {"ckpt-00000001.gfc", 0x9be45f89c5a3ee7full},
                {"ckpt-00000002.gfc", 0xcb9d84bc45ed189bull},
                {"ckpt-00000003.gfc", 0x42f4cab708282e35ull}}},
      // The two knobs rows move every run setting off its default, so a
      // resume that drops or misreads any one of them moves a pin.
      {.name = "crash_sync_knobs",
       .flags = {"--strategy", "stc", "--model", "mobilenet", "--env",
                 "datacenter", "--overcommit", "1.5", "--topology", "hier:2",
                 "--population", "700", "--scenario", "diurnal",
                 "--eval-every", "2", "--seed", "11"},
       .crash = true,
       .pins = {{"summary", 0xb2341d14dd4fe474ull},
                {"events", 0x0556c54a5bb35e7bull},
                {"events-resume", 0xbef2384e5ecb28c5ull},
                {"ckpt-00000001.gfc", 0xe30bbff84cc417e5ull},
                {"ckpt-00000002.gfc", 0x260f6eb7e2b3b3a6ull},
                {"ckpt-00000003.gfc", 0x2a9cc1ffaa78a906ull},
                {"residuals.gfj", 0x04a0e14cbad6f1d4ull}}},
      {.name = "crash_async_knobs",
       .flags = {"--exec", "async", "--model", "resnet34", "--env", "5g",
                 "--async-buffer", "6", "--async-conc", "24", "--staleness",
                 "const", "--staleness-alpha", "0.25", "--server-lr", "0.5",
                 "--max-staleness", "3", "--population", "600",
                 "--eval-every", "2", "--seed", "7"},
       .crash = true,
       .pins = {{"summary", 0xedfd3af713d4f876ull},
                {"events", 0x1c59c232620112dcull},
                {"events-resume", 0xfb674d5b2a77c7d1ull},
                {"ckpt-00000001.gfc", 0x330838af30cde29bull},
                {"ckpt-00000002.gfc", 0x601854ea8a07abaaull},
                {"ckpt-00000003.gfc", 0x9231e89287ef8cc8ull}}},
  };
  return table;
}

struct Variant {
  size_t row;
  int threads;
  std::optional<detail::GemmTier> tier;  // nullopt = the process's pick
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  for (size_t r = 0; r < rows().size(); ++r) {
    out.push_back({r, 1, std::nullopt});
    if (!rows()[r].tiers) {
      out.push_back({r, 4, std::nullopt});
      continue;
    }
    for (const detail::GemmTier t :
         {detail::GemmTier::kLanes4, detail::GemmTier::kAvx2,
          detail::GemmTier::kAvx512}) {
      out.push_back({r, 4, t});
    }
  }
  return out;
}

std::string name_of(const Variant& v) {
  std::string name = std::string(rows()[v.row].name) + "_t" +
                     std::to_string(v.threads);
  if (v.tier) name += std::string("_") + detail::gemm_tier_name(*v.tier);
  return name;
}

void PrintTo(const Variant& v, std::ostream* os) { *os << name_of(v); }

std::string variant_name(const ::testing::TestParamInfo<Variant>& info) {
  return name_of(info.param);
}

/// One line per output, in the form the pin table is written.
std::string format_pins(const Pins& pins) {
  std::ostringstream out;
  for (const auto& [name, h] : pins) {
    char hex[19];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(h));
    out << "{\"" << name << "\", " << hex << "ull},\n";
  }
  return out.str();
}

int invoke(const std::vector<std::string>& args, std::string* out_text) {
  std::ostringstream out, err;
  const int code = cli::run_cli(args, out, err);
  if (out_text) *out_text = out.str() + err.str();
  return code;
}

class Goldens : public ::testing::TestWithParam<Variant> {
 protected:
  void SetUp() override {
    if (const auto tier = GetParam().tier) {
      if (!detail::gemm_tier_supported(*tier)) {
        GTEST_SKIP() << "GEMM tier " << detail::gemm_tier_name(*tier)
                     << " is not supported by this build/CPU";
      }
      detail::set_gemm_tier(*tier);
    }
    dir_ = fs::path("goldens_" + name_of(GetParam()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "ckpt");
  }
  void TearDown() override {
    detail::set_gemm_tier(picked_);
    fs::remove_all(dir_);
  }

  fs::path dir_;

 private:
  detail::GemmTier picked_ = detail::gemm_tier();
};

TEST_P(Goldens, OutputsMatchPinnedHashes) {
  const Row& row = rows()[GetParam().row];
  const std::string threads = std::to_string(GetParam().threads);
  const std::string ckpt_dir = (dir_ / "ckpt").string();
  std::vector<std::string> args = {
      "run", "--dataset", "openimage", "--scale", "0.05", "--rounds",
      row.crash ? "4" : "3", "--threads", threads, "--events",
      (dir_ / "events.bin").string(), "--checkpoint-every", "1",
      "--checkpoint-dir", ckpt_dir};
  args.insert(args.end(), row.flags.begin(), row.flags.end());
  std::string text;
  if (row.crash) {
    args.insert(args.end(), {"--crash-at-round", "2"});
    ASSERT_EQ(invoke(args, &text), 3) << text;
    ASSERT_EQ(invoke({"resume", ckpt::checkpoint_path(ckpt_dir, 2),
                      "--threads", threads, "--events",
                      (dir_ / "events-resume.bin").string(),
                      "--checkpoint-every", "1", "--checkpoint-dir", ckpt_dir,
                      "--json", (dir_ / "summary.json").string()},
                     &text),
              0)
        << text;
  } else {
    args.insert(args.end(), {"--json", (dir_ / "summary.json").string()});
    ASSERT_EQ(invoke(args, &text), 0) << text;
  }

  Pins got = {{"summary", summary_hash(dir_ / "summary.json")},
              {"events", file_hash(dir_ / "events.bin")}};
  if (row.crash) {
    got.emplace_back("events-resume", file_hash(dir_ / "events-resume.bin"));
  }
  std::vector<fs::path> ckpt_files;
  for (const auto& e : fs::directory_iterator(dir_ / "ckpt")) {
    ckpt_files.push_back(e.path());
  }
  std::sort(ckpt_files.begin(), ckpt_files.end());
  for (const fs::path& p : ckpt_files) {
    const std::string name = p.filename().string();
    got.emplace_back(name, p.extension() == ".gfc" ? head_hash(p)
                                                   : file_hash(p));
  }
  EXPECT_EQ(format_pins(got), format_pins(row.pins)) << "row " << row.name;
}

INSTANTIATE_TEST_SUITE_P(Matrix, Goldens, ::testing::ValuesIn(variants()),
                         variant_name);

}  // namespace
}  // namespace gluefl
