// Large-population layer: the lazy ClientDirectory against the eager
// reference forms (make_profiles, AvailabilityTrace), its cache sized to
// the samplers' full scan, virtual-ID-space sampling, sparse SyncTracker
// serialization, and the CLI's population flag through run and resume.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.h"
#include "cli/cli.h"
#include "fl/sync_tracker.h"
#include "net/availability.h"
#include "net/client_directory.h"
#include "net/client_profile.h"
#include "net/environment.h"
#include "sampling/sampler.h"
#include "sampling/sticky_sampler.h"
#include "sampling/uniform_sampler.h"
#include "telemetry/telemetry.h"

namespace gluefl {
namespace {

// --------------------------------------------------------- ClientDirectory

// The directory's streams: profiles fork 0x01, availability 0x02.
const Rng kMaster(99);

ClientDirectory make_directory(int64_t population, int horizon,
                               size_t cache = 8, bool use_availability = true) {
  return ClientDirectory(population, horizon, make_edge_env(),
                         kMaster.fork(0x01), kMaster.fork(0x02),
                         use_availability, cache);
}

AvailabilityTrace make_trace(int population, int horizon) {
  Rng avail = kMaster.fork(0x02);
  return AvailabilityTrace(population, horizon, make_edge_env(), avail);
}

TEST(ClientDirectory, LazyProfilesMatchMaterialized) {
  const auto ref = make_profiles(300, make_edge_env(), kMaster.fork(0x01));
  const auto lazy = make_directory(300, 10, /*cache=*/8);
  // Scrambled order with revisits: every lookup must re-derive the same
  // values even after the tiny cache evicted the entry.
  Rng order(5);
  for (int i = 0; i < 600; ++i) {
    const int c = order.uniform_int(0, 299);
    const ClientProfile& a = ref[static_cast<size_t>(c)];
    const ClientProfile b = lazy.profile(c);
    EXPECT_DOUBLE_EQ(a.down_mbps, b.down_mbps) << "client " << c;
    EXPECT_DOUBLE_EQ(a.up_mbps, b.up_mbps) << "client " << c;
    EXPECT_DOUBLE_EQ(a.gflops, b.gflops) << "client " << c;
  }
}

TEST(ClientDirectory, LazyAvailabilityMatchesTrace) {
  const int pop = 200, horizon = 12;
  const AvailabilityTrace trace = make_trace(pop, horizon);
  const auto lazy = make_directory(pop, horizon, /*cache=*/4);
  ASSERT_FALSE(lazy.always_on());  // edge env churns (80% availability)
  // Forward, backward and random-order queries: a backward query forces a
  // chain restart, a forward one advances the cached chain.
  for (int c = 0; c < pop; c += 7) {
    for (int r = 0; r < horizon; ++r) {
      EXPECT_EQ(trace.available(c, r), lazy.available(c, r))
          << "fwd c=" << c << " r=" << r;
    }
    for (int r = horizon - 1; r >= 0; --r) {
      EXPECT_EQ(trace.available(c, r), lazy.available(c, r))
          << "bwd c=" << c << " r=" << r;
    }
  }
  Rng order(11);
  for (int i = 0; i < 500; ++i) {
    const int c = order.uniform_int(0, pop - 1);
    const int r = order.uniform_int(0, horizon - 1);
    EXPECT_EQ(trace.available(c, r), lazy.available(c, r))
        << "rand c=" << c << " r=" << r;
  }
}

TEST(ClientDirectory, FullScansKeepEveryChainResident) {
  // The capacity is the population up to the samplers' scan gate and the
  // default above it.
  EXPECT_EQ(ClientDirectory::cache_capacity(kDenseScanThreshold),
            static_cast<size_t>(kDenseScanThreshold));
  EXPECT_EQ(ClientDirectory::cache_capacity(kDenseScanThreshold + 1),
            ClientDirectory::kDefaultCacheCapacity);
  // What the samplers and the async dispatch pool do up to the gate:
  // query every client in id order, every round. With the derived
  // capacity each chain is replayed once and then only advanced; a
  // 4,096-entry cache would miss all N clients every round.
  constexpr int pop = 6000, horizon = 50;
  static_assert(pop > ClientDirectory::kDefaultCacheCapacity &&
                pop <= kDenseScanThreshold);
  const AvailabilityTrace trace = make_trace(pop, horizon);
  telemetry::reset();
  telemetry::configure({});
  const auto dir =
      make_directory(pop, horizon, ClientDirectory::cache_capacity(pop));
  int wrong = 0;
  for (int r = 0; r < horizon; ++r) {
    for (int c = 0; c < pop; ++c) {
      wrong += trace.available(c, r) != dir.available(c, r);
    }
  }
  const uint64_t misses = telemetry::value(telemetry::kDirChainMisses);
  const uint64_t evictions = telemetry::value(telemetry::kDirChainEvictions);
  const uint64_t hits = telemetry::value(telemetry::kDirChainHits);
  telemetry::reset();
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(misses, static_cast<uint64_t>(pop));
  EXPECT_EQ(evictions, 0u);
  EXPECT_EQ(hits, static_cast<uint64_t>(pop) * (horizon - 1));
}

TEST(ClientDirectory, AlwaysOnWhenAvailabilityDisabled) {
  const auto lazy = make_directory(100, 5, 8, /*use_availability=*/false);
  EXPECT_TRUE(lazy.always_on());
  for (int c = 0; c < 100; c += 13) {
    EXPECT_TRUE(lazy.available(c, 3));
  }
}

TEST(ClientDirectory, LazyResidentBytesBoundedAtMillionClients) {
  const auto lazy = make_directory(1000000, 50, /*cache=*/1024);
  Rng order(3);
  for (int i = 0; i < 5000; ++i) {
    const int c = order.uniform_int(0, 999999);
    (void)lazy.profile(c);
    (void)lazy.available(c, i % 50);
  }
  // Bounded by the cache capacity, not the population: two 1024-entry
  // caches stay well under 1 MB where per-client arrays would be ~30 MB.
  EXPECT_LT(lazy.resident_bytes(), static_cast<size_t>(1) << 20);
}

// ----------------------------------------------------------- samplers

TEST(VirtualSampling, SampleVirtualDrawsUniqueEligibleIds) {
  Rng rng(17);
  const auto picked = sample_virtual(1000000, 50, rng,
                                     [](int c) { return c % 3 != 0; });
  ASSERT_EQ(picked.size(), 50u);
  std::set<int> seen;
  for (const int c : picked) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 1000000);
    EXPECT_NE(c % 3, 0);
    EXPECT_TRUE(seen.insert(c).second) << "duplicate id " << c;
  }
}

TEST(VirtualSampling, SampleVirtualIsDeterministic) {
  Rng a(123), b(123);
  EXPECT_EQ(sample_virtual(500000, 30, a, nullptr),
            sample_virtual(500000, 30, b, nullptr));
}

TEST(VirtualSampling, UniformSamplerUsesVirtualPathAboveThreshold) {
  const int64_t pop = 200000;  // > kDenseScanThreshold
  UniformSampler s(pop);
  Rng rng(7);
  const CandidateSet cand = s.invite(0, 40, 1.3, rng, nullptr);
  EXPECT_EQ(cand.need_nonsticky, 40);
  ASSERT_EQ(cand.nonsticky.size(), 52u);  // ceil(1.3 * 40)
  std::set<int> seen(cand.nonsticky.begin(), cand.nonsticky.end());
  EXPECT_EQ(seen.size(), cand.nonsticky.size());
  for (const int c : cand.nonsticky) {
    EXPECT_GE(c, 0);
    EXPECT_LT(static_cast<int64_t>(c), pop);
  }
}

TEST(VirtualSampling, StickySamplerKeepsSemanticsOverVirtualIds) {
  const int64_t pop = 200000;
  StickyConfig cfg;
  cfg.group_size = 60;
  cfg.sticky_per_round = 18;
  Rng init(42);
  StickySampler s(pop, cfg, init);
  EXPECT_EQ(s.sticky_members().size(), 60u);

  Rng rng(9);
  const CandidateSet cand = s.invite(0, 24, 1.25, rng, nullptr);
  EXPECT_EQ(cand.need_sticky, 18);
  // Sticky invitees come from the group, non-sticky from its complement.
  for (const int c : cand.sticky) {
    EXPECT_TRUE(s.in_sticky_group(c)) << c;
  }
  std::set<int> seen;
  for (const int c : cand.nonsticky) {
    EXPECT_FALSE(s.in_sticky_group(c)) << c;
    EXPECT_TRUE(seen.insert(c).second) << "duplicate id " << c;
  }
}

// -------------------------------------------------- sparse SyncTracker

TEST(SparseSyncTracker, ParticipantsTrackOnlyMarkedClients) {
  SyncTracker t(1000000, 64);
  EXPECT_EQ(t.participants(), 0u);
  t.mark_synced(3, 0);
  t.mark_synced(999999, 0);
  t.mark_synced(512345, 1);
  t.mark_synced(3, 1);  // re-mark: no new entry
  EXPECT_EQ(t.participants(), 3u);
  EXPECT_EQ(t.last_synced_round(3), 1);
  EXPECT_EQ(t.last_synced_round(999999), 0);
  EXPECT_EQ(t.last_synced_round(7), -1);  // never synced
  // O(participants), nowhere near a dense million-entry array.
  EXPECT_LT(t.resident_bytes(), static_cast<size_t>(64) * 1024);
}

TEST(SparseSyncTracker, SaveRestoreRoundTripsSparseMap) {
  SyncTracker t(1000, 32);
  BitMask none(32);
  for (int r = 0; r < 4; ++r) t.record_round_changes(r, none);
  t.mark_synced(7, 1);
  t.mark_synced(900, 3);
  t.mark_synced(0, 2);

  ckpt::Writer w;
  t.save_state(w);
  SyncTracker back(1000, 32);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  back.restore_state(r);
  EXPECT_EQ(back.participants(), 3u);
  EXPECT_EQ(back.last_synced_round(7), 1);
  EXPECT_EQ(back.last_synced_round(900), 3);
  EXPECT_EQ(back.last_synced_round(0), 2);
  EXPECT_EQ(back.last_synced_round(500), -1);
}

TEST(SparseSyncTracker, RestoreRejectsUnsortedIds) {
  // Hand-built section with entries out of id order: the sorted layout is
  // the byte-identity contract, so decoders must refuse it loudly.
  ckpt::Writer w;
  w.varint(10);  // num_clients
  w.varint(4);   // dim
  w.varint(2);   // entries
  w.varint(5);   // id 5 ...
  w.varint(1);   // last_sync 0
  w.varint(3);   // ... then id 3: not ascending
  w.varint(1);
  w.varint(0);  // first_round
  w.varint(0);  // next_round
  w.varint(0);  // retained masks
  SyncTracker t(10, 4);
  ckpt::Reader r(w.buffer().data(), w.buffer().size());
  EXPECT_THROW(t.restore_state(r), ckpt::CkptError);
}

}  // namespace
}  // namespace gluefl

// ------------------------------------------------------------- CLI layer

namespace gluefl::cli {
namespace {

namespace fs = std::filesystem;

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

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name) : path(name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string str() const { return path.string(); }
};

TEST(CliPopulation, RejectsNonPositiveAndOversizedPopulations) {
  for (const char* bad : {"0", "-3", "200000000"}) {
    const CliResult r = invoke({"run", "--rounds", "1", "--scale", "0.02",
                                "--population", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("--population"), std::string::npos) << r.err;
    // One clean line, no partial run output.
    EXPECT_EQ(std::count(r.err.begin(), r.err.end(), '\n'), 1) << r.err;
  }
}

TEST(CliPopulation, RejectsUnknownPopulationMode) {
  // There is one client directory: the retired --population-mode flag is
  // an unknown flag in run and sweep (one line, exit 2), never silently
  // accepted.
  for (const char* cmd : {"run", "sweep"}) {
    for (const char* mode : {"dense", "virtual"}) {
      const CliResult r = invoke({cmd, "--rounds", "1", "--scale", "0.02",
                                  "--population-mode", mode});
      EXPECT_EQ(r.code, 2) << cmd << " " << mode;
      EXPECT_EQ(r.err, "error: unknown flag --population-mode\n")
          << cmd << " " << mode;
      EXPECT_TRUE(r.out.empty()) << cmd << " " << mode;
    }
  }
}

TEST(CliPopulation, RejectsPopulationSmallerThanCohort) {
  // femnist at scale 0.25 has K=30; a 10-client population cannot seat it.
  const CliResult r = invoke({"run", "--rounds", "1", "--population", "10"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("smaller than the preset cohort"), std::string::npos)
      << r.err;
}

TEST(CliPopulation, VirtualRunEchoesModeAndRssEstimate) {
  // A population above the dataset's client count: the header and the
  // summary echo it, and no population mode is echoed.
  const CliResult r =
      invoke({"run", "--strategy", "fedavg", "--rounds", "1", "--scale",
              "0.02", "--population", "50000"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("(N=50000, K="), std::string::npos);
  EXPECT_NE(r.out.find("\"population\": 50000"), std::string::npos);
  EXPECT_EQ(r.out.find("population_mode"), std::string::npos);
  EXPECT_NE(r.out.find("\"peak_rss_est_mb\": "), std::string::npos);
}

TEST(CliPopulation, VirtualCrashThenResumeIsByteExact) {
  ScratchDir dir("cli_population_resume");
  const std::string full_json = (dir.path / "full.json").string();
  const std::string resumed_json = (dir.path / "resumed.json").string();

  const CliResult full =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--population", "300",
              "--json", full_json.c_str()});
  ASSERT_EQ(full.code, 0) << full.err;

  const CliResult crashed =
      invoke({"run", "--strategy", "gluefl", "--rounds", "4", "--scale",
              "0.02", "--eval-every", "1", "--population", "300",
              "--checkpoint-every", "2", "--checkpoint-dir",
              dir.str().c_str(), "--crash-at-round", "3"});
  EXPECT_EQ(crashed.code, 3);
  const std::string ckpt = (dir.path / "ckpt-00000002.gfc").string();
  ASSERT_TRUE(fs::exists(ckpt));

  const CliResult resumed =
      invoke({"resume", ckpt.c_str(), "--json", resumed_json.c_str()});
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  std::ifstream a(full_json), b(resumed_json);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());  // byte-identical summary incl. RSS echo
}

}  // namespace
}  // namespace gluefl::cli
