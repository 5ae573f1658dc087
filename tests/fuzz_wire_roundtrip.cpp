// Wire-codec fuzz smoke (CTest: wire_fuzz_smoke; also run under the ASan
// leg). Two properties, over randomly seeded strategy-shaped payloads:
//
//   1. Round-trip identity: decode(encode(x)) must equal the quantized
//      reference produced by wire::quantize_values with an identically
//      seeded Rng — bit-exact, for every bit width and section mix.
//   2. Decoder robustness: random mutations (truncation, byte flips) of a
//      valid frame must either decode or throw CheckError. Anything else
//      (crash, sanitizer report, std::exception from a silent huge alloc
//      guard) fails the smoke.
//   3. Server survives: the Byzantine injection path
//      (scenario::corrupt_frame) must ALWAYS be rejected by the decoder's
//      whole-frame validation, and a strategy-shaped aggregate loop over
//      mutated frames must never crash nor fold a rejected frame into the
//      aggregate — the server-side guarantee DESIGN.md §11 leans on.
//
// GLUEFL_FUZZ_ITERS / GLUEFL_FUZZ_SEED tune the budget.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "compress/topk.h"
#include "scenario/scenario.h"
#include "test_util.h"
#include "wire/codec.h"

using namespace gluefl;

namespace {

using testing::random_support;
using testing::random_vals;

size_t env_or(const char* name, size_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i] && !(a[i] != a[i] && b[i] != b[i])) return false;
  }
  return true;
}

int run_iteration(uint64_t seed) {
  Rng rng(seed);
  const int bit_choices[] = {1, 4, 8, 16, 32};
  const int bits = bit_choices[rng.uniform_int(0, 4)];
  const size_t dim = static_cast<size_t>(rng.uniform_int(1, 4000));
  const size_t stat_dim = static_cast<size_t>(rng.uniform_int(0, 64));
  const bool with_shared = rng.bernoulli(0.5);
  const bool with_unique = rng.bernoulli(0.7);
  const bool with_dense = !with_shared && !with_unique && rng.bernoulli(0.5);

  auto rand_vals = [&rng](size_t n) { return random_vals(n, rng, -3.0, 3.0); };

  const auto shared_idx = random_support(
      dim, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(dim))),
      rng);
  SparseVec uni;
  uni.idx = random_support(
      dim, static_cast<size_t>(rng.uniform_int(0, static_cast<int>(dim))),
      rng);
  uni.val = rand_vals(uni.idx.size());
  const std::vector<float> shared_vals = rand_vals(shared_idx.size());
  const std::vector<float> dense_vals = rand_vals(dim);
  const std::vector<float> stats = rand_vals(stat_dim);

  // Encode with one Rng stream, build the quantized reference with a
  // clone, then require a bit-exact decode.
  Rng enc_rng = rng.fork(1);
  Rng ref_rng = rng.fork(1);
  wire::WireEncoder we(dim, bits, &enc_rng);
  int sections = 0;
  if (with_dense) {
    we.add_dense(dense_vals.data(), dim);
    ++sections;
  }
  if (with_shared) {
    we.add_shared(shared_vals.data(), shared_vals.size(),
                  wire::support_id(shared_idx));
    ++sections;
  }
  if (with_unique) {
    we.add_unique(uni);
    ++sections;
  }
  we.add_stats(stats.data(), stat_dim);
  ++sections;
  const std::vector<uint8_t> buf = we.finish();

  // References quantize in the same section order the encoder serialized.
  std::vector<float> ref_dense = dense_vals, ref_shared = shared_vals,
                     ref_uni = uni.val;
  if (with_dense) wire::quantize_values(ref_dense.data(), dim, bits, ref_rng);
  if (with_shared) {
    wire::quantize_values(ref_shared.data(), ref_shared.size(), bits,
                          ref_rng);
  }
  if (with_unique) {
    wire::quantize_values(ref_uni.data(), ref_uni.size(), bits, ref_rng);
  }

  wire::WireDecoder wd(buf.data(), buf.size(), dim);
  if (with_dense) {
    const SparseDelta d = wd.take_dense(1.0f);
    if (!bits_equal(d.val, ref_dense)) return 1;
  }
  if (with_shared) {
    const SparseDelta d = wd.take_shared(
        std::make_shared<const std::vector<uint32_t>>(shared_idx), 1.0f);
    if (!bits_equal(d.val, ref_shared)) return 2;
  }
  if (with_unique) {
    const SparseDelta d = wd.take_unique(1.0f);
    if (!bits_equal(d.val, ref_uni)) return 3;
    if (*d.idx != uni.idx) return 4;
  }
  if (!bits_equal(wd.take_stats(), stats)) return 5;

  // Mutation robustness: truncations and byte flips must never escape as
  // anything but CheckError (bad_alloc would mean a silently-trusted huge
  // length — also a bug).
  for (int m = 0; m < 16; ++m) {
    std::vector<uint8_t> bad = buf;
    if (rng.bernoulli(0.4) && !bad.empty()) {
      bad.resize(static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1)));
    } else if (!bad.empty()) {
      const size_t pos = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1));
      bad[pos] = static_cast<uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      wire::WireDecoder mutated(bad.data(), bad.size(), dim);
      // A surviving decode is fine (the mutation may have hit values).
    } catch (const CheckError&) {
      // Expected failure mode for malformed frames.
    }
  }

  // Server-survives leg. First, the Byzantine injection path: a
  // corrupt_frame'd buffer must ALWAYS fail the decoder's whole-frame
  // validation — the engines rely on this to model rejection.
  {
    std::vector<uint8_t> byz = buf;
    scenario::corrupt_frame(byz);
    bool rejected = false;
    try {
      wire::WireDecoder bad(byz.data(), byz.size(), dim);
    } catch (const CheckError&) {
      rejected = true;
    }
    if (!rejected) return 7;
  }
  // Second, the aggregate loop the strategies run: each mutated frame is
  // either fully consumed (ctor + every take_*) or dropped as CheckError.
  // A decode that survives the ctor but then crashes mid-take, or any
  // escape that is not CheckError, would let one hostile client kill or
  // poison the round.
  {
    double folded = 0.0;
    for (int m = 0; m < 8; ++m) {
      std::vector<uint8_t> bad = buf;
      if (rng.bernoulli(0.4) && !bad.empty()) {
        bad.resize(static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(bad.size()) - 1)));
      } else if (!bad.empty()) {
        const size_t pos = static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(bad.size()) - 1));
        bad[pos] = static_cast<uint8_t>(rng.uniform_int(0, 255));
      }
      try {
        wire::WireDecoder srv(bad.data(), bad.size(), dim);
        if (srv.has_dense()) {
          const SparseDelta d = srv.take_dense(1.0f);
          for (const float v : d.val) folded += v;
        }
        if (srv.has_shared()) {
          const SparseDelta d = srv.take_shared(
              std::make_shared<const std::vector<uint32_t>>(shared_idx),
              1.0f);
          for (const float v : d.val) folded += v;
        }
        if (srv.has_unique()) {
          const SparseDelta d = srv.take_unique(1.0f);
          for (const float v : d.val) folded += v;
        }
        if (srv.has_stats()) {
          for (const float v : srv.take_stats()) folded += v;
        }
      } catch (const CheckError&) {
        // Rejected before anything was folded — the strategies' path.
      }
    }
    // Keep `folded` observable so the loop is not optimized away. Mutated
    // value bytes may legitimately decode to NaN/inf — only containment
    // (decode-or-CheckError) is the contract, not the folded sum.
    volatile double sink = folded;
    (void)sink;
  }

  // Same contract for the standalone mask codec: round-trip a random
  // mask, then mutate its frame (a hostile dim varint must fail as
  // CheckError before any allocation, never as bad_alloc/OOM).
  BitMask mask(dim);
  for (const uint32_t i : shared_idx) mask.set(i);
  const std::vector<uint8_t> mbuf = wire::encode_mask(mask);
  if (!(wire::decode_mask(mbuf.data(), mbuf.size()) == mask)) return 6;
  for (int m = 0; m < 8; ++m) {
    std::vector<uint8_t> bad = mbuf;
    if (rng.bernoulli(0.4) && !bad.empty()) {
      bad.resize(static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1)));
    } else if (!bad.empty()) {
      const size_t pos = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1));
      bad[pos] = static_cast<uint8_t>(rng.uniform_int(0, 255));
    }
    try {
      (void)wire::decode_mask(bad.data(), bad.size());
    } catch (const CheckError&) {
      // Expected failure mode for malformed frames.
    }
  }
  return 0;
}

}  // namespace

int main() {
  const size_t iters = env_or("GLUEFL_FUZZ_ITERS", 300);
  const uint64_t seed0 = env_or("GLUEFL_FUZZ_SEED", 20260731);
  for (size_t i = 0; i < iters; ++i) {
    int rc = 0;
    try {
      rc = run_iteration(seed0 + i);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "iteration %zu (seed %llu) threw: %s\n", i,
                   static_cast<unsigned long long>(seed0 + i), e.what());
      return 1;
    }
    if (rc != 0) {
      std::fprintf(stderr,
                   "iteration %zu (seed %llu) round-trip mismatch (code %d)\n",
                   i, static_cast<unsigned long long>(seed0 + i), rc);
      return 1;
    }
  }
  std::printf("wire fuzz smoke: %zu iterations ok\n", iters);
  return 0;
}
