// Wire-codec throughput and encoded-vs-analytic byte deltas at OpenImage
// scale. The codec sits on the simulator's per-client hot path — every
// included client's upload is serialized each round — and on a single
// core codec cost is pure round-latency overhead; this bench records it
// for the perf trajectory.
//
// The payload is GlueFL-shaped at the ShuffleNet/OpenImage real-model
// dimension (5e6 params): a 16% shared-mask values-only component, a 4%
// unique top-k component (delta-varint positions), and a BN-stats rider,
// encoded at fp32 and at 8/4/1-bit per-chunk quantization. Every arm
// decodes what it encoded and is verified bit-exactly against the
// wire::quantize_values reference stream before timing is reported.
//
// The decode timing mirrors the engines' actual fold path: the cohort
// support and its precomputed support_id are hoisted out of the per-frame
// loop (strategies hash the support once per round, not once per client
// frame — see WireDecoder::take_shared).
//
// Environment knobs:
//   GLUEFL_WIRE_DIM=n       model dimension override (CI smoke uses 65536)
//   GLUEFL_BENCH_JSON=FILE  machine-readable summary (perf trajectory)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/test_util.h"  // random_support: one sampler for tests+bench
#include "bench_common.h"
#include "common/rng.h"
#include "compress/encoding.h"
#include "compress/quantizer.h"
#include "compress/topk.h"
#include "wire/codec.h"

using namespace gluefl;
using gluefl::testing::random_support;

namespace {

constexpr double kQShr = 0.16;
constexpr double kQUni = 0.04;
constexpr size_t kStatDim = 512;
constexpr int kBitsArms[] = {32, 8, 4, 1};

struct Arm {
  int bits = 32;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double encode_mvalues_per_s = 0.0;
  double decode_mvalues_per_s = 0.0;
  size_t encoded_bytes = 0;
  size_t analytic_bytes = 0;
  bool roundtrip_exact = false;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const size_t dim = bench::env_positive("GLUEFL_WIRE_DIM", 5000000);
  const size_t k_shr = static_cast<size_t>(kQShr * static_cast<double>(dim));
  const size_t k_uni = static_cast<size_t>(kQUni * static_cast<double>(dim));

  bench::print_header(
      "Wire-codec throughput (encode + decode) and byte accounting",
      "codec cost beyond the paper: per-client upload serialization",
      "GlueFL-shaped upload at dim=" + std::to_string(dim) +
          " (16% shared + 4% unique + stats), single core");

  Rng rng(42);
  const auto shared_idx = random_support(dim, k_shr, rng);
  const uint32_t shared_id = wire::support_id(shared_idx);
  const auto support =
      std::make_shared<const std::vector<uint32_t>>(shared_idx);
  SparseVec uni;
  uni.idx = random_support(dim, k_uni, rng);
  uni.val.resize(uni.idx.size());
  for (auto& v : uni.val) v = static_cast<float>(rng.normal() * 1e-2);
  std::vector<float> shared_vals(shared_idx.size());
  for (auto& v : shared_vals) v = static_cast<float>(rng.normal() * 1e-2);
  std::vector<float> stats(kStatDim);
  for (auto& v : stats) v = static_cast<float>(rng.normal());

  const size_t carried = shared_vals.size() + uni.val.size() + kStatDim;

  std::vector<Arm> arms;
  for (const int bits : kBitsArms) {
    Arm arm;
    arm.bits = bits;

    // Analytic estimate for the same payload: values-only shared +
    // sparse unique + dense fp32 stats; quantized arms price values
    // through UniformQuantizer::payload_bytes (which delegates to the
    // wire sizes).
    if (bits == 32) {
      arm.analytic_bytes = values_only_bytes(k_shr) +
                           sparse_update_bytes(k_uni, dim) +
                           dense_bytes(kStatDim);
    } else {
      const UniformQuantizer q(bits);
      arm.analytic_bytes = q.payload_bytes(k_shr) + q.payload_bytes(k_uni) +
                           position_bytes(k_uni, dim) +
                           dense_bytes(kStatDim);
    }

    std::vector<uint8_t> buf;
    arm.encode_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Rng enc_rng(7);  // same stream every rep -> identical buffers
      const auto t0 = std::chrono::steady_clock::now();
      wire::WireEncoder we(dim, bits, &enc_rng);
      we.add_shared(shared_vals.data(), shared_vals.size(), shared_id);
      we.add_unique(uni);
      we.add_stats(stats.data(), stats.size());
      buf = we.finish();
      arm.encode_ms = std::min(arm.encode_ms, ms_since(t0));
    }
    arm.encoded_bytes = buf.size();

    arm.decode_ms = 1e300;
    SparseDelta dec_shared, dec_unique;
    std::vector<float> dec_stats;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      wire::WireDecoder wd(buf.data(), buf.size(), dim);
      dec_shared = wd.take_shared(support, 1.0f, &shared_id);
      dec_unique = wd.take_unique(1.0f);
      dec_stats = wd.take_stats();
      arm.decode_ms = std::min(arm.decode_ms, ms_since(t0));
    }

    // The round trip must equal the reference transform driven by the
    // encoder's Rng stream (shared values first, then unique ones).
    Rng ref_rng(7);
    std::vector<float> ref_shared = shared_vals;
    std::vector<float> ref_uni = uni.val;
    wire::quantize_values(ref_shared.data(), ref_shared.size(), bits,
                          ref_rng);
    wire::quantize_values(ref_uni.data(), ref_uni.size(), bits, ref_rng);
    arm.roundtrip_exact = dec_shared.val == ref_shared &&
                          dec_unique.val == ref_uni && dec_stats == stats &&
                          *dec_unique.idx == uni.idx;
    GLUEFL_CHECK_MSG(arm.roundtrip_exact,
                     "round trip diverged from the reference transform at " +
                         std::to_string(bits) + " bits");

    arm.encode_mvalues_per_s =
        static_cast<double>(carried) / (arm.encode_ms * 1e-3) / 1e6;
    arm.decode_mvalues_per_s =
        static_cast<double>(carried) / (arm.decode_ms * 1e-3) / 1e6;
    arms.push_back(arm);
  }

  // The shared mask itself rides the downlink: bitmap versus measured pick.
  const BitMask mask = BitMask::from_indices(dim, shared_idx);
  const size_t mask_bitmap = mask.wire_bytes();
  const size_t mask_encoded = wire::encoded_mask_bytes(mask);

  TablePrinter t;
  t.set_headers({"bits", "encode (ms)", "decode (ms)", "enc Mv/s",
                 "dec Mv/s", "encoded", "analytic", "delta"});
  for (const auto& a : arms) {
    const double delta = static_cast<double>(a.encoded_bytes) /
                             static_cast<double>(a.analytic_bytes) -
                         1.0;
    t.add_row({std::to_string(a.bits), fmt_double(a.encode_ms, 2),
               fmt_double(a.decode_ms, 2),
               fmt_double(a.encode_mvalues_per_s, 1),
               fmt_double(a.decode_mvalues_per_s, 1),
               fmt_bytes(static_cast<double>(a.encoded_bytes)),
               fmt_bytes(static_cast<double>(a.analytic_bytes)),
               fmt_percent(delta)});
  }
  std::cout << t.to_string();
  std::cout << "\nshared-mask downlink frame: bitmap "
            << fmt_bytes(static_cast<double>(mask_bitmap)) << " -> measured "
            << fmt_bytes(static_cast<double>(mask_encoded))
            << "\nShape: fp32 encodes are memcpy-bound; quantized arms pay "
               "for stochastic-rounding\nmath and pack/unpack (DESIGN.md "
               "S7); delta-varint positions undercut the\nanalytic "
               "4-byte/bitmap estimate, so measured payloads come in at or "
               "below\nthe analytic sizes (the delta column).\n";

  if (const char* path = std::getenv("GLUEFL_BENCH_JSON")) {
    const auto arm_json = [](std::ostringstream& json, const Arm& a) {
      json << "{\"bits\": " << a.bits << ", \"encode_ms\": " << a.encode_ms
           << ", \"decode_ms\": " << a.decode_ms
           << ", \"mvalues_per_s\": " << a.encode_mvalues_per_s
           << ", \"decode_mvalues_per_s\": " << a.decode_mvalues_per_s
           << ", \"encoded_bytes\": " << a.encoded_bytes
           << ", \"analytic_bytes\": " << a.analytic_bytes
           << ", \"roundtrip_exact\": "
           << (a.roundtrip_exact ? "true" : "false") << "}";
    };
    std::ostringstream json;
    json << "{\"schema\": \"gluefl.bench_wire_codec.v3\", \"dim\": " << dim
         << ", \"k_shr\": " << k_shr << ", \"k_uni\": " << k_uni
         << ", \"stat_dim\": " << kStatDim
         << ", \"mask_bitmap_bytes\": " << mask_bitmap
         << ", \"mask_encoded_bytes\": " << mask_encoded << ", \"arms\": [";
    for (size_t i = 0; i < arms.size(); ++i) {
      if (i > 0) json << ", ";
      arm_json(json, arms[i]);
    }
    json << "]}";
    std::ofstream f(path);
    GLUEFL_CHECK_MSG(f.good(), std::string("cannot open GLUEFL_BENCH_JSON "
                                           "file '") + path + "'");
    f << json.str() << "\n";
    std::cout << "\nJSON summary written to " << path << "\n";
  }
  return 0;
}
