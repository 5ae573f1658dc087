// Wire-codec throughput and encoded-vs-analytic byte deltas at OpenImage
// scale (PR 4 tentpole; PR 7 adds the per-kernel blocks). The codec sits
// on the simulator's per-client hot path — every included client's upload
// is serialized each round — and on a single core codec cost is pure
// round-latency overhead; this bench
// records it for the perf trajectory.
//
// The payload is GlueFL-shaped at the ShuffleNet/OpenImage real-model
// dimension (5e6 params): a 16% shared-mask values-only component, a 4%
// unique top-k component (delta-varint positions), and a BN-stats rider,
// encoded at fp32 and at 8/4/1-bit per-chunk quantization. Every
// supported codec kernel (portable / sse / avx2, see DESIGN.md §7a) gets
// its own timing block; every arm decodes what it encoded and is verified
// bit-exactly against the PORTABLE reference stream before timing is
// reported, so the blocks double as a cross-kernel identity check.
//
// The decode timing mirrors the engines' actual fold path: the cohort
// support and its precomputed support_id are hoisted out of the per-frame
// loop (strategies hash the support once per round, not once per client
// frame — see WireDecoder::take_shared).
//
// Environment knobs:
//   GLUEFL_WIRE_DIM=n       model dimension override (CI smoke uses 65536)
//   GLUEFL_WIRE_KERNEL=k    forces the auto-dispatched kernel (the bench
//                           still measures every supported kernel)
//   GLUEFL_BENCH_JSON=FILE  machine-readable summary (perf trajectory)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
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
#include "wire/kernels.h"

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

struct KernelBlock {
  std::string kernel;
  std::vector<Arm> arms;
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

  const std::string active0 = wire::active_kernel().name;
  bench::print_header(
      "Wire-codec throughput (encode + decode) and byte accounting",
      "PR 4 tentpole; PR 7: SIMD-dispatched kernels",
      "GlueFL-shaped upload at dim=" + std::to_string(dim) +
          " (16% shared + 4% unique + stats), single core; active kernel: " +
          active0);

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

  // The quantized reference streams come from the PORTABLE kernel — the
  // definition of correct output — so every other kernel's round trip is
  // checked against it (and the encoded frames against the portable
  // frames), making the timing blocks a cross-kernel identity check too.
  std::map<int, std::vector<float>> ref_shared, ref_uni;
  std::map<int, std::vector<uint8_t>> ref_frame;
  wire::force_kernel(wire::KernelKind::kPortable);
  for (const int bits : kBitsArms) {
    Rng ref_rng(7);
    ref_shared[bits] = shared_vals;
    ref_uni[bits] = uni.val;
    wire::quantize_values(ref_shared[bits].data(), ref_shared[bits].size(),
                          bits, ref_rng);
    wire::quantize_values(ref_uni[bits].data(), ref_uni[bits].size(), bits,
                          ref_rng);
  }

  std::vector<KernelBlock> blocks;
  for (const wire::KernelKind kind : wire::supported_kernels()) {
    wire::force_kernel(kind);
    KernelBlock block;
    block.kernel = wire::active_kernel().name;
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
      if (ref_frame.count(bits) == 0) {
        ref_frame[bits] = buf;  // first (portable) block pins the bytes
      }
      GLUEFL_CHECK_MSG(buf == ref_frame[bits],
                       "kernel '" + block.kernel +
                           "' encoded different bytes than portable");

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

      const bool exact = dec_shared.val == ref_shared[bits] &&
                         dec_unique.val == ref_uni[bits] &&
                         dec_stats == stats && *dec_unique.idx == uni.idx;
      arm.roundtrip_exact = exact;
      GLUEFL_CHECK_MSG(exact, "kernel '" + block.kernel +
                                  "' round trip diverged from the portable "
                                  "reference");

      arm.encode_mvalues_per_s =
          static_cast<double>(carried) / (arm.encode_ms * 1e-3) / 1e6;
      arm.decode_mvalues_per_s =
          static_cast<double>(carried) / (arm.decode_ms * 1e-3) / 1e6;
      block.arms.push_back(arm);
    }
    blocks.push_back(std::move(block));
  }

  // Leave the process on the kernel it started with (env/auto dispatch).
  for (const wire::KernelKind kind : wire::supported_kernels()) {
    if (active0 == wire::kernel(kind).name) wire::force_kernel(kind);
  }
  const KernelBlock* primary = &blocks.front();
  for (const KernelBlock& b : blocks) {
    if (b.kernel == active0) primary = &b;
  }

  // The shared mask itself rides the downlink: bitmap versus measured pick.
  const BitMask mask = BitMask::from_indices(dim, shared_idx);
  const size_t mask_bitmap = mask.wire_bytes();
  const size_t mask_encoded = wire::encoded_mask_bytes(mask);

  TablePrinter t;
  t.set_headers({"bits", "encode (ms)", "decode (ms)", "enc Mv/s",
                 "dec Mv/s", "encoded", "analytic", "delta"});
  for (const auto& a : primary->arms) {
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
  std::cout << "active kernel: " << primary->kernel << "\n" << t.to_string();

  TablePrinter kt;
  kt.set_headers({"kernel", "bits", "enc (ms)", "dec (ms)", "enc Mv/s",
                  "dec Mv/s"});
  for (const auto& b : blocks) {
    for (const auto& a : b.arms) {
      kt.add_row({b.kernel, std::to_string(a.bits),
                  fmt_double(a.encode_ms, 2), fmt_double(a.decode_ms, 2),
                  fmt_double(a.encode_mvalues_per_s, 1),
                  fmt_double(a.decode_mvalues_per_s, 1)});
    }
  }
  std::cout << "\nper-kernel blocks (every block verified bit-identical to "
               "portable):\n"
            << kt.to_string();
  std::cout << "\nshared-mask downlink frame: bitmap "
            << fmt_bytes(static_cast<double>(mask_bitmap)) << " -> measured "
            << fmt_bytes(static_cast<double>(mask_encoded))
            << "\nShape: fp32 encodes are memcpy-bound; the SIMD kernels "
               "close the quantized\ngap (stochastic-rounding math + "
               "pack/unpack, DESIGN.md S7a); delta-varint\npositions "
               "undercut the analytic 4-byte/bitmap estimate, so measured\n"
               "payloads come in at or below the analytic sizes (the delta "
               "column).\n";

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
    json << "{\"schema\": \"gluefl.bench_wire_codec.v2\", \"dim\": " << dim
         << ", \"k_shr\": " << k_shr << ", \"k_uni\": " << k_uni
         << ", \"stat_dim\": " << kStatDim
         << ", \"kernel\": \"" << primary->kernel << "\""
         << ", \"mask_bitmap_bytes\": " << mask_bitmap
         << ", \"mask_encoded_bytes\": " << mask_encoded << ", \"arms\": [";
    for (size_t i = 0; i < primary->arms.size(); ++i) {
      if (i > 0) json << ", ";
      arm_json(json, primary->arms[i]);
    }
    json << "], \"kernels\": [";
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (b > 0) json << ", ";
      json << "{\"kernel\": \"" << blocks[b].kernel << "\", \"arms\": [";
      for (size_t i = 0; i < blocks[b].arms.size(); ++i) {
        if (i > 0) json << ", ";
        arm_json(json, blocks[b].arms[i]);
      }
      json << "]}";
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
