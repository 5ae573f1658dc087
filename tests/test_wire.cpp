// Wire codec (src/wire/, DESIGN.md §7): golden buffers, bit-exact
// round-trips across bit widths and payload shapes, decoder validation,
// and the documented size envelope of measured frames around the §5
// formulas, shape by shape and through the engines.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "compress/encoding.h"
#include "compress/quantizer.h"
#include "compress/topk.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "fl/uplink.h"
#include "strategies/apf.h"
#include "strategies/async_fedbuff.h"
#include "strategies/fedavg.h"
#include "strategies/gluefl.h"
#include "strategies/stc.h"
#include "test_util.h"
#include "wire/codec.h"

namespace gluefl {
namespace {

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

std::vector<uint8_t> from_hex(const std::string& hex) {
  std::vector<uint8_t> out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

using testing::random_support;
using testing::random_vals;

// ---- golden buffers (committed hex fixtures; layout per DESIGN.md §7) ----

TEST(WireGolden, Fp32UniqueAndStatsFrame) {
  // dim=16, unique idx {1,5,6,15} (bitmap wins: 2 bytes), fp32 values,
  // two stats floats. Header 5747 | 01 | 02 sections | dim 0x10.
  SparseVec uni;
  uni.idx = {1, 5, 6, 15};
  uni.val = {1.0f, -2.0f, 0.5f, 8.0f};
  const std::vector<float> stats = {0.25f, -0.5f};
  wire::WireEncoder we(16);
  we.add_unique(uni);
  we.add_stats(stats.data(), stats.size());
  const auto buf = we.finish();
  EXPECT_EQ(buf, from_hex("57470102100204026280200000803f000000c00000003f"
                          "0000004103020000803e000000bf"));

  wire::WireDecoder wd(buf.data(), buf.size(), 16);
  const SparseDelta d = wd.take_unique(2.0f);
  EXPECT_EQ(*d.idx, uni.idx);
  EXPECT_EQ(d.val, uni.val);
  EXPECT_FLOAT_EQ(d.weight, 2.0f);
  EXPECT_EQ(wd.take_stats(), stats);
}

TEST(WireGolden, QuantizedSharedFrame) {
  // dim=8, 4-bit shared values against the full support, Rng(123) driving
  // the stochastic rounding. One chunk: max_abs 1.0f + 4 packed bytes.
  const std::vector<uint32_t> sup = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<float> vals = {0.5f,  -1.0f, 0.25f, 0.75f,
                             -0.25f, 1.0f,  0.0f,  -0.75f};
  Rng rng(123);
  wire::WireEncoder we(8, 4, &rng);
  we.add_shared(vals.data(), vals.size(), wire::support_id(sup));
  const auto buf = we.finish();
  EXPECT_EQ(buf, from_hex("574701010801c5f94fb408040000803f0cd9f628"));

  // Decode must equal the reference transform with the same Rng stream.
  Rng ref(123);
  wire::quantize_values(vals.data(), vals.size(), 4, ref);
  wire::WireDecoder wd(buf.data(), buf.size(), 8);
  const SparseDelta d = wd.take_shared(
      std::make_shared<const std::vector<uint32_t>>(sup), 1.0f);
  EXPECT_EQ(d.val, vals);
}

TEST(WireGolden, MaskFrames) {
  // Sparse mask at dim=4096: run-length wins (9 bytes vs 512 bitmap).
  BitMask sparse(4096);
  for (size_t i = 0; i < 8; ++i) sparse.set(i);
  sparse.set(20);
  EXPECT_EQ(wire::encode_mask(sparse), from_hex("01802000080c01eb1f"));

  // Alternating mask at dim=40: the bitmap fallback wins.
  BitMask alt(40);
  for (size_t i = 0; i < 40; i += 2) alt.set(i);
  EXPECT_EQ(wire::encode_mask(alt), from_hex("00285555555555"));
}

TEST(WireQuantize, AllZeroChunkDrawsNothing) {
  // An all-zero chunk quantizes to level 0 everywhere and draws NOTHING
  // from the rng: the draw-sequence contract (DESIGN.md §7).
  std::vector<float> x(wire::kValueChunk, 0.0f);
  Rng rng(9), untouched(9);
  wire::quantize_values(x.data(), x.size(), 4, rng);
  for (const float v : x) ASSERT_EQ(v, 0.0f);
  EXPECT_EQ(rng.uniform(), untouched.uniform());

  // Through the encoder: a zero scale, then all-zero packed levels.
  wire::WireEncoder we(x.size(), 4, &rng);
  we.add_dense(x.data(), x.size());
  const auto buf = we.finish();
  const size_t levels = wire::kValueChunk * 4 / 8;
  ASSERT_GE(buf.size(), levels + 4);
  for (size_t i = buf.size() - levels - 4; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], 0u) << i;
  }
  EXPECT_EQ(rng.uniform(), untouched.uniform());
}

// ---- round-trip identity: decode(encode(x)) == quantized x, bit-exact ----

class WireRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(WireRoundTrip, StrategyShapedPayloads) {
  const int bits = GetParam();
  // Shapes mirror the five strategies: dense (fedavg / async-fedbuff),
  // shared-only (apf), unique-only (stc), shared+unique (gluefl).
  for (const size_t dim : {size_t{1}, size_t{64}, size_t{300}, size_t{1031}}) {
    Rng data_rng(1000 + dim + static_cast<size_t>(bits));
    const auto sup = random_support(dim, dim / 3 + 1, data_rng);
    const auto shared_vals = random_vals(sup.size(), data_rng);
    SparseVec uni;
    uni.idx = random_support(dim, dim / 4 + 1, data_rng);
    uni.val = random_vals(uni.idx.size(), data_rng);
    const auto dense_vals = random_vals(dim, data_rng);
    const auto stats = random_vals(17, data_rng);

    // gluefl-shaped frame: shared + unique + stats.
    {
      Rng enc_rng(7), ref_rng(7);
      wire::WireEncoder we(dim, bits, &enc_rng);
      we.add_shared(shared_vals.data(), shared_vals.size(),
                    wire::support_id(sup));
      we.add_unique(uni);
      we.add_stats(stats.data(), stats.size());
      const auto buf = we.finish();

      std::vector<float> ref_shared = shared_vals, ref_uni = uni.val;
      wire::quantize_values(ref_shared.data(), ref_shared.size(), bits,
                            ref_rng);
      wire::quantize_values(ref_uni.data(), ref_uni.size(), bits, ref_rng);

      wire::WireDecoder wd(buf.data(), buf.size(), dim);
      const SparseDelta ds = wd.take_shared(
          std::make_shared<const std::vector<uint32_t>>(sup), 0.5f);
      EXPECT_EQ(ds.val, ref_shared) << "bits=" << bits << " dim=" << dim;
      const SparseDelta du = wd.take_unique(0.25f);
      EXPECT_EQ(du.val, ref_uni);
      EXPECT_EQ(*du.idx, uni.idx);
      EXPECT_EQ(wd.take_stats(), stats);  // stats are never quantized
    }
    // dense frame.
    {
      Rng enc_rng(9), ref_rng(9);
      wire::WireEncoder we(dim, bits, &enc_rng);
      we.add_dense(dense_vals.data(), dim);
      const auto buf = we.finish();
      std::vector<float> ref = dense_vals;
      wire::quantize_values(ref.data(), ref.size(), bits, ref_rng);
      wire::WireDecoder wd(buf.data(), buf.size(), dim);
      const SparseDelta d = wd.take_dense(1.0f);
      EXPECT_TRUE(d.is_dense());
      EXPECT_EQ(d.val, ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, WireRoundTrip,
                         ::testing::Values(1, 4, 8, 16, 32));

TEST(WireRoundTripEdge, EmptyAndFullSupports) {
  const size_t dim = 500;
  Rng rng(5);
  // Empty unique support.
  {
    SparseVec none;
    wire::WireEncoder we(dim);
    we.add_unique(none);
    const auto buf = we.finish();
    wire::WireDecoder wd(buf.data(), buf.size(), dim);
    const SparseDelta d = wd.take_unique(1.0f);
    EXPECT_EQ(d.nnz(), 0u);
  }
  // Full-density support (every coordinate carried).
  {
    SparseVec full;
    full.idx.resize(dim);
    for (size_t i = 0; i < dim; ++i) full.idx[i] = static_cast<uint32_t>(i);
    full.val = random_vals(dim, rng);
    wire::WireEncoder we(dim);
    we.add_unique(full);
    const auto buf = we.finish();
    wire::WireDecoder wd(buf.data(), buf.size(), dim);
    const SparseDelta d = wd.take_unique(1.0f);
    EXPECT_EQ(*d.idx, full.idx);
    EXPECT_EQ(d.val, full.val);
  }
}

TEST(WireMask, EmptyFullAndRandomRoundTrip) {
  for (const size_t dim :
       {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{1000},
        size_t{4096}}) {
    const BitMask empty(dim);
    const auto eb = wire::encode_mask(empty);
    EXPECT_EQ(wire::decode_mask(eb.data(), eb.size()), empty);
    BitMask full(dim);
    full.set_all();
    const auto fb = wire::encode_mask(full);
    EXPECT_EQ(wire::decode_mask(fb.data(), fb.size()), full);
    // A full-density mask must compress to a handful of run lengths.
    EXPECT_LE(fb.size(), 16u);

    Rng rng(dim);
    BitMask rnd(dim);
    for (size_t i = 0; i < dim; ++i) {
      if (rng.bernoulli(0.3)) rnd.set(i);
    }
    const auto rb = wire::encode_mask(rnd);
    EXPECT_EQ(wire::decode_mask(rb.data(), rb.size()), rnd);
    // The codec never loses to the plain bitmap by more than the header.
    EXPECT_LE(rb.size(), rnd.wire_bytes() + wire::kMaxFrameOverhead);
  }
}

// ---- decoder validation ----

TEST(WireDecoderErrors, RejectsMalformedFrames) {
  SparseVec uni;
  uni.idx = {1, 3};
  uni.val = {1.0f, 2.0f};
  wire::WireEncoder we(8);
  we.add_unique(uni);
  const auto buf = we.finish();

  // Valid frame parses.
  EXPECT_NO_THROW(wire::WireDecoder(buf.data(), buf.size(), 8));
  // Wrong dimension.
  EXPECT_THROW(wire::WireDecoder(buf.data(), buf.size(), 9), CheckError);
  // Truncation.
  EXPECT_THROW(wire::WireDecoder(buf.data(), buf.size() - 1, 8), CheckError);
  // Bad magic / version.
  auto bad = buf;
  bad[0] ^= 0xff;
  EXPECT_THROW(wire::WireDecoder(bad.data(), bad.size(), 8), CheckError);
  bad = buf;
  bad[2] = 99;
  EXPECT_THROW(wire::WireDecoder(bad.data(), bad.size(), 8), CheckError);

  // A 10-byte varint whose final byte carries bits beyond the 64-bit
  // range must be rejected, not silently aliased to a small value (here
  // 2^64 + 5 would otherwise parse as dim = 5).
  const auto alias = from_hex("0185808080808080808002");
  EXPECT_THROW(wire::decode_mask(alias.data(), alias.size()), CheckError);

  // Wrong cohort support (size or id) on take_shared.
  const std::vector<uint32_t> sup = {0, 2, 4};
  std::vector<float> vals = {1.0f, 2.0f, 3.0f};
  wire::WireEncoder ws(8);
  ws.add_shared(vals.data(), vals.size(), wire::support_id(sup));
  const auto sbuf = ws.finish();
  wire::WireDecoder wd(sbuf.data(), sbuf.size(), 8);
  const auto wrong = std::make_shared<const std::vector<uint32_t>>(
      std::vector<uint32_t>{0, 2, 5});
  EXPECT_THROW(wd.take_shared(wrong, 1.0f), CheckError);
  // No unique section present.
  EXPECT_THROW(wd.take_unique(1.0f), CheckError);
}

// ---- sizes: delegation + the documented encoded-vs-analytic envelope ----

TEST(WireSizes, QuantizerPayloadBytesDelegatesToWire) {
  for (const int bits : {1, 2, 4, 8, 12, 16}) {
    const UniformQuantizer q(bits);
    for (const size_t n : {size_t{0}, size_t{16}, size_t{100}, size_t{256},
                           size_t{257}, size_t{10000}}) {
      EXPECT_EQ(q.payload_bytes(n), wire::quantized_values_bytes(n, bits))
          << "bits=" << bits << " n=" << n;
    }
  }
  // Legacy single-chunk sizes are unchanged...
  EXPECT_EQ(UniformQuantizer(8).payload_bytes(100), 104u);
  EXPECT_EQ(UniformQuantizer(1).payload_bytes(16), 6u);
  // ...while multi-chunk payloads now charge one scale per 256 values
  // (the old "+4" under-counted real encodings).
  EXPECT_EQ(UniformQuantizer(8).payload_bytes(1024), 1024u + 4u * 4u);
}

TEST(WireSizes, EncodedWithinDocumentedEnvelopeOfAnalytic) {
  // Per payload: values + stats bytes match the analytic formulas exactly;
  // measured position bytes never exceed the analytic position estimate
  // (the encoder picks from a superset of the analytic encodings); framing
  // adds at most kMaxFrameOverhead. Hence
  //   encoded <= analytic + kMaxFrameOverhead, and
  //   encoded >= analytic - position_bytes(analytic).
  Rng rng(77);
  for (const size_t dim : {size_t{100}, size_t{4096}, size_t{100000}}) {
    for (const double density : {0.01, 0.04, 0.2}) {
      const size_t k = std::max<size_t>(
          1, static_cast<size_t>(density * static_cast<double>(dim)));
      SparseVec uni;
      uni.idx = random_support(dim, k, rng);
      uni.val = random_vals(uni.idx.size(), rng);
      const auto stats = random_vals(33, rng);

      wire::WireEncoder we(dim);
      we.add_unique(uni);
      we.add_stats(stats.data(), stats.size());
      const size_t encoded = we.finish().size();
      const size_t analytic =
          sparse_update_bytes(uni.idx.size(), dim) + dense_bytes(33);
      EXPECT_LE(encoded, analytic + wire::kMaxFrameOverhead)
          << "dim=" << dim << " k=" << k;
      EXPECT_GE(encoded + position_bytes(uni.idx.size(), dim), analytic)
          << "dim=" << dim << " k=" << k;
    }
  }
}

TEST(WireSizes, DenseFrameBytesIsTheSealedFrameSize) {
  // dense_frame_bytes prices an async upload before it exists, and FedAvg
  // and the async engine size their frame buffers with it: it must be the
  // sealed frame's size at every dim-varint width, with and without
  // stats, Byzantine or not, and the buffer must come out sized once.
  Rng rng(31);
  for (const size_t dim : {size_t{1}, size_t{127}, size_t{128},
                           size_t{16384}, size_t{33600}}) {
    for (const size_t stat_dim : {size_t{0}, size_t{2}, size_t{514}}) {
      const std::vector<float> delta = random_vals(dim, rng);
      const std::vector<float> stats = random_vals(stat_dim, rng);
      for (const bool byzantine : {false, true}) {
        wire::WireEncoder we(dim);
        we.reserve(wire::dense_frame_bytes(dim, stat_dim));
        we.add_dense(delta.data(), dim);
        we.add_stats(stats.data(), stat_dim);
        const std::vector<uint8_t> frame =
            uplink::seal(std::move(we), byzantine);
        EXPECT_EQ(frame.size(), wire::dense_frame_bytes(dim, stat_dim))
            << "dim " << dim << " stat_dim " << stat_dim;
        EXPECT_EQ(frame.capacity(), frame.size())
            << "dim " << dim << " stat_dim " << stat_dim;
      }
    }
  }
}

TEST(WireSizes, SyncFrameWithinEnvelopeOfAnalyticSyncBytes) {
  const size_t dim = 8192;
  Rng rng(3);
  for (const double density : {0.0, 0.02, 0.3, 1.0}) {
    BitMask stale(dim);
    for (size_t i = 0; i < dim; ++i) {
      if (rng.uniform() < density) stale.set(i);
    }
    const size_t nnz = stale.count();
    const size_t encoded = wire::encoded_sync_bytes(stale);
    if (nnz == 0) {
      EXPECT_EQ(encoded, 0u);
      continue;
    }
    const size_t analytic =
        nnz == dim ? dense_bytes(dim) : sparse_update_bytes(nnz, dim);
    EXPECT_LE(encoded,
              analytic + position_bytes(nnz, dim) + wire::kMaxFrameOverhead);
    EXPECT_GE(encoded, nnz * 4);  // at least the fp32 values
  }
}

// ---- engine integration: uplink pricing + the analytic size envelope ----

SimEngine make_wire_engine(int rounds = 6, int k = 6, uint64_t seed = 42) {
  return SimEngine(make_synthetic_dataset(tiny_spec()), tiny_proxy(),
                   make_datacenter_env(), tiny_train_config(),
                   tiny_run_config(rounds, k, seed));
}

TEST(WireEngine, PriceUplinksAddsTheUploadLeg) {
  auto eng = make_wire_engine();
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2, 3};
  cand.need_nonsticky = 4;
  auto down = [](int) -> size_t { return 1000; };
  auto up = [](int c) -> size_t { return 500 + 100 * static_cast<size_t>(c); };
  RoundRecord rec;
  const Participation part =
      eng.simulate_participation(0, cand, down, up, rec);
  // Participation prices downloads and compute only; `up` just orders the
  // straggler cutoff until the real frames are priced.
  EXPECT_DOUBLE_EQ(rec.up_bytes, 0.0);
  EXPECT_DOUBLE_EQ(rec.up_time_s, 0.0);
  EXPECT_DOUBLE_EQ(rec.wall_time_s, 0.0);
  const double down_bytes = rec.down_bytes;
  eng.price_uplinks(part, up, rec);
  EXPECT_DOUBLE_EQ(rec.up_bytes, 500.0 + 600.0 + 700.0 + 800.0);
  EXPECT_GT(rec.up_time_s, 0.0);
  double slowest_ready = 0.0;
  for (const double r : part.ready_s) {
    slowest_ready = std::max(slowest_ready, r);
  }
  EXPECT_GT(rec.wall_time_s, slowest_ready);
  EXPECT_DOUBLE_EQ(rec.down_bytes, down_bytes);
}

std::unique_ptr<Strategy> make_gluefl_ab() {
  GlueFlConfig cfg;
  cfg.q = 0.2;
  cfg.q_shr = 0.15;
  cfg.regen_every = 4;
  cfg.sticky_group_size = 24;
  cfg.sticky_per_round = 4;
  return std::make_unique<GlueFlStrategy>(cfg);
}

TEST(WireEngine, GlueFlUploadsStayInsideTheAnalyticEnvelope) {
  // DESIGN §7 per frame: analytic - position bytes <= measured <= analytic
  // + kMaxFrameOverhead, where the analytic size is the §5 formula the
  // server uses as its straggler-cutoff estimate. Regeneration rounds (0
  // and every 4th) ship only a unique top-q part; the others a values-only
  // shared part on M_t plus a unique top-(q - q_shr) part.
  auto eng = make_wire_engine(9);
  auto strat = make_gluefl_ab();
  const RunResult res = eng.run(*strat);
  const size_t dim = eng.dim();
  for (const RoundRecord& r : res.rounds) {
    const bool regen = r.round % 4 == 0;
    const double q_shr = regen ? 0.0 : 0.15;
    const size_t k_shr = static_cast<size_t>(std::lround(q_shr * dim));
    const size_t k_uni = static_cast<size_t>(std::lround((0.2 - q_shr) * dim));
    const size_t analytic = values_only_bytes(k_shr) +
                            sparse_update_bytes(k_uni, dim) + eng.stat_bytes();
    const size_t positions = position_bytes(k_uni, dim);
    const double frames = r.num_included;
    ASSERT_GT(frames, 0.0);
    EXPECT_GE(r.up_bytes, frames * static_cast<double>(analytic - positions))
        << "round " << r.round;
    EXPECT_LE(r.up_bytes,
              frames * static_cast<double>(analytic + wire::kMaxFrameOverhead))
        << "round " << r.round;
  }
}

TEST(WireEngine, EncodedRunsAreDeterministic) {
  auto e1 = make_wire_engine(4);
  auto e2 = make_wire_engine(4);
  auto s1 = make_gluefl_ab();
  auto s2 = make_gluefl_ab();
  const RunResult r1 = e1.run(*s1);
  const RunResult r2 = e2.run(*s2);
  ASSERT_EQ(r1.rounds.size(), r2.rounds.size());
  for (size_t t = 0; t < r1.rounds.size(); ++t) {
    EXPECT_EQ(r1.rounds[t].down_bytes, r2.rounds[t].down_bytes);
    EXPECT_EQ(r1.rounds[t].up_bytes, r2.rounds[t].up_bytes);
    EXPECT_EQ(r1.rounds[t].train_loss, r2.rounds[t].train_loss);
  }
}

TEST(WireEngine, AsyncEncodedRunsAndPricesMeasuredBytes) {
  auto eng = make_wire_engine(5);
  AsyncConfig acfg;
  acfg.buffer_size = 3;
  acfg.concurrency = 9;
  AsyncFedBuffStrategy strat((AsyncFedBuffConfig()));
  AsyncSimEngine async(eng, acfg);
  const RunResult res = async.run(strat);
  ASSERT_FALSE(res.rounds.empty());
  double up = 0.0;
  int frames = 0;
  for (const auto& r : res.rounds) {
    up += r.up_bytes;
    frames += r.num_included;
  }
  // Dense fp32 frames carry no positions: analytic <= measured <= analytic
  // + kMaxFrameOverhead per frame.
  const double analytic =
      static_cast<double>(dense_bytes(eng.dim()) + eng.stat_bytes());
  EXPECT_GE(up, frames * analytic);
  EXPECT_LE(up, frames * (analytic + wire::kMaxFrameOverhead));
  // The folded updates decoded from wire frames still train the model.
  EXPECT_TRUE(std::isfinite(res.rounds.back().train_loss));
}

}  // namespace
}  // namespace gluefl
