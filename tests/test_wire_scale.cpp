// Wire-scaling semantics: when a proxy declares the real architecture's
// parameter count, every byte figure (and hence every transfer time) is
// scaled by real_params / proxy_params, while masking stays positionally
// exact on the proxy.
#include <cmath>

#include <gtest/gtest.h>

#include "compress/encoding.h"
#include "fl/engine.h"
#include "strategies/fedavg.h"
#include "test_util.h"

namespace gluefl {
namespace {

using testing::tiny_proxy;
using testing::tiny_run_config;
using testing::tiny_spec;
using testing::tiny_train_config;

ModelProxy scaled_proxy(double real_params) {
  ModelProxy p = tiny_proxy();
  p.real_params = real_params;
  return p;
}

SimEngine make_engine_with(ModelProxy proxy) {
  return SimEngine(make_synthetic_dataset(tiny_spec()), std::move(proxy),
                   make_datacenter_env(), tiny_train_config(),
                   tiny_run_config(6, 6, 42));
}

TEST(WireScale, DefaultsToUnityWithoutRealParams) {
  auto eng = make_engine_with(tiny_proxy());
  EXPECT_DOUBLE_EQ(eng.wire_scale(), 1.0);
}

TEST(WireScale, ComputedFromRealParams) {
  auto eng = make_engine_with(scaled_proxy(2440000.0));  // 10,000x of 244
  EXPECT_NEAR(eng.wire_scale(), 2440000.0 / 244.0, 1e-9);
}

TEST(WireScale, ScalesRecordedBytes) {
  auto base = make_engine_with(tiny_proxy());
  auto scaled = make_engine_with(scaled_proxy(244.0 * 100));
  CandidateSet cand;
  cand.nonsticky = {0, 1, 2};
  cand.need_nonsticky = 3;
  auto bytes = [](int) -> size_t { return 1000; };
  RoundRecord r_base, r_scaled;
  base.price_uplinks(base.simulate_participation(0, cand, bytes, bytes, r_base),
                     bytes, r_base);
  scaled.price_uplinks(
      scaled.simulate_participation(0, cand, bytes, bytes, r_scaled), bytes,
      r_scaled);
  EXPECT_NEAR(r_scaled.down_bytes, 100.0 * r_base.down_bytes, 1e-6);
  EXPECT_NEAR(r_scaled.up_bytes, 100.0 * r_base.up_bytes, 1e-6);
}

TEST(WireScale, ScalesTransferTimesButNotCompute) {
  auto base = make_engine_with(tiny_proxy());
  auto scaled = make_engine_with(scaled_proxy(244.0 * 100));
  CandidateSet cand;
  cand.nonsticky = {0};
  cand.need_nonsticky = 1;
  auto bytes = [](int) -> size_t { return 1000000; };
  RoundRecord r_base, r_scaled;
  base.price_uplinks(base.simulate_participation(0, cand, bytes, bytes, r_base),
                     bytes, r_base);
  scaled.price_uplinks(
      scaled.simulate_participation(0, cand, bytes, bytes, r_scaled), bytes,
      r_scaled);
  EXPECT_NEAR(r_scaled.down_time_s, 100.0 * r_base.down_time_s, 1e-9);
  EXPECT_NEAR(r_scaled.up_time_s, 100.0 * r_base.up_time_s, 1e-9);
  // Compute time depends on FLOPs, not bytes.
  EXPECT_NEAR(r_scaled.compute_time_s, r_base.compute_time_s, 1e-12);
}

TEST(WireScale, RealProxiesDeclareRealSizes) {
  const auto sn = make_shufflenet_proxy(64, 62);
  const auto mn = make_mobilenet_proxy(64, 62);
  const auto rn = make_resnet34_proxy(64, 35);
  EXPECT_DOUBLE_EQ(sn.real_params, 5e6);
  EXPECT_DOUBLE_EQ(mn.real_params, 3.5e6);
  EXPECT_DOUBLE_EQ(rn.real_params, 21.8e6);
}

TEST(WireScale, FullModelDownloadMatchesRealModelSize) {
  // A never-synced client's download in a FedAvg round must be ~the real
  // model's bytes (5M params * 4 B for the ShuffleNet proxy).
  auto spec = tiny_spec();
  spec.feature_dim = 64;
  spec.num_classes = 62;
  auto rc = tiny_run_config(2, 6, 42);
  SimEngine eng(make_synthetic_dataset(spec), make_shufflenet_proxy(64, 62),
                make_datacenter_env(), tiny_train_config(), rc);
  FedAvgStrategy s;
  const auto res = eng.run(s);
  const double per_client = res.rounds[0].down_bytes /
                            res.rounds[0].num_invited;
  EXPECT_NEAR(per_client, 5e6 * 4, 5e6 * 4 * 0.05);  // within 5%
}

}  // namespace
}  // namespace gluefl
