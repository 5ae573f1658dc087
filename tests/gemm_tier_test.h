// A value-parameterized gtest fixture that runs each test once per GEMM
// tier (DESIGN.md §2 "Training kernels"), forced through the tensor
// layer's detail setter. The tiers are bit-identical by contract, so a
// test that memcmps against a reference or a pinned hash must pass on
// every one of them.
#pragma once

#include <string>

#include <gtest/gtest.h>

#include "tensor/ops.h"

namespace gluefl::testing {

/// Forces GetParam() for the test body and restores the process's own
/// pick afterwards. A tier this build or CPU lacks is skipped, and the
/// skip message names it.
class GemmTierTest : public ::testing::TestWithParam<detail::GemmTier> {
 protected:
  void SetUp() override {
    if (!detail::gemm_tier_supported(GetParam())) {
      GTEST_SKIP() << "GEMM tier " << detail::gemm_tier_name(GetParam())
                   << " is not supported by this build/CPU";
    }
    detail::set_gemm_tier(GetParam());
  }
  void TearDown() override { detail::set_gemm_tier(picked_); }

 private:
  detail::GemmTier picked_ = detail::gemm_tier();
};

inline auto all_gemm_tiers() {
  return ::testing::Values(detail::GemmTier::kLanes4, detail::GemmTier::kAvx2,
                           detail::GemmTier::kAvx512);
}

inline std::string gemm_tier_param_name(
    const ::testing::TestParamInfo<detail::GemmTier>& info) {
  return detail::gemm_tier_name(info.param);
}

}  // namespace gluefl::testing
