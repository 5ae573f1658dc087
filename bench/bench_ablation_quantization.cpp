// Extension ablation (paper footnote 1): STC also quantizes its payloads;
// quantization is orthogonal to masking and compresses both directions.
// This bench quantifies (a) the fidelity of the stochastic uniform
// quantizer versus bit width on realistic update vectors, and (b) the
// additional wire savings quantization would stack on top of each
// strategy's per-round payloads.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "common/rng.h"
#include "compress/encoding.h"
#include "compress/quantizer.h"
#include "strategies/gluefl.h"

using namespace gluefl;

int main() {
  bench::print_header("Quantization stacking ablation",
                      "footnote 1 / §2.3 (orthogonal compression)",
                      "extension experiment, not a paper table");

  // (a) Quantizer fidelity on a real client update: run one round of local
  // training and quantize the delta at several bit widths.
  const bench::Workload w = bench::make_workload("femnist", "shufflenet");
  SimEngine engine = bench::make_engine(w, make_datacenter_env(), 4);
  const auto results = engine.local_train({0, 1, 2, 3}, 0);

  std::cout << "\n(a) relative L2 error of the quantized client update\n";
  TablePrinter t;
  t.set_headers({"bits", "rel. L2 error", "payload vs fp32"});
  Rng rng(11);
  for (int bits : {1, 2, 4, 8, 12}) {
    UniformQuantizer quant(bits);
    double err = 0.0;
    for (const auto& r : results) {
      std::vector<float> q = r.delta;
      quant.quantize(q.data(), q.size(), rng);
      double num = 0.0, den = 0.0;
      for (size_t i = 0; i < q.size(); ++i) {
        const double d = static_cast<double>(q[i]) - r.delta[i];
        num += d * d;
        den += static_cast<double>(r.delta[i]) * r.delta[i];
      }
      err += std::sqrt(num / std::max(den, 1e-30));
    }
    err /= static_cast<double>(results.size());
    const double ratio =
        static_cast<double>(quant.payload_bytes(engine.dim())) /
        static_cast<double>(dense_bytes(engine.dim()));
    t.add_row({std::to_string(bits), fmt_double(err, 4),
               fmt_percent(ratio)});
  }
  std::cout << t.to_string();

  // (b) Wire savings stacked on the strategies' per-round payloads.
  std::cout << "\n(b) 8-bit quantization stacked on per-round payloads "
               "(values only; positions unchanged)\n";
  TablePrinter s;
  s.set_headers({"strategy payload", "fp32 bytes", "8-bit bytes", "saving"});
  const size_t dim = engine.dim();
  UniformQuantizer q8(8);
  // Each value STREAM carries its own chunked scales on the wire, so
  // GlueFL's shared and unique components are priced as two separate
  // quantized payloads — summing the counts into one payload_bytes call
  // would merge the streams' scale chunks and under-charge the boundary.
  struct Row {
    const char* label;
    std::vector<size_t> value_streams;
    size_t positions;
  };
  const size_t k20 = dim / 5;
  const size_t k16 = static_cast<size_t>(0.16 * dim);
  const size_t k4 = static_cast<size_t>(0.04 * dim);
  const Row rows[] = {
      {"FedAvg upload (dense)", {dim}, 0},
      {"STC upload (top-20%)", {k20}, position_bytes(k20, dim)},
      {"GlueFL upload (16% shared + 4% unique)", {k16, k4},
       position_bytes(k4, dim)},
  };
  for (const Row& r : rows) {
    size_t fp32 = r.positions, q = r.positions;
    for (const size_t v : r.value_streams) {
      fp32 += values_only_bytes(v);
      q += q8.payload_bytes(v);
    }
    s.add_row({r.label, fmt_bytes(static_cast<double>(fp32)),
               fmt_bytes(static_cast<double>(q)),
               fmt_percent(1.0 - static_cast<double>(q) / fp32)});
  }
  std::cout << s.to_string();
  std::cout << "\nAs the paper notes, quantization compresses both directions\n"
               "equally and does not change the downstream-staleness story.\n";
  return 0;
}
