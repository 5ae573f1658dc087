#include "data/federated_dataset.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "data/box_muller.h"
#include "telemetry/telemetry.h"
#include "tensor/ops.h"

namespace gluefl {

namespace {
// Client i's stream is rng.fork(kClientStreamBase + i).
constexpr uint64_t kClientStreamBase = 0x10000;

// A client's sample count: the clipped log-normal first draw of its stream.
int draw_size(const SyntheticSpec& spec, Rng& cr) {
  const double raw = cr.lognormal(spec.size_mu_log, spec.size_sigma_log);
  return std::clamp(static_cast<int>(std::lround(raw)), spec.min_samples,
                    spec.max_samples);
}

// A sample's feature_dim / 2 pairs, padded to the widest tier's 8 lanes.
size_t padded_pairs(int feature_dim) {
  return (static_cast<size_t>(feature_dim / 2) + 7) / 8 * 8;
}

// Draws the samples of one stream: each is its class prototype plus
// scaled Gaussian noise, float(0.0 + noise_sd * z) for the stream's next
// feature_dim normals. The tier computes a sample's normals in one batch
// from the same uniforms, drawn in stream order, that Rng::normal would
// draw; the floats match Rng::normal's (box_muller.h). An odd
// feature_dim, or a CPU without AVX2, takes Rng::normal one at a time.
class SampleDrawer {
 public:
  explicit SampleDrawer(const FederatedDataset& ds)
      : ds_(ds),
        fn_(ds.spec.feature_dim % 2 == 0 ? detail::box_muller_tier()
                                         : nullptr),
        padded_(padded_pairs(ds.spec.feature_dim)),
        u1_(padded_, 0.5),
        u2_(padded_, 0.5),
        z_(2 * padded_),
        noise_(2 * padded_ + 1) {}

  // One sample of class `label` into out[0, feature_dim); returns how
  // many of its normals the rounding test sent to the scalar path.
  size_t draw(Rng& r, int label, float* out) {
    const int dim = ds_.spec.feature_dim;
    const double sd = ds_.spec.noise_sd;
    float* noise = noise_.data();
    size_t fallbacks = 0;
    if (fn_ == nullptr) {
      for (int j = 0; j < dim; ++j) {
        noise[j] = static_cast<float>(r.normal(0.0, sd));
      }
    } else {
      // A pending cached half is the sample's first normal. The sample then
      // ends with the first half of a pair, so Rng::normal draws that pair
      // and caches its second half for the next sample, exactly.
      const int carried = r.has_cached_normal() ? 1 : 0;
      if (carried != 0) noise[0] = static_cast<float>(r.normal(0.0, sd));
      const size_t pairs = static_cast<size_t>(dim / 2 - carried);
      for (size_t k = 0; k < pairs; ++k) {
        double u1 = r.uniform();
        while (u1 <= 0.0) u1 = r.uniform();
        u1_[k] = u1;
        u2_[k] = r.uniform();
      }
      // Lanes past `pairs` hold 0.5 or uniforms of an earlier sample:
      // valid inputs whose outputs nothing reads.
      float* batch = noise + carried;
      if (fn_(u1_.data(), u2_.data(), padded_, sd, z_.data(), batch)) {
        for (size_t j = 0; j < 2 * pairs; ++j) {
          if (float_cast_safe(std::bit_cast<int64_t>(0.0 + sd * z_[j]))) {
            continue;
          }
          double sin_half;
          const double cos_half =
              Rng::box_muller(u1_[j / 2], u2_[j / 2], &sin_half);
          batch[j] =
              static_cast<float>(0.0 + sd * (j % 2 == 0 ? cos_half : sin_half));
          ++fallbacks;
        }
      }
      if (carried != 0) {
        noise[dim - 1] = static_cast<float>(r.normal(0.0, sd));
      }
    }
    const float* pc = ds_.protos.data() + static_cast<size_t>(label) * dim;
    const float* fscale = ds_.fscale.data();
    for (int j = 0; j < dim; ++j) out[j] = pc[j] + noise[j] * fscale[j];
    return fallbacks;
  }

 private:
  const FederatedDataset& ds_;
  const detail::BoxMullerFn fn_;
  const size_t padded_;
  std::vector<double> u1_, u2_, z_;
  std::vector<float> noise_;
};
}  // namespace

namespace detail {

BoxMullerFn box_muller_tier() {
#if defined(GLUEFL_DATA_SIMD)
  switch (gemm_tier()) {
    case GemmTier::kAvx2:
      return &box_muller_avx2;
    case GemmTier::kAvx512:
      return &box_muller_avx512;
    case GemmTier::kLanes4:
      break;
  }
#endif
  return nullptr;
}

}  // namespace detail

ClientShard FederatedDataset::derive_shard(int i) const {
  GLUEFL_CHECK(i >= 0 && i < num_clients());
  Rng cr = rng.fork(kClientStreamBase + static_cast<uint64_t>(i));
  ClientShard shard;
  shard.n = draw_size(spec, cr);
  const std::vector<double> class_dist = cr.dirichlet(std::vector<double>(
      static_cast<size_t>(spec.num_classes), spec.dirichlet_alpha));
  // Cumulative distribution for multinomial draws.
  std::vector<double> cum(class_dist.size());
  double acc = 0.0;
  for (size_t c = 0; c < class_dist.size(); ++c) {
    acc += class_dist[c];
    cum[c] = acc;
  }
  shard.x.resize(static_cast<size_t>(shard.n) * spec.feature_dim);
  shard.y.resize(static_cast<size_t>(shard.n));
  SampleDrawer drawer(*this);
  size_t fallbacks = 0;
  for (int s = 0; s < shard.n; ++s) {
    const double u = cr.uniform() * acc;
    int label = static_cast<int>(
        std::lower_bound(cum.begin(), cum.end(), u) - cum.begin());
    label = std::min(label, spec.num_classes - 1);
    fallbacks += drawer.draw(
        cr, label, shard.x.data() + static_cast<size_t>(s) * spec.feature_dim);
    if (spec.label_noise > 0.0 && cr.bernoulli(spec.label_noise)) {
      label = cr.uniform_int(0, spec.num_classes - 1);
    }
    shard.y[static_cast<size_t>(s)] = label;
  }
  telemetry::count(telemetry::kDataShardDerived);
  telemetry::count(telemetry::kDataShardFallbacks, fallbacks);
  return shard;
}

FederatedDataset make_synthetic_dataset(const SyntheticSpec& spec) {
  GLUEFL_CHECK(spec.num_clients > 0);
  GLUEFL_CHECK(spec.num_classes > 1);
  GLUEFL_CHECK(spec.feature_dim > 0);
  GLUEFL_CHECK(spec.min_samples >= 1 && spec.max_samples >= spec.min_samples);

  FederatedDataset ds;
  ds.spec = spec;
  ds.rng = Rng(spec.seed);

  // Per-feature magnitude scales (heavy-tailed when feature_decay > 0).
  GLUEFL_CHECK(spec.feature_decay >= 0.0);
  std::vector<float>& fscale = ds.fscale;
  fscale.assign(static_cast<size_t>(spec.feature_dim), 1.0f);
  if (spec.feature_decay > 0.0) {
    double sum = 0.0;
    for (int j = 0; j < spec.feature_dim; ++j) {
      fscale[static_cast<size_t>(j)] = static_cast<float>(
          std::pow(1.0 + j, -spec.feature_decay));
      sum += fscale[static_cast<size_t>(j)];
    }
    // Normalize the mean scale to 1 so class_sep / noise_sd keep meaning.
    const float inv_mean =
        static_cast<float>(spec.feature_dim / std::max(sum, 1e-12));
    for (auto& v : fscale) v *= inv_mean;
  }

  // Class prototypes: unit-norm Gaussian directions scaled by class_sep.
  // With proto_sparsity < 1 each class's mass sits on a random feature
  // subset, so informative coordinates persist across training.
  GLUEFL_CHECK(spec.proto_sparsity > 0.0 && spec.proto_sparsity <= 1.0);
  ds.protos.assign(static_cast<size_t>(spec.num_classes) * spec.feature_dim,
                   0.0f);
  {
    Rng proto_rng = ds.rng.fork(0xC1A55);
    const int support = std::max(
        2, static_cast<int>(std::lround(spec.proto_sparsity *
                                        spec.feature_dim)));
    for (int c = 0; c < spec.num_classes; ++c) {
      float* pc = ds.protos.data() + static_cast<size_t>(c) * spec.feature_dim;
      // Half of every class's support sits on the globally strongest
      // features (shared, discriminative, persistently high-gradient);
      // the rest is class-specific detail on random weaker features.
      std::vector<int> feats;
      const int shared = spec.feature_decay > 0.0 ? (support + 1) / 2 : 0;
      for (int j = 0; j < shared; ++j) feats.push_back(j);
      std::vector<int> rest_pool;
      for (int j = shared; j < spec.feature_dim; ++j) rest_pool.push_back(j);
      const auto extra = proto_rng.sample_without_replacement(
          rest_pool, support - shared);
      feats.insert(feats.end(), extra.begin(), extra.end());
      double norm = 0.0;
      for (int j : feats) {
        pc[j] = static_cast<float>(proto_rng.normal());
        norm += static_cast<double>(pc[j]) * pc[j];
      }
      const float s =
          static_cast<float>(spec.class_sep / std::sqrt(std::max(norm, 1e-12)));
      // Apply the feature scale after normalization: strong features carry
      // proportionally more of the class signal (and more of the noise,
      // below), keeping per-feature SNR flat.
      for (int j : feats) pc[j] *= s * fscale[static_cast<size_t>(j)];
    }
  }

  // Per-client sample counts; the shards themselves are derived on use.
  ds.sizes.resize(static_cast<size_t>(spec.num_clients));
  for (int i = 0; i < spec.num_clients; ++i) {
    Rng cr = ds.rng.fork(kClientStreamBase + static_cast<uint64_t>(i));
    ds.sizes[static_cast<size_t>(i)] = draw_size(spec, cr);
    ds.total_samples += static_cast<size_t>(ds.sizes[static_cast<size_t>(i)]);
  }

  // Importance weights p_i = n_i / total.
  ds.p.resize(static_cast<size_t>(spec.num_clients));
  for (int i = 0; i < spec.num_clients; ++i) {
    ds.p[static_cast<size_t>(i)] =
        static_cast<double>(ds.sizes[static_cast<size_t>(i)]) /
        static_cast<double>(ds.total_samples);
  }

  // Class-balanced IID test set (clean labels).
  {
    Rng tr = ds.rng.fork(0x7E57);
    ds.test_x.resize(static_cast<size_t>(spec.test_samples) * spec.feature_dim);
    ds.test_y.resize(static_cast<size_t>(spec.test_samples));
    SampleDrawer drawer(ds);
    for (int s = 0; s < spec.test_samples; ++s) {
      const int label = s % spec.num_classes;
      drawer.draw(tr, label,
                  ds.test_x.data() + static_cast<size_t>(s) * spec.feature_dim);
      ds.test_y[static_cast<size_t>(s)] = label;
    }
  }
  return ds;
}

}  // namespace gluefl
