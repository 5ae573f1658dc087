// Federated dataset: per-client sample counts, a centralized test set and
// FedAvg importance weights p_i = n_i / sum_j n_j. Client shards are not
// stored: each is a pure function of (seed, client id), derived on demand
// (DESIGN.md §2) and cached by the engine (data/shard_cache.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace gluefl {

/// One client's local data; X is row-major [n, feature_dim].
struct ClientShard {
  std::vector<float> x;
  std::vector<int> y;
  int n = 0;
};

/// Parameters of the synthetic federated task.
struct SyntheticSpec {
  std::string name = "synthetic";
  int num_clients = 100;
  int num_classes = 10;
  int feature_dim = 32;
  /// Dirichlet concentration controlling label heterogeneity across
  /// clients; FedScale-style non-IID corresponds to small alpha (~0.1-1).
  double dirichlet_alpha = 0.5;
  /// Distance scale between class prototypes (larger = easier task).
  double class_sep = 1.8;
  /// Fraction of features carrying each class's prototype mass (1.0 =
  /// dense). Sparse prototypes give gradients a temporally stable top-k
  /// support — the structure real DNN training exhibits and that masking
  /// and freezing strategies rely on (see DESIGN.md).
  double proto_sparsity = 1.0;
  /// Power-law exponent of per-feature magnitude scales: feature j is
  /// scaled by (1+j)^-feature_decay (0 = uniform). Signal and noise scale
  /// together, so per-feature SNR is unchanged, but gradient magnitudes
  /// become heavy-tailed with a stable ranking — again matching real
  /// training, where a minority of coordinates dominates every update.
  double feature_decay = 0.0;
  /// Within-class Gaussian noise.
  double noise_sd = 1.0;
  /// Probability a training label is flipped to a uniform class.
  double label_noise = 0.02;
  /// Client size distribution: clipped LogNormal(mu, sigma); FedScale
  /// removes clients with fewer than 22 samples, we clip instead.
  double size_mu_log = 3.6;
  double size_sigma_log = 0.8;
  int min_samples = 22;
  int max_samples = 400;
  int test_samples = 2000;
  uint64_t seed = 1;
};

struct FederatedDataset {
  SyntheticSpec spec;
  /// Per-client sample counts n_i: the first draw of each client's stream.
  std::vector<int> sizes;
  std::vector<float> test_x;
  std::vector<int> test_y;
  /// FedAvg client importance weights, p_i = n_i / total (sums to 1).
  std::vector<double> p;
  size_t total_samples = 0;
  /// What derive_shard reads: the class prototypes (row-major
  /// [num_classes, feature_dim]), the per-feature scales and the root
  /// stream every per-client stream forks from.
  std::vector<float> protos;
  std::vector<float> fscale;
  Rng rng{0};

  int num_clients() const { return static_cast<int>(sizes.size()); }

  /// Client i's shard, replayed from its own stream rng.fork(0x10000 + i):
  /// the size, the Dirichlet label mix, then per sample the label, the
  /// features and the label-noise flip. The same bytes on every call.
  ClientShard derive_shard(int i) const;
};

/// Generates the synthetic task: Gaussian class prototypes, log-normal
/// client sizes, and a class-balanced IID test set; each client's shard
/// (Dirichlet non-IID labels) comes later from derive_shard. Deterministic
/// in spec.seed.
FederatedDataset make_synthetic_dataset(const SyntheticSpec& spec);

}  // namespace gluefl
