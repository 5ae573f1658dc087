// Bounded cache of derived client shards (DESIGN.md §2). A shard is a pure
// function of (dataset seed, shard id), so an evicted shard comes back with
// the same bytes on its next use: the cache bounds memory and never changes
// a result. Values are shared: a caller holding a shard keeps it alive
// across its eviction. Not thread-safe; the engine resolves each training
// batch on the coordinator thread before its worker pool starts.
#pragma once

#include <cstddef>
#include <memory>

#include "common/lru_cache.h"
#include "data/federated_dataset.h"

namespace gluefl {

class ShardCache {
 public:
  /// About 97 MB of shards at OpenImage scale: GlueFL's sticky group plus
  /// an over-committed cohort, or FedBuff's in-flight clients, stay warm.
  static constexpr size_t kDefaultCapacity = 4096;

  explicit ShardCache(size_t capacity = kDefaultCapacity);

  /// Shard `shard` of `ds`, derived on a miss. Counts data.shard.hits,
  /// .misses and .evictions.
  std::shared_ptr<const ClientShard> get(const FederatedDataset& ds,
                                         int shard);

  size_t size() const { return cache_.size(); }

 private:
  LruCache<std::shared_ptr<const ClientShard>> cache_;
};

}  // namespace gluefl
