#include "data/shard_cache.h"

#include "common/check.h"
#include "telemetry/telemetry.h"

namespace gluefl {

ShardCache::ShardCache(size_t capacity) : cache_(capacity) {
  GLUEFL_CHECK(capacity > 0);
}

std::shared_ptr<const ClientShard> ShardCache::get(const FederatedDataset& ds,
                                                   int shard) {
  if (const auto* hit = cache_.find(shard)) {
    telemetry::count(telemetry::kDataShardHits);
    return *hit;
  }
  telemetry::count(telemetry::kDataShardMisses);
  if (cache_.at_capacity()) telemetry::count(telemetry::kDataShardEvictions);
  return cache_.insert(
      shard, std::make_shared<const ClientShard>(ds.derive_shard(shard)));
}

}  // namespace gluefl
