// Minimal LRU map keyed by a 64-bit id: capacity-bounded, O(1) find and
// insert. It backs the client directory's profile and availability-chain
// caches (net/client_directory.h), the simulator's only caches: client
// shards are derived per training batch and never cached (DESIGN.md §2).
// Every cached value is a pure function of its key, so an eviction only
// costs a re-derivation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace gluefl {

template <typename V>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached value (touching it) or nullptr. The pointer stays
  /// valid until the next insert.
  V* find(int64_t key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.pos);
    return &it->second.value;
  }

  /// Stores `value` under `key` as the most recent entry. A present key is
  /// replaced in place and evicts nothing; an absent key at capacity
  /// evicts the least recent entry first.
  V& insert(int64_t key, V value) {
    if (V* present = find(key)) {
      *present = std::move(value);
      return *present;
    }
    if (at_capacity()) {
      map_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    return map_.emplace(key, Entry{std::move(value), order_.begin()})
        .first->second.value;
  }

  size_t size() const { return map_.size(); }

  /// True when the next insert of an ABSENT key will evict the LRU entry
  /// (telemetry counts evictions through this before inserting).
  bool at_capacity() const { return capacity_ > 0 && map_.size() >= capacity_; }

 private:
  struct Entry {
    V value;
    std::list<int64_t>::iterator pos;
  };
  size_t capacity_;
  std::list<int64_t> order_;
  std::unordered_map<int64_t, Entry> map_;
};

}  // namespace gluefl
