// A bounded least-recently-used map.
//
// Two long-lived caches in the service stack must not grow without limit —
// the Planner's plan cache and the Service's result cache — and both want
// the same policy: keep the most recently touched entries, evict the
// coldest, count what happens. LruMap is that policy as a container:
// a recency list plus an index map. NOT thread-safe; callers hold their own
// lock and annotate their instance for the Clang thread-safety analysis —
// `LruMap<K, V> cache_ PQS_GUARDED_BY(mutex_);` — so every access path is
// machine-checked to hold that lock (see api/planner.h and
// service/service.h, the two owners).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <utility>

#include "common/check.h"

namespace pqs {

template <typename Key, typename Value, typename Compare = std::less<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {
    PQS_CHECK_MSG(capacity >= 1, "LruMap needs capacity >= 1");
  }

  /// Lookup; touching an entry makes it most-recent. nullptr on a miss.
  Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Insert or overwrite; the entry becomes most-recent. Evicts the
  /// least-recently-used entry when the map would exceed capacity.
  Value& put(const Key& key, Value value) {
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return it->second->second;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    return order_.front().second;
  }

  std::size_t size() const { return order_.size(); }
  /// Entries dropped by the bound since construction.
  std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  /// front = most recently used; back = eviction candidate.
  std::list<std::pair<Key, Value>> order_;
  std::map<Key, typename std::list<std::pair<Key, Value>>::iterator, Compare>
      index_;
  std::uint64_t evictions_ = 0;
};

}  // namespace pqs
