// Canonical-key sharding: which worker process owns a request.
//
// The router's entire correctness story is that requests with equal
// api::canonicalize keys always land on the same worker — then the
// Service-layer request coalescing and the result LRU, both keyed on that
// exact string, stay shard-local for free: no cross-node cache protocol,
// and the fleet's aggregate cache capacity grows linearly with worker
// count.
//
// The hash must therefore be STABLE — across processes, runs, platforms,
// and standard libraries (std::hash promises none of that) — or a restarted
// router would silently re-home every key and cold its whole fleet's
// caches. FNV-1a 64-bit is the boring, dependency-free choice; the golden
// values in tests/test_net.cpp pin it forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/check.h"

namespace pqs::net {

/// FNV-1a 64-bit over the bytes of `text`.
constexpr std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The worker index in [0, n_workers) that owns canonical key `key`.
inline std::size_t shard_for_key(std::string_view key,
                                 std::size_t n_workers) {
  PQS_CHECK_MSG(n_workers >= 1, "shard_for_key needs n_workers >= 1");
  return static_cast<std::size_t>(fnv1a(key) %
                                  static_cast<std::uint64_t>(n_workers));
}

}  // namespace pqs::net
