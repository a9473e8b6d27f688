// Shard routing by canonical cache key.
//
// A valid ksw.query/v1 request is identified by the FNV-1a hash of its
// *canonical* request string — the same identity the evaluation cache
// uses (serve/query.hpp), whose shards are picked by this very hash. Two
// requests that share a cache entry therefore always land on the same
// shard, so each shard's LRU stays hot and a repeated tuple is a cache
// hit no matter which TCP connection it arrived on.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/query.hpp"

namespace ksw::fleet {

/// The shard hash of a valid request: FNV-1a over Query::canonical().
/// Pure — identical across processes, runs, and architectures.
[[nodiscard]] std::uint64_t shard_hash(const serve::Query& query);

/// Shard for a hash: `hash % shards`. `shards` must be >= 1.
[[nodiscard]] std::size_t route(std::uint64_t hash,
                                std::size_t shards) noexcept;

}  // namespace ksw::fleet
