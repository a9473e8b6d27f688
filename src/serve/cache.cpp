#include "serve/cache.hpp"

#include <utility>

namespace ksw::serve {

EvalCache::EvalCache(std::uint64_t capacity_bytes, std::size_t shards)
    : per_shard_(capacity_bytes / (shards == 0 ? 1 : shards)),
      shards_(shards == 0 ? 1 : shards) {}

std::optional<std::string> EvalCache::lookup(std::uint64_t hash,
                                             const std::string& key) {
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (per_shard_ == 0) {
    ++shard.misses;
    return std::nullopt;
  }
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  // Refresh recency: splice the entry to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->value;
}

std::optional<std::string> EvalCache::lookup_or_claim(
    std::uint64_t hash, const std::string& key) {
  Shard& shard = shard_for(hash);
  std::unique_lock<std::mutex> lock(shard.mu);
  while (true) {
    const auto it = per_shard_ == 0 ? shard.index.end() : shard.index.find(key);
    if (it != shard.index.end()) {
      ++shard.hits;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->value;
    }
    if (per_shard_ == 0 || shard.claimed.insert(key).second) {
      ++shard.misses;
      return std::nullopt;
    }
    shard.released.wait(lock);
  }
}

void EvalCache::abandon(std::uint64_t hash, const std::string& key) {
  Shard& shard = shard_for(hash);
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.claimed.erase(key) != 0) shard.released.notify_all();
}

void EvalCache::insert(std::uint64_t hash, const std::string& key,
                       std::string value) {
  Shard& shard = shard_for(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.claimed.erase(key) != 0) shard.released.notify_all();
  if (per_shard_ == 0) return;
  if (shard.index.count(key) != 0) return;  // concurrent duplicate compute
  Entry entry{key, std::move(value)};
  const std::uint64_t entry_cost = cost(entry);
  if (entry_cost > per_shard_) return;  // would evict the whole shard
  while (shard.bytes + entry_cost > per_shard_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= cost(victim);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(std::move(entry));
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  shard.bytes += entry_cost;
  ++shard.insertions;
}

EvalCache::Stats EvalCache::stats() const {
  Stats out;
  out.capacity_bytes = per_shard_ * shards_.size();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.insertions += shard.insertions;
    out.evictions += shard.evictions;
    out.entries += shard.lru.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace ksw::serve
