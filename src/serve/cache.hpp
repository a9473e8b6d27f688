// Sharded, content-addressed LRU cache for kernel evaluations.
//
// The key is the canonical request string (serve::Query::canonical);
// its FNV-1a hash picks a shard and a bucket, and the full key string is
// compared on lookup so a 64-bit collision can never serve the wrong
// bytes. Each shard is an independent mutex + hash-map + intrusive LRU
// list, so concurrent batches contend only 1/shards of the time.
// Capacity is accounted in bytes (key + value + a fixed per-entry
// overhead) and divided evenly across shards; inserting past a shard's
// budget evicts from its LRU tail.
//
// Values are the serialized result bytes of a pure analytic kernel, so a
// hit returns *bit-identical* output to the evaluation it replaced.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ksw::serve {

class EvalCache {
 public:
  /// Aggregate counters across all shards (a consistent-enough snapshot:
  /// each shard is read under its own lock).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;           ///< charged bytes currently held
    std::uint64_t capacity_bytes = 0;  ///< 0 = cache disabled
  };

  /// Fixed accounting overhead charged per entry on top of key+value
  /// bytes (list/map node bookkeeping, amortized).
  static constexpr std::uint64_t kEntryOverhead = 64;

  /// `capacity_bytes` = 0 disables the cache entirely: every lookup
  /// misses, every insert is dropped (cold-path benchmarking and
  /// --cache-mb=0).
  explicit EvalCache(std::uint64_t capacity_bytes,
                     std::size_t shards = 16);

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Look up the value for (hash, key); refreshes LRU recency on hit.
  [[nodiscard]] std::optional<std::string> lookup(std::uint64_t hash,
                                                  const std::string& key);

  /// Single-flight lookup: a hit returns the value; on a miss the caller
  /// claims the key and gets nullopt, and must then insert() or
  /// abandon() it. A caller that finds the key claimed by another waits
  /// for that evaluation and looks again, so concurrent batches (two
  /// connections asking for the same tuple) evaluate it once and the
  /// later one is served cached. With the cache disabled nothing is
  /// claimed and every call misses.
  [[nodiscard]] std::optional<std::string> lookup_or_claim(
      std::uint64_t hash, const std::string& key);

  /// Give up a claim without a value (the evaluation failed).
  void abandon(std::uint64_t hash, const std::string& key);

  /// Insert (hash, key) -> value, evicting LRU entries as needed, and
  /// release any claim on the key. If the key is already present the
  /// existing entry is kept — both computations produced the same bytes.
  /// An entry larger than the whole shard budget is not admitted.
  void insert(std::uint64_t hash, const std::string& key,
              std::string value);

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] bool enabled() const noexcept { return per_shard_ > 0; }

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::unordered_set<std::string> claimed;  ///< keys being evaluated
    std::condition_variable released;         ///< a claim went away
    std::uint64_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash) {
    return shards_[hash % shards_.size()];
  }
  static std::uint64_t cost(const Entry& e) noexcept {
    return e.key.size() + e.value.size() + kEntryOverhead;
  }

  std::uint64_t per_shard_;
  std::vector<Shard> shards_;
};

}  // namespace ksw::serve
