#include "query/resolved_query_cache.h"

#include <algorithm>

namespace one4all {

RegionFingerprint FingerprintRegion(const GridMask& region,
                                    QueryStrategy strategy) {
  // Two lanes with independent seeds and index multipliers, computed in
  // one pass. GridMask stores cells packed 64 per word in row-major bit
  // order with zeroed trailing bits, so only nonzero words carry
  // content: each is mixed in together with its word index (a region
  // costs the words it touches, not the raster size), and the extents
  // seed both lanes so equal words over different rasters differ.
  const uint64_t tag = static_cast<uint64_t>(strategy);
  uint64_t lo = FingerprintMix64(0x0123456789abcdefull ^ tag);
  uint64_t hi = FingerprintMix64(0xfedcba9876543210ull ^ tag);
  lo = FingerprintMix64(lo ^ static_cast<uint64_t>(region.height()));
  hi = FingerprintMix64(hi ^ static_cast<uint64_t>(region.height()));
  lo = FingerprintMix64(lo ^ static_cast<uint64_t>(region.width()));
  hi = FingerprintMix64(hi ^ static_cast<uint64_t>(region.width()));
  const std::vector<uint64_t>& words = region.words();
  for (size_t i = 0; i < words.size(); ++i) {
    const uint64_t word = words[i];
    if (word == 0) continue;
    const uint64_t index = static_cast<uint64_t>(i) + 1;
    lo = FingerprintMix64(lo ^ word) + index * 0x9e3779b97f4a7c15ull;
    hi = FingerprintMix64(hi ^ word) + index * 0xc2b2ae3d27d4eb4full;
  }
  RegionFingerprint fp;
  fp.lo = FingerprintMix64(lo);
  fp.hi = FingerprintMix64(hi);
  return fp;
}

ResolvedQueryCache::ResolvedQueryCache(ResolvedQueryCacheOptions options) {
  const size_t num_shards =
      static_cast<size_t>(std::max(1, options.num_shards));
  const size_t requested = std::max<size_t>(num_shards, options.capacity);
  // Ceil so the effective capacity never undershoots the request;
  // capacity() reports what the shards can actually hold.
  per_shard_capacity_ = (requested + num_shards - 1) / num_shards;
  capacity_ = per_shard_capacity_ * num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const ResolvedQuery> ResolvedQueryCache::Get(
    const RegionFingerprint& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->second;
}

void ResolvedQueryCache::Put(const RegionFingerprint& key,
                             std::shared_ptr<const ResolvedQuery> value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    it->second->second = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.map.size() >= per_shard_capacity_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.emplace_front(key, std::move(value));
  shard.map.emplace(key, shard.lru.begin());
}

ResolvedQueryCacheStats ResolvedQueryCache::Stats() const {
  ResolvedQueryCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.size = Size();
  return stats;
}

size_t ResolvedQueryCache::Size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

void ResolvedQueryCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
  }
}

void ResolvedQueryCache::Invalidate() {
  Clear();
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

void ResolvedQueryCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
}

}  // namespace one4all
