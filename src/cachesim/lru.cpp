#include "cachesim/lru.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

LruCache::LruCache(std::size_t capacity) : capacity_(capacity) {
  map_.reserve(capacity * 2 + 16);
}

void LruCache::publish_tallies() const {
  OCPS_OBS_COUNT("sim.lru.accesses", hits_ + misses_);
  OCPS_OBS_COUNT("sim.lru.hits", hits_);
  OCPS_OBS_COUNT("sim.lru.evictions", evictions_);
}

bool LruCache::access(Block b) {
  evicted_valid_ = false;
  auto it = map_.find(b);
  if (it != map_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }
  ++misses_;
  if (capacity_ == 0) return false;
  if (map_.size() >= capacity_) {
    Block victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
    evicted_ = victim;
    evicted_valid_ = true;
    ++evictions_;
  }
  lru_.push_front(b);
  map_.emplace(b, lru_.begin());
  return false;
}

bool LruCache::contains(Block b) const { return map_.count(b) != 0; }

double LruCache::miss_ratio() const {
  std::uint64_t total = accesses();
  return total == 0 ? 0.0
                    : static_cast<double>(misses_) / static_cast<double>(total);
}

void LruCache::set_capacity(std::size_t capacity) {
  capacity_ = capacity;
  while (map_.size() > capacity_) {
    Block victim = lru_.back();
    lru_.pop_back();
    map_.erase(victim);
  }
}

void LruCache::reset() {
  lru_.clear();
  map_.clear();
  hits_ = misses_ = evictions_ = 0;
  evicted_valid_ = false;
}

bool LruCache::last_eviction(Block* out) const {
  OCPS_CHECK(out != nullptr, "null out pointer");
  if (!evicted_valid_) return false;
  *out = evicted_;
  return true;
}

}  // namespace ocps
