#include "cachesim/policies.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFifo: return "FIFO";
    case Policy::kRandom: return "Random";
    case Policy::kClock: return "CLOCK";
  }
  return "?";
}

PolicyCache::PolicyCache(Policy policy, std::size_t capacity,
                         std::uint64_t seed)
    : policy_(policy), capacity_(capacity), rng_(seed) {
  slots_.reserve(capacity);
  referenced_.reserve(capacity);
  where_.reserve(capacity * 2 + 16);
}

std::size_t PolicyCache::pick_victim() {
  switch (policy_) {
    case Policy::kFifo: {
      // The hand rotates over slots in insertion order: slot contents are
      // replaced in place, so the hand's order is FIFO.
      std::size_t victim = hand_;
      hand_ = (hand_ + 1) % capacity_;
      return victim;
    }
    case Policy::kRandom:
      return static_cast<std::size_t>(rng_.below(slots_.size()));
    case Policy::kClock: {
      // Second-chance: skip (and clear) referenced slots.
      for (;;) {
        if (!referenced_[hand_]) {
          std::size_t victim = hand_;
          hand_ = (hand_ + 1) % capacity_;
          return victim;
        }
        referenced_[hand_] = 0;
        hand_ = (hand_ + 1) % capacity_;
      }
    }
  }
  OCPS_CHECK(false, "unknown policy");
  return 0;
}

void PolicyCache::publish_tallies() const {
  OCPS_OBS_COUNT("sim.policy.accesses", hits_ + misses_);
  OCPS_OBS_COUNT("sim.policy.hits", hits_);
  OCPS_OBS_COUNT("sim.policy.evictions", evictions_);
}

bool PolicyCache::access(Block b) {
  auto it = where_.find(b);
  if (it != where_.end()) {
    ++hits_;
    if (policy_ == Policy::kClock) referenced_[it->second] = 1;
    return true;
  }
  ++misses_;
  if (capacity_ == 0) return false;
  if (slots_.size() < capacity_) {
    slots_.push_back(b);
    referenced_.push_back(1);
    where_.emplace(b, slots_.size() - 1);
    return false;
  }
  ++evictions_;
  std::size_t victim = pick_victim();
  where_.erase(slots_[victim]);
  slots_[victim] = b;
  referenced_[victim] = 1;
  where_.emplace(b, victim);
  return false;
}

double PolicyCache::miss_ratio() const {
  std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(misses_) /
                          static_cast<double>(total);
}

void PolicyCache::reset() {
  slots_.clear();
  referenced_.clear();
  where_.clear();
  hand_ = 0;
  hits_ = misses_ = evictions_ = 0;
}

double policy_miss_ratio(Policy policy, const Trace& trace,
                         std::size_t capacity, std::uint64_t seed) {
  PolicyCache cache(policy, capacity, seed);
  for (Block b : trace.accesses) cache.access(b);
  cache.publish_tallies();
  return cache.miss_ratio();
}

}  // namespace ocps
