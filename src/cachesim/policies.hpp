// Alternative replacement policies: FIFO, Random, and CLOCK (one-bit
// approximate LRU).
//
// The paper's theory assumes fully-associative LRU and argues (§VIII,
// citing Smith and Sen & Wood) that associativity and realistic
// replacement policies track the LRU model statistically. These simulators
// let the bench quantify that claim on our workloads
// (bench_ablation_assumptions): how far do FIFO / Random / CLOCK miss
// ratios drift from the fully-associative LRU the optimizer models?
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace ocps {

/// Replacement policies available beyond LruCache.
enum class Policy { kFifo, kRandom, kClock };
const char* policy_name(Policy p);

/// Fully-associative cache with a pluggable replacement policy.
class PolicyCache {
 public:
  PolicyCache(Policy policy, std::size_t capacity,
              std::uint64_t seed = 0x5eed);

  /// Touches a block; returns true on hit.
  bool access(Block b);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return where_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_ratio() const;
  /// Adds this cache's accesses, hits and evictions to the sim.policy.*
  /// counters. A simulation run calls it once, when the run ends, so the
  /// per-access path touches no shared counter.
  void publish_tallies() const;
  void reset();

 private:
  std::size_t pick_victim();

  Policy policy_;
  std::size_t capacity_;
  Rng rng_;
  // Slot-array representation: blocks live in slots [0, size); FIFO uses a
  // rotating hand, CLOCK adds one reference bit per slot.
  std::vector<Block> slots_;
  std::vector<std::uint8_t> referenced_;
  std::unordered_map<Block, std::size_t> where_;
  std::size_t hand_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Miss ratio of a whole trace under the given policy and capacity.
double policy_miss_ratio(Policy policy, const Trace& trace,
                         std::size_t capacity, std::uint64_t seed = 0x5eed);

}  // namespace ocps
