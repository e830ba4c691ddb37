// Fully-associative LRU cache simulator.
//
// The paper's theory is stated for fully-associative LRU (§VIII); this is
// the reference cache used to validate the HOTL miss-ratio estimate, the
// natural-partition assumption, and the Fig. 1 example.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "trace/trace.hpp"

namespace ocps {

/// Fully-associative LRU cache over block ids.
class LruCache {
 public:
  /// capacity == 0 means every access misses.
  explicit LruCache(std::size_t capacity);

  /// Touches a block; returns true on hit. On miss, inserts the block and
  /// evicts the least-recently-used one if the cache is full.
  bool access(Block b);

  /// True iff the block is currently resident (no LRU update).
  bool contains(Block b) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return map_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  double miss_ratio() const;
  /// Adds this cache's accesses, hits and evictions to the sim.lru.*
  /// counters. A simulation run calls it once, when the run ends, so the
  /// per-access path touches no shared counter.
  void publish_tallies() const;

  /// Clears contents and statistics.
  void reset();

  /// Changes the capacity in place; shrinking evicts LRU blocks until the
  /// contents fit. Used by dynamic (epoch-based) repartitioning.
  void set_capacity(std::size_t capacity);

  /// Identity of the block that the most recent miss evicted, when any.
  /// Used by owner-tagged shared simulation to maintain occupancies.
  bool last_eviction(Block* out) const;

 private:
  std::size_t capacity_;
  std::list<Block> lru_;  // front = most recently used
  std::unordered_map<Block, std::list<Block>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  bool evicted_valid_ = false;
  Block evicted_{};
};

}  // namespace ocps
