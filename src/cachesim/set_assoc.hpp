// Set-associative LRU cache simulator.
//
// The paper's theory assumes full associativity and cites Smith's classic
// result that associativity effects can be estimated statistically (§VIII).
// This simulator lets tests quantify how close a realistic set-associative
// cache tracks the fully-associative model on our workloads.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace ocps {

/// Set-associative cache with per-set LRU replacement.
class SetAssociativeCache {
 public:
  /// num_sets must be a power of two; ways >= 1. Total capacity =
  /// num_sets * ways blocks.
  SetAssociativeCache(std::size_t num_sets, std::size_t ways);

  bool access(Block b);

  std::size_t capacity() const { return sets_.size() * ways_; }
  std::size_t num_sets() const { return sets_.size(); }
  std::size_t ways() const { return ways_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double miss_ratio() const;
  /// Adds this cache's accesses, hits and evictions to the sim.set_assoc.*
  /// counters. A simulation run calls it once, when the run ends, so the
  /// per-access path touches no shared counter.
  void publish_tallies() const;
  void reset();

 private:
  struct Set {
    // Small per-set arrays: position 0 = MRU. Linear scan is faster than
    // pointer structures at realistic way counts (<= 32).
    std::vector<Block> lines;
  };

  std::size_t set_index(Block b) const;

  std::vector<Set> sets_;
  std::size_t ways_;
  std::size_t mask_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace ocps
