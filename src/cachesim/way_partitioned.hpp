// Way-partitioned set-associative cache — the Intel CAT deployment model.
//
// Real hardware cannot partition by arbitrary block counts: cache
// allocation technology assigns each core a subset of the *ways* of every
// set. This simulator implements per-program way quotas (each program's
// blocks may occupy at most ways_i lines per set, evicting its own LRU
// line when at quota), which is how the paper's unit-based optimal
// partition would actually be deployed: C units -> way quotas by rounding
// alloc_i / C * total_ways. The CAT bench measures the fidelity loss of
// that coarse, 16-way granularity vs the idealized unit-grain partition.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/interleave.hpp"
#include "trace/trace.hpp"

namespace ocps {

/// Set-associative cache where program p may use at most quota[p] ways in
/// every set (Σ quota <= ways). Per-set LRU within each program's lines.
class WayPartitionedCache {
 public:
  /// num_sets must be a power of two.
  WayPartitionedCache(std::size_t num_sets, std::size_t ways,
                      std::vector<std::size_t> way_quota);

  /// Access by program `who`; returns true on hit.
  bool access(Block b, std::uint32_t who);

  std::size_t num_sets() const { return sets_; }
  std::size_t ways() const { return ways_; }
  const std::vector<std::size_t>& quota() const { return quota_; }

  std::uint64_t hits(std::uint32_t who) const { return hits_[who]; }
  std::uint64_t misses(std::uint32_t who) const { return misses_[who]; }
  double miss_ratio(std::uint32_t who) const;
  double group_miss_ratio() const;
  /// Adds this cache's accesses, hits and evictions to the
  /// sim.way_partitioned.* counters. A simulation run calls it once, when
  /// the run ends, so the per-access path touches no shared counter.
  void publish_tallies() const;

 private:
  struct Line {
    Block block = 0;
    std::uint32_t owner = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
  };

  std::size_t set_index(Block b) const;

  std::size_t sets_;
  std::size_t ways_;
  std::vector<std::size_t> quota_;
  std::vector<Line> lines_;  // sets_ * ways_, row-major per set
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::uint64_t evictions_ = 0;
  std::uint64_t clock_ = 0;
};

/// Rounds a unit-grain allocation (Σ = capacity) to way quotas
/// (Σ <= total_ways, every program with a nonzero allocation gets >= 1
/// way when possible) by largest remainder.
std::vector<std::size_t> ways_from_alloc(const std::vector<std::size_t>& alloc,
                                         std::size_t capacity,
                                         std::size_t total_ways);

/// Runs an interleaved trace through a way-partitioned cache.
struct WayPartitionResult {
  std::vector<double> per_program_mr;
  double group_mr = 0.0;
};
WayPartitionResult simulate_way_partitioned(
    const InterleavedTrace& trace, std::size_t num_sets, std::size_t ways,
    const std::vector<std::size_t>& way_quota, std::size_t warmup = 0);

}  // namespace ocps
