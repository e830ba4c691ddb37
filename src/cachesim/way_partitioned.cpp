#include "cachesim/way_partitioned.hpp"

#include <algorithm>
#include <numeric>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

WayPartitionedCache::WayPartitionedCache(std::size_t num_sets,
                                         std::size_t ways,
                                         std::vector<std::size_t> way_quota)
    : sets_(num_sets), ways_(ways), quota_(std::move(way_quota)) {
  OCPS_CHECK(num_sets >= 1 && (num_sets & (num_sets - 1)) == 0,
             "num_sets must be a power of two");
  OCPS_CHECK(ways >= 1, "ways must be >= 1");
  std::size_t total = std::accumulate(quota_.begin(), quota_.end(),
                                      static_cast<std::size_t>(0));
  OCPS_CHECK(total <= ways,
             "way quotas (" << total << ") exceed associativity " << ways);
  lines_.assign(sets_ * ways_, Line{});
  hits_.assign(quota_.size(), 0);
  misses_.assign(quota_.size(), 0);
}

void WayPartitionedCache::publish_tallies() const {
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t p = 0; p < quota_.size(); ++p) {
    hits += hits_[p];
    misses += misses_[p];
  }
  OCPS_OBS_COUNT("sim.way_partitioned.accesses", hits + misses);
  OCPS_OBS_COUNT("sim.way_partitioned.hits", hits);
  OCPS_OBS_COUNT("sim.way_partitioned.evictions", evictions_);
}

std::size_t WayPartitionedCache::set_index(Block b) const {
  return static_cast<std::size_t>(mix(b)) & (sets_ - 1);
}

bool WayPartitionedCache::access(Block b, std::uint32_t who) {
  OCPS_CHECK(who < quota_.size(), "program " << who << " has no quota");
  ++clock_;
  Line* base = &lines_[set_index(b) * ways_];

  // Hit scan over the whole set (a block resides in its owner's lines).
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (line.valid && line.owner == who && line.block == b) {
      line.last_used = clock_;
      ++hits_[who];
      return true;
    }
  }
  ++misses_[who];
  if (quota_[who] == 0) return false;  // no ways: bypass

  // Count this program's lines in the set; find its LRU line and any free
  // line.
  std::size_t own = 0;
  Line* own_lru = nullptr;
  Line* free_line = nullptr;
  for (std::size_t w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      if (!free_line) free_line = &line;
      continue;
    }
    if (line.owner == who) {
      ++own;
      if (!own_lru || line.last_used < own_lru->last_used) own_lru = &line;
    }
  }
  Line* victim = nullptr;
  if (own >= quota_[who]) {
    victim = own_lru;  // at quota: replace own LRU line
  } else if (free_line) {
    victim = free_line;
  } else {
    // Set full with other programs over... cannot happen when Σ quota <=
    // ways: some program must be under quota only if another is over.
    // Defensive: steal own LRU if any, else drop the fill.
    victim = own_lru;
  }
  if (!victim) return false;
  if (victim->valid) ++evictions_;
  victim->valid = true;
  victim->block = b;
  victim->owner = who;
  victim->last_used = clock_;
  return false;
}

double WayPartitionedCache::miss_ratio(std::uint32_t who) const {
  std::uint64_t total = hits_[who] + misses_[who];
  return total == 0 ? 0.0
                    : static_cast<double>(misses_[who]) /
                          static_cast<double>(total);
}

double WayPartitionedCache::group_miss_ratio() const {
  std::uint64_t h = 0, m = 0;
  for (std::size_t p = 0; p < quota_.size(); ++p) {
    h += hits_[p];
    m += misses_[p];
  }
  return (h + m) == 0 ? 0.0
                      : static_cast<double>(m) / static_cast<double>(h + m);
}

std::vector<std::size_t> ways_from_alloc(const std::vector<std::size_t>& alloc,
                                         std::size_t capacity,
                                         std::size_t total_ways) {
  OCPS_CHECK(!alloc.empty(), "empty allocation");
  OCPS_CHECK(capacity > 0, "capacity must be positive");
  std::vector<double> exact(alloc.size());
  for (std::size_t i = 0; i < alloc.size(); ++i)
    exact[i] = static_cast<double>(alloc[i]) /
               static_cast<double>(capacity) *
               static_cast<double>(total_ways);
  std::vector<std::size_t> ways(alloc.size());
  std::vector<std::pair<double, std::size_t>> rem(alloc.size());
  std::size_t used = 0;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    ways[i] = static_cast<std::size_t>(exact[i]);
    rem[i] = {exact[i] - static_cast<double>(ways[i]), i};
    used += ways[i];
  }
  std::sort(rem.begin(), rem.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; k < rem.size() && used < total_ways; ++k) {
    ++ways[rem[k].second];
    ++used;
  }
  // Every program with a nonzero unit allocation should get at least one
  // way when the budget allows: steal from the largest holder.
  for (std::size_t i = 0; i < ways.size(); ++i) {
    if (alloc[i] > 0 && ways[i] == 0) {
      std::size_t richest =
          static_cast<std::size_t>(std::max_element(ways.begin(), ways.end()) -
                                   ways.begin());
      if (ways[richest] > 1) {
        --ways[richest];
        ++ways[i];
      }
    }
  }
  return ways;
}

WayPartitionResult simulate_way_partitioned(
    const InterleavedTrace& trace, std::size_t num_sets, std::size_t ways,
    const std::vector<std::size_t>& way_quota, std::size_t warmup) {
  WayPartitionedCache cache(num_sets, ways, way_quota);
  std::vector<std::uint64_t> hits(way_quota.size(), 0);
  std::vector<std::uint64_t> misses(way_quota.size(), 0);
  for (std::size_t t = 0; t < trace.length(); ++t) {
    bool hit = cache.access(trace.blocks[t], trace.owners[t]);
    if (t >= warmup) {
      if (hit) {
        ++hits[trace.owners[t]];
      } else {
        ++misses[trace.owners[t]];
      }
    }
  }
  cache.publish_tallies();
  WayPartitionResult out;
  out.per_program_mr.resize(way_quota.size());
  std::uint64_t th = 0, tm = 0;
  for (std::size_t p = 0; p < way_quota.size(); ++p) {
    std::uint64_t total = hits[p] + misses[p];
    out.per_program_mr[p] =
        total == 0 ? 0.0
                   : static_cast<double>(misses[p]) /
                         static_cast<double>(total);
    th += hits[p];
    tm += misses[p];
  }
  out.group_mr = (th + tm) == 0
                     ? 0.0
                     : static_cast<double>(tm) /
                           static_cast<double>(th + tm);
  return out;
}

}  // namespace ocps
