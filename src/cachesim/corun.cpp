#include "cachesim/corun.hpp"

#include <unordered_map>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

double CoRunResult::miss_ratio(std::size_t program) const {
  OCPS_CHECK(program < accesses.size(), "program index out of range");
  return accesses[program] == 0
             ? 0.0
             : static_cast<double>(misses[program]) /
                   static_cast<double>(accesses[program]);
}

double CoRunResult::group_miss_ratio() const {
  std::uint64_t a = total_accesses();
  return a == 0 ? 0.0
                : static_cast<double>(total_misses()) / static_cast<double>(a);
}

std::uint64_t CoRunResult::total_accesses() const {
  std::uint64_t s = 0;
  for (auto a : accesses) s += a;
  return s;
}

std::uint64_t CoRunResult::total_misses() const {
  std::uint64_t s = 0;
  for (auto m : misses) s += m;
  return s;
}

namespace {

std::size_t num_programs(const InterleavedTrace& trace) {
  std::uint32_t p = 0;
  for (auto o : trace.owners) p = std::max(p, o + 1);
  return p;
}

}  // namespace

CoRunResult simulate_shared(const InterleavedTrace& trace,
                            std::size_t capacity,
                            const CoRunOptions& options) {
  obs::ScopedSpan span("sim.shared_corun", "cachesim");
  span.set_arg("accesses", trace.length());
  const std::size_t p = num_programs(trace);
  CoRunResult out;
  out.accesses.assign(p, 0);
  out.misses.assign(p, 0);

  LruCache cache(capacity);
  // Owner of each resident block, for occupancy accounting.
  std::unordered_map<Block, std::uint32_t> owner_of;
  owner_of.reserve(capacity * 2 + 16);
  std::vector<std::uint64_t> occupancy(p, 0);
  std::vector<double> occ_sum(p, 0.0);
  std::uint64_t occ_samples = 0;

  for (std::size_t t = 0; t < trace.length(); ++t) {
    Block b = trace.blocks[t];
    std::uint32_t who = trace.owners[t];
    bool hit = cache.access(b);
    if (!hit && capacity > 0) {
      Block victim;
      if (cache.last_eviction(&victim)) {
        auto it = owner_of.find(victim);
        OCPS_CHECK(it != owner_of.end(), "evicted block without owner");
        --occupancy[it->second];
        owner_of.erase(it);
      }
      owner_of.emplace(b, who);
      ++occupancy[who];
    }
    if (t >= options.warmup) {
      ++out.accesses[who];
      if (!hit) ++out.misses[who];
      if (options.occupancy_period > 0 &&
          (t % options.occupancy_period) == 0) {
        for (std::size_t i = 0; i < p; ++i)
          occ_sum[i] += static_cast<double>(occupancy[i]);
        ++occ_samples;
      }
    }
  }
  cache.publish_tallies();
  if (occ_samples > 0) {
    out.mean_occupancy.resize(p);
    for (std::size_t i = 0; i < p; ++i)
      out.mean_occupancy[i] = occ_sum[i] / static_cast<double>(occ_samples);
  }
  return out;
}

CoRunResult simulate_partition_sharing(
    const InterleavedTrace& trace, const std::vector<std::uint32_t>& group_of,
    const std::vector<std::size_t>& group_sizes,
    const CoRunOptions& options) {
  obs::ScopedSpan span("sim.partitioned_corun", "cachesim");
  span.set_arg("accesses", trace.length());
  const std::size_t p = num_programs(trace);
  OCPS_CHECK(group_of.size() >= p,
             "group_of must cover all " << p << " programs");
  for (std::size_t i = 0; i < p; ++i)
    OCPS_CHECK(group_of[i] < group_sizes.size(),
               "program " << i << " mapped to missing group " << group_of[i]);

  std::vector<LruCache> partitions;
  partitions.reserve(group_sizes.size());
  for (std::size_t s : group_sizes) partitions.emplace_back(s);

  CoRunResult out;
  out.accesses.assign(p, 0);
  out.misses.assign(p, 0);
  for (std::size_t t = 0; t < trace.length(); ++t) {
    std::uint32_t who = trace.owners[t];
    bool hit = partitions[group_of[who]].access(trace.blocks[t]);
    if (t >= options.warmup) {
      ++out.accesses[who];
      if (!hit) ++out.misses[who];
    }
  }
  for (const LruCache& c : partitions) c.publish_tallies();
  return out;
}

CoRunResult simulate_partitioned(
    const InterleavedTrace& trace,
    const std::vector<std::size_t>& partition_sizes,
    const CoRunOptions& options) {
  std::vector<std::uint32_t> identity(partition_sizes.size());
  for (std::size_t i = 0; i < identity.size(); ++i)
    identity[i] = static_cast<std::uint32_t>(i);
  return simulate_partition_sharing(trace, identity, partition_sizes, options);
}

}  // namespace ocps
