#include "cachesim/set_assoc.hpp"

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {
// Finalizer from splitmix64: spreads block ids across sets so that strided
// synthetic traces do not alias pathologically.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

SetAssociativeCache::SetAssociativeCache(std::size_t num_sets,
                                         std::size_t ways)
    : sets_(num_sets), ways_(ways), mask_(num_sets - 1) {
  OCPS_CHECK(num_sets >= 1 && (num_sets & (num_sets - 1)) == 0,
             "num_sets must be a power of two, got " << num_sets);
  OCPS_CHECK(ways >= 1, "ways must be >= 1");
  for (auto& s : sets_) s.lines.reserve(ways);
}

void SetAssociativeCache::publish_tallies() const {
  OCPS_OBS_COUNT("sim.set_assoc.accesses", hits_ + misses_);
  OCPS_OBS_COUNT("sim.set_assoc.hits", hits_);
  OCPS_OBS_COUNT("sim.set_assoc.evictions", evictions_);
}

std::size_t SetAssociativeCache::set_index(Block b) const {
  return static_cast<std::size_t>(mix(b)) & mask_;
}

bool SetAssociativeCache::access(Block b) {
  Set& set = sets_[set_index(b)];
  auto& lines = set.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == b) {
      ++hits_;
      // Move to front (MRU).
      for (std::size_t j = i; j > 0; --j) lines[j] = lines[j - 1];
      lines[0] = b;
      return true;
    }
  }
  ++misses_;
  if (lines.size() < ways_) {
    lines.insert(lines.begin(), b);
  } else {
    ++evictions_;
    for (std::size_t j = lines.size() - 1; j > 0; --j) lines[j] = lines[j - 1];
    lines[0] = b;
  }
  return false;
}

double SetAssociativeCache::miss_ratio() const {
  std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(misses_) / static_cast<double>(total);
}

void SetAssociativeCache::reset() {
  for (auto& s : sets_) s.lines.clear();
  hits_ = misses_ = evictions_ = 0;
}

}  // namespace ocps
