// Validation and repair of estimated locality profiles.
//
// Sampled/online estimates are noisy by construction: a SHARDS epoch can
// come back NaN-laced (arithmetic on an empty sample), spiked above 1
// (hash collisions on a tiny sample), truncated (a dropped message in a
// distributed profiler), or non-monotone (sampling error breaking the LRU
// inclusion property). The offline loaders reject such data loudly; the
// online controller instead routes every estimate through this pass,
// which repairs what is repairable, reports exactly what it changed, and
// returns an Error only when no usable signal remains.
//
// Repairs are conservative and idempotent: a profile that is already
// valid passes through bit-identical with a zero report, which is what
// lets the hardened controller reproduce the pre-hardening allocations
// exactly on clean inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "locality/mrc.hpp"
#include "util/result.hpp"

namespace ocps {

/// What a sanitization pass changed. total() == 0 means the input was
/// already valid and came through untouched.
struct RepairReport {
  std::size_t nonfinite = 0;   ///< NaN/inf entries replaced
  std::size_t clamped = 0;     ///< values clamped into range
  std::size_t monotone = 0;    ///< monotonicity violations flattened
  std::size_t extended = 0;    ///< entries appended to a truncated curve

  std::size_t total() const {
    return nonfinite + clamped + monotone + extended;
  }
};

/// Validates and repairs raw miss-ratio samples for cache sizes
/// 0..capacity. Repairs, in order: truncation (extend with the last
/// value), non-finite entries (carry the nearest finite neighbour),
/// range (clamp into [0,1]), monotonicity (running minimum — LRU
/// inclusion guarantees non-increasing miss ratios). Returns
/// kDegenerateProfile when the input is empty or contains no finite
/// entry at all; such a profile has no signal worth repairing.
Result<MissRatioCurve> sanitize_mrc(std::vector<double> ratios,
                                    std::uint64_t accesses,
                                    std::size_t capacity,
                                    RepairReport* report = nullptr);

}  // namespace ocps
