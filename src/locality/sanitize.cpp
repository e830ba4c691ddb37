#include "locality/sanitize.hpp"

#include <algorithm>
#include <cmath>

namespace ocps {

Result<MissRatioCurve> sanitize_mrc(std::vector<double> ratios,
                                    std::uint64_t accesses,
                                    std::size_t capacity,
                                    RepairReport* report) {
  RepairReport local;
  RepairReport& r = report ? *report : local;

  if (ratios.empty())
    return Err(ErrorCode::kDegenerateProfile, "empty miss-ratio estimate");

  bool any_finite = false;
  for (double v : ratios)
    if (std::isfinite(v)) {
      any_finite = true;
      break;
    }
  if (!any_finite)
    return Err(ErrorCode::kDegenerateProfile,
               "miss-ratio estimate has no finite entry");

  // Truncated estimate: extend with the final value (the curve has
  // flattened by the time an estimator stops emitting sizes).
  if (ratios.size() < capacity + 1) {
    r.extended += capacity + 1 - ratios.size();
    ratios.resize(capacity + 1, ratios.back());
  }

  // Non-finite entries: carry the previous finite value forward; leading
  // non-finite entries take the first finite value instead.
  std::size_t first_finite = 0;
  while (!std::isfinite(ratios[first_finite])) ++first_finite;
  double carry = ratios[first_finite];
  for (std::size_t c = 0; c < ratios.size(); ++c) {
    if (std::isfinite(ratios[c])) {
      carry = ratios[c];
    } else {
      ratios[c] = carry;
      ++r.nonfinite;
    }
  }

  // Range: miss ratios live in [0,1].
  for (double& v : ratios) {
    double clamped = std::clamp(v, 0.0, 1.0);
    if (clamped != v) {
      v = clamped;
      ++r.clamped;
    }
  }

  // Monotonicity: LRU inclusion makes true curves non-increasing.
  for (std::size_t c = 1; c < ratios.size(); ++c) {
    if (ratios[c] > ratios[c - 1]) {
      ratios[c] = ratios[c - 1];
      ++r.monotone;
    }
  }

  return Ok(MissRatioCurve(std::move(ratios), accesses));
}

}  // namespace ocps
