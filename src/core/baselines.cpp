#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace ocps {

std::vector<std::size_t> equal_partition(std::size_t programs,
                                         std::size_t capacity) {
  OCPS_CHECK(programs >= 1, "need at least one program");
  std::vector<std::size_t> alloc(programs, capacity / programs);
  for (std::size_t i = 0; i < capacity % programs; ++i) ++alloc[i];
  return alloc;
}

std::size_t baseline_min_alloc(const MissRatioCurve& mrc, double share) {
  // Smallest integer size at least as good as the (possibly fractional)
  // baseline. LRU inclusion (monotone MRC) makes this a threshold query;
  // the tolerance absorbs interpolation noise at fractional baselines.
  std::size_t min_alloc = mrc.min_size_for_ratio(mrc.ratio_at(share), 1e-12);
  // A fractional baseline between c and c+1 may have a (slightly) lower
  // ratio than floor(c); never demand more than the ceiling of the
  // baseline itself, or feasibility (Σ min <= C) could break.
  std::size_t ceil_base = static_cast<std::size_t>(std::ceil(share - 1e-9));
  return std::min(min_alloc, ceil_base);
}

std::vector<std::size_t> baseline_min_allocs(
    const CoRunGroup& group, const std::vector<double>& baseline_alloc) {
  OCPS_CHECK(baseline_alloc.size() == group.size(),
             "baseline must cover every member");
  std::vector<std::size_t> min_alloc(group.size());
  for (std::size_t i = 0; i < group.size(); ++i)
    min_alloc[i] = baseline_min_alloc(group[i].mrc, baseline_alloc[i]);
  return min_alloc;
}

std::vector<std::size_t> natural_baseline_min_allocs(
    const CoRunGroup& group, const std::vector<double>& natural,
    std::size_t capacity) {
  std::vector<std::size_t> min_alloc = baseline_min_allocs(group, natural);
  std::size_t total = 0;
  for (std::size_t m : min_alloc) total += m;
  if (total <= capacity) return min_alloc;
  auto integral = integerize_partition(natural, capacity);
  return baseline_min_allocs(
      group, std::vector<double>(integral.begin(), integral.end()));
}

namespace {

DpResult optimize_with_bounds(CostMatrixView cost, std::size_t capacity,
                              std::vector<std::size_t> min_alloc) {
  DpOptions options;
  options.min_alloc = std::move(min_alloc);
  DpResult result = optimize_partition(cost, capacity, options);
  OCPS_CHECK(result.feasible,
             "baseline-constrained DP infeasible; baseline sums beyond C?");
  return result;
}

}  // namespace

DpResult optimize_equal_baseline(const CoRunGroup& group, CostMatrixView cost,
                                 std::size_t capacity) {
  auto equal = equal_partition(group.size(), capacity);
  return optimize_with_bounds(
      cost, capacity,
      baseline_min_allocs(group,
                          std::vector<double>(equal.begin(), equal.end())));
}

DpResult optimize_natural_baseline(const CoRunGroup& group,
                                   CostMatrixView cost, std::size_t capacity) {
  auto natural = natural_partition(group, static_cast<double>(capacity));
  return optimize_with_bounds(
      cost, capacity, natural_baseline_min_allocs(group, natural, capacity));
}

}  // namespace ocps
