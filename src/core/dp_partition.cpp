#include "core/dp_partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "combinatorics/enumerate.hpp"
#include "core/batch_engine.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

Result<CostMatrixView> validate_cost_table(CostMatrixView cost,
                                           std::size_t capacity) {
  if (cost.rows() == 0)
    return Err(ErrorCode::kInvalidArgument, "no cost curves given");
  if (cost.cols() < capacity + 1)
    return Err(ErrorCode::kInvalidArgument,
               "cost curves shorter than capacity+1");
  for (std::size_t i = 0; i < cost.rows(); ++i) {
    const double* row = cost.row(i);
    for (std::size_t c = 0; c <= capacity; ++c)
      if (!std::isfinite(row[c]))
        return Err(ErrorCode::kCorruptData,
                   "non-finite cost at program " + std::to_string(i) +
                       ", c=" + std::to_string(c));
  }
  return cost;
}

DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options) {
  const std::size_t p = cost.rows();
  OCPS_CHECK(options.min_alloc.empty() || options.min_alloc.size() == p,
             "min_alloc size mismatch");
  PrefixDpSolver solver;
  solver.configure(cost, capacity, options.objective);
  std::vector<std::uint32_t> members(p);
  std::iota(members.begin(), members.end(), 0u);
  DpResult result;
  solver.solve(members.data(), p,
               options.min_alloc.empty() ? nullptr : options.min_alloc.data(),
               result);
  return result;
}

Result<DpResult> try_optimize_partition(CostMatrixView cost,
                                        std::size_t capacity,
                                        const DpOptions& options) {
  // Validate up front with error values; anything optimize_partition would
  // reject via OCPS_CHECK must be caught here first so the online path
  // never unwinds through the DP.
  auto reject = [](Error error) {
    OCPS_OBS_COUNT("dp.errors", 1);
    return error;
  };
  Result<CostMatrixView> valid = validate_cost_table(cost, capacity);
  if (!valid.ok()) return reject(valid.error());
  if (!options.min_alloc.empty() && options.min_alloc.size() != cost.rows())
    return reject(
        Err(ErrorCode::kInvalidArgument, "min_alloc size mismatch"));

  DpResult result;
  try {
    result = optimize_partition(cost, capacity, options);
  } catch (const CheckError& e) {
    return reject(Err(ErrorCode::kInternal, e.what()));
  }
  if (!result.feasible)
    return reject(Err(ErrorCode::kInfeasible,
                      "allocation bounds admit no partition of capacity " +
                          std::to_string(capacity)));
  return Ok(std::move(result));
}

DpResult optimize_partition_exhaustive(CostMatrixView cost,
                                       std::size_t capacity,
                                       const DpOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t p = cost.rows();
  OCPS_CHECK(p >= 1, "need at least one program");
  OCPS_CHECK(options.min_alloc.empty() || options.min_alloc.size() == p,
             "min_alloc size mismatch");

  DpResult best;
  best.objective_value = kInf;
  for_each_composition(
      static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(capacity), 0,
      [&](const std::vector<std::uint32_t>& alloc) {
        double value = (options.objective == DpObjective::kSumCost) ? 0.0
                                                                    : -kInf;
        for (std::size_t i = 0; i < p; ++i) {
          std::size_t c = alloc[i];
          if (!options.min_alloc.empty() && c < options.min_alloc[i])
            return true;
          value = (options.objective == DpObjective::kSumCost)
                      ? value + cost(i, c)
                      : std::max(value, cost(i, c));
        }
        if (value < best.objective_value) {
          best.feasible = true;
          best.objective_value = value;
          best.alloc.assign(alloc.begin(), alloc.end());
        }
        return true;
      });
  if (!best.feasible) best.objective_value = 0.0;
  return best;
}

}  // namespace ocps
