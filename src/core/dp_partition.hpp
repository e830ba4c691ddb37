// Optimal cache partitioning by dynamic programming (§V-B, Eq. 15-16).
//
// Given per-program cost curves cost_i(c) over integer allocations
// c = 0..C, find the allocation (c_1..c_P) with Σ c_i = C minimizing the
// objective. Unlike STTW, no convexity is assumed: the DP examines the
// entire solution space in O(P·C²) time and O(P·C) space.
//
// Two objectives are built in, both associative-monotone so the same table
// recurrence applies:
//   * kSumCost     — Σ_i cost_i(c_i)      (throughput: total miss count)
//   * kMaxCost     — max_i cost_i(c_i)    (QoS: worst member)
//
// Per-program lower bounds min_alloc_i express the baseline-fairness
// constraints of §VI (see baselines.hpp) and any QoS floor a caller
// wants. With lower bounds only, a solve is feasible exactly when
// Σ min_alloc_i <= C.
//
// Cost curves are passed as a CostMatrixView (core/cost_matrix.hpp);
// build one with CostMatrix::from_rows when starting from nested
// vectors. The one DP driver is PrefixDpSolver (core/batch_engine.hpp);
// optimize_partition is its one-shot form. Repeated solvers (the group
// sweep, the serve daemon, the online controller) keep a PrefixDpSolver
// so its layers are reused between solves.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cost_matrix.hpp"
#include "core/dp_kernel.hpp"
#include "locality/mrc.hpp"
#include "util/result.hpp"

namespace ocps {

/// Optimizer knobs. An empty min_alloc means 0 for every program.
struct DpOptions {
  DpObjective objective = DpObjective::kSumCost;
  std::vector<std::size_t> min_alloc;  ///< per-program lower bounds
};

/// Result of an optimization.
struct DpResult {
  bool feasible = false;
  std::vector<std::size_t> alloc;  ///< c_i per program, Σ = capacity
  double objective_value = 0.0;
};

/// Checks a cost table for a solve at `capacity`: at least one row
/// (kInvalidArgument "no cost curves given"), at least capacity+1 columns
/// (kInvalidArgument), and every entry in columns 0..capacity finite
/// (kCorruptData — NaN/inf would silently corrupt the min-reduction).
/// Returns the view itself on success. The throwing entry points wrap it
/// with OCPS_CHECK.
Result<CostMatrixView> validate_cost_table(CostMatrixView cost,
                                           std::size_t capacity);

/// Runs the DP once: a PrefixDpSolver configured on `cost`, solving
/// programs 0..rows-1. cost(i, c) is the cost of giving program i exactly
/// c units. Throws CheckError on a table validate_cost_table rejects or a
/// min_alloc of the wrong size; returns feasible == false when the bounds
/// admit no allocation.
DpResult optimize_partition(CostMatrixView cost, std::size_t capacity,
                            const DpOptions& options = {});

/// Guarded entry point for the runtime path. Same optimization as
/// optimize_partition, but every failure mode — malformed cost curves
/// (wrong sizes, NaN/inf entries), infeasible bounds, or an unexpected
/// internal CheckError — comes back as an Error value instead of an
/// exception, so an online caller can hold its last-good allocation and
/// keep serving. Offline/batch callers should keep using
/// optimize_partition, where aborting on bad input is the right policy.
Result<DpResult> try_optimize_partition(CostMatrixView cost,
                                        std::size_t capacity,
                                        const DpOptions& options = {});

/// Exhaustive reference optimizer (enumerates every composition); used as
/// the test oracle for the DP. Exponential — small instances only.
DpResult optimize_partition_exhaustive(CostMatrixView cost,
                                       std::size_t capacity,
                                       const DpOptions& options = {});

}  // namespace ocps
