// The partitioning DP's one driver, prefix-memoized for batched group
// evaluation (the engine behind sweep_groups, the serve daemon, the online
// controller and the one-shot optimize_partition).
//
// The Table I sweep solves the same partitioning DP for every co-run
// group drawn from one program table. The DP table is built one member
// layer at a time, and a layer depends only on the member prefix before
// it — so two groups that share a prefix share those layers exactly.
// Enumerated in lexicographic order, the C(13,4) = 715 four-member groups
// of a 13-program table touch only 13 + 78 + 286 = 377 distinct non-final
// layers instead of 715 × 3 = 2,145: adjacent groups usually differ only
// in the last member, and the last layer is never materialized anyway —
// the backtrack reads just its capacity column, so the solver computes
// that single state (O(C) instead of O(C²/2)).
//
// PrefixDpSolver keeps the layer stack from the previous solve and reuses
// the longest prefix whose (member, lower-bound) pairs match; every
// buffer is reused, so once each prefix depth has been built steady-state
// solves do zero heap allocation. Every layer goes through
// dp_detail::forward_layer (core/dp_kernel.hpp). Each solve emits the
// `dp.optimize` span and the `dp.*` metrics.
//
// Incremental re-solve: each cached layer remembers a fingerprint of the
// cost row it was built from. When a profile changes between controller
// epochs or serve hot reloads, resolve_incremental() invalidates only the
// layers whose prefix includes the changed program — either named
// explicitly (resolve_incremental(changed_program)) or detected by
// fingerprint diff against a replacement cost table
// (resolve_incremental(new_costs)). The next solve() then rebuilds just
// the invalidated suffix: a one-program change costs O(suffix) layers,
// not a full reconfigure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cost_matrix.hpp"
#include "core/dp_partition.hpp"

namespace ocps {

/// Batched DP solver over groups drawn from one cost table. Not
/// thread-safe: use one per sweep thread (see parallel_for_with).
class PrefixDpSolver {
 public:
  /// Cumulative work counters (also mirrored to obs by the sweep).
  struct Stats {
    std::uint64_t solves = 0;
    std::uint64_t layers_computed = 0;  ///< forward layers actually built
    std::uint64_t layers_reused = 0;    ///< layers served from the stack
    std::uint64_t cells = 0;            ///< DP cells examined
    std::uint64_t layers_invalidated = 0;  ///< dropped by resolve_incremental
    std::uint64_t incremental_refreshes = 0;  ///< resolve_incremental calls
  };

  /// Binds the solver to a cost table (cost(i, c) for every program i in
  /// the table, c = 0..capacity) and an objective. Validates the table
  /// once (validate_cost_table, throwing CheckError on rejection) so
  /// per-solve validation is free. Invalidates any cached layers.
  void configure(CostMatrixView all_costs, std::size_t capacity,
                 DpObjective objective);

  /// Solves the partitioning DP for the group `members[0..count)` (indices
  /// into the configured table) with optional per-position lower bounds
  /// `lo` (nullptr = all zero; upper bounds are the full capacity). Reuses
  /// `out.alloc` storage. Infeasible bounds yield out.feasible == false.
  void solve(const std::uint32_t* members, std::size_t count,
             const std::size_t* lo, DpResult& out);

  /// Notes that `changed_program`'s cost row changed in place (the view
  /// still points at the same table): drops every cached layer whose
  /// prefix includes that program — layers before its first appearance
  /// are unaffected, so the next solve() rebuilds only the suffix.
  /// Returns the number of layers invalidated (obs counter
  /// `dp.layers_invalidated`).
  std::size_t resolve_incremental(std::uint32_t changed_program);

  /// Rebinds the solver to a replacement cost table of the same shape
  /// (rows, cols) — a serve hot reload or a controller epoch's refreshed
  /// estimates — keeping every cached layer whose cost row is
  /// bit-identical to the one it was built from (per-layer fingerprint
  /// diff; in-place mutation of the old table is safe because the
  /// fingerprint was taken at build time; any change to a single 64-bit
  /// word, 0.0 → -0.0 included, is detected). Layers from the first
  /// changed row onward are invalidated. Validates the new table like
  /// configure(). Returns the number of layers invalidated. Use
  /// configure() when capacity, objective, or table shape change.
  std::size_t resolve_incremental(CostMatrixView new_costs);

  const Stats& stats() const { return stats_; }

 private:
  // One cached DP layer: the table row after including `member` with lower
  // bound `lo` at this position. best/choice are sized capacity+1 and
  // reused across solves.
  struct Layer {
    std::uint32_t member = 0;
    std::size_t lo = 0;
    std::uint64_t fingerprint = 0;  ///< hash of the cost row at build time
    std::vector<double> best;
    std::vector<std::uint32_t> choice;
  };

  // Invalidation helper shared by the resolve_incremental overloads.
  std::size_t truncate_layers(std::size_t keep);

  CostMatrixView costs_;
  std::size_t capacity_ = 0;
  DpObjective objective_ = DpObjective::kSumCost;
  std::vector<Layer> layers_;
  std::size_t valid_layers_ = 0;  ///< prefix of layers_ that is current
  std::vector<double> final_best_;
  std::vector<std::uint32_t> final_choice_;
  Stats stats_;
};

}  // namespace ocps
