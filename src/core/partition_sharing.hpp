// Partition-sharing schemes (§II) and the reduction to partitioning (§V).
//
// A scheme groups programs and gives each group a private partition that
// its members share free-for-all. Under the Natural Partition Assumption a
// group sharing S units performs exactly like its natural partition of S
// units, so every scheme maps to a plain partitioning — which is why the
// optimal partitioning upper-bounds all of partition-sharing. The
// exhaustive search here walks the full scheme space (set partitions ×
// wall placements) on small instances to check that reduction and to size
// the search space against §II's S2/S3 numbers.
#pragma once

#include <vector>

#include "combinatorics/enumerate.hpp"
#include "core/composition.hpp"

namespace ocps {

/// One partition-sharing configuration.
struct SharingScheme {
  SetPartition groups;                  ///< program indices per group
  std::vector<std::size_t> group_sizes; ///< cache units per group
};

/// Model-predicted outcome of running a scheme.
struct SchemeOutcome {
  std::vector<double> per_program_mr;  ///< indexed like the co-run group
  double group_mr = 0.0;               ///< access-weighted
};

/// Evaluates a scheme under the composition model: each group's members
/// receive their natural occupancies within the group's partition.
SchemeOutcome evaluate_scheme(const CoRunGroup& corun,
                              const SharingScheme& scheme);

/// Exhaustively searches every scheme (every set partition of the programs
/// × every weak composition of `capacity` over the groups) and returns the
/// scheme minimizing the group miss ratio. Exponential: intended for
/// small capacities (the reduction-theorem bench and tests).
struct BestSchemeResult {
  SharingScheme scheme;
  SchemeOutcome outcome;
  std::uint64_t schemes_examined = 0;
};
BestSchemeResult best_partition_sharing(const CoRunGroup& corun,
                                        std::size_t capacity);

/// The partitioning-only restriction of the same search (singleton groups
/// only); equivalent to the DP's optimum and used to cross-check it.
BestSchemeResult best_partitioning_only(const CoRunGroup& corun,
                                        std::size_t capacity);

}  // namespace ocps
