// Output checks. A run whose outputs fail any of these is not a
// measurement: the command prints correct=false and exits non-zero.
//
//  * Table I sweep, on every group: Optimal's group miss ratio is no
//    higher than any other method's, and Equal-baseline's is no higher
//    than Equal's. (Natural-baseline <= Natural is deliberately not
//    asserted: the seed violates it on hundreds of cold-path groups.)
//  * Serve answers: alloc is whole units summing to the capacity, its
//    cost equals the optimum of an in-process optimize_partition on the
//    profile set the answer names by version, and objective_value equals
//    that optimum exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/group_sweep.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace ocpsbench {

/// Relative slack for comparisons between two separately rounded
/// floating-point sums of the same quantities.
inline constexpr double kRelTol = 1e-9;

struct SweepCheck {
  std::size_t groups = 0;
  std::size_t violations = 0;
  std::string first;  ///< first violation, human-readable
};
SweepCheck check_sweep(const std::vector<ocps::GroupEvaluation>& sweep);

/// FNV-1a over every method's group miss ratio, for information only:
/// Table I values are not pinned.
std::uint64_t sweep_digest(const std::vector<ocps::GroupEvaluation>& sweep);

/// Optimum of the partition problem a `partition` request poses, solved
/// in-process with optimize_partition on `set`'s unit costs (members in
/// ascending table order, as the daemon solves them).
double expected_objective(const ocps::serve::ProfileSet& set,
                          const std::vector<std::string>& programs,
                          const std::string& objective,
                          std::size_t capacity);

/// The fields of an ok `partition` answer that the checks read. Absent
/// or non-numeric fields decode to NaN (alloc entries included).
struct PartitionAnswer {
  std::vector<double> alloc;
  double capacity = 0.0;
  double objective_value = 0.0;
  double version = 0.0;
};
PartitionAnswer decode_partition_answer(const ocps::json::Value& body);

/// Checks one ok `partition` answer; returns "" when it passes, else why.
std::string check_partition_answer(const PartitionAnswer& answer,
                                   const ocps::serve::ProfileSet& set,
                                   const std::vector<std::string>& programs,
                                   const std::string& objective,
                                   std::size_t capacity, double optimum);

}  // namespace ocpsbench
