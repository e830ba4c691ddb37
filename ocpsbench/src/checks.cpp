#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "core/dp_partition.hpp"
#include "util/check.hpp"

namespace ocpsbench {

using ocps::GroupEvaluation;
using ocps::Method;

namespace {

bool exceeds(double a, double b) { return a > b + kRelTol * std::fabs(b); }

std::string describe(const GroupEvaluation& g, Method worse, Method better) {
  std::ostringstream os;
  os << "group {";
  for (std::size_t i = 0; i < g.members.size(); ++i)
    os << (i ? "," : "") << g.members[i];
  os << "}: " << ocps::method_name(worse) << " "
     << g.of(worse).group_mr << " > " << ocps::method_name(better) << " "
     << g.of(better).group_mr;
  return os.str();
}

}  // namespace

SweepCheck check_sweep(const std::vector<GroupEvaluation>& sweep) {
  SweepCheck out;
  out.groups = sweep.size();
  for (const GroupEvaluation& g : sweep) {
    bool bad = false;
    auto expect_le = [&](Method lo, Method hi) {
      if (!exceeds(g.of(lo).group_mr, g.of(hi).group_mr)) return;
      if (out.first.empty()) out.first = describe(g, lo, hi);
      bad = true;
    };
    for (Method m : {Method::kEqual, Method::kNatural, Method::kEqualBaseline,
                     Method::kNaturalBaseline, Method::kSttw})
      expect_le(Method::kOptimal, m);
    expect_le(Method::kEqualBaseline, Method::kEqual);
    if (bad) ++out.violations;
  }
  return out;
}

std::uint64_t sweep_digest(const std::vector<GroupEvaluation>& sweep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const GroupEvaluation& g : sweep)
    for (const auto& m : g.methods) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &m.group_mr, sizeof(double));
      for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    }
  return h;
}

namespace {

/// Member rows of `programs` in ascending table order; empty when a name
/// is unknown.
std::vector<std::uint32_t> sorted_members(
    const ocps::serve::ProfileSet& set,
    const std::vector<std::string>& programs) {
  std::vector<std::uint32_t> members;
  for (const std::string& name : programs) {
    std::size_t idx = set.index_of(name);
    if (idx == ocps::serve::ProfileSet::npos) return {};
    members.push_back(static_cast<std::uint32_t>(idx));
  }
  std::sort(members.begin(), members.end());
  return members;
}

}  // namespace

double expected_objective(const ocps::serve::ProfileSet& set,
                          const std::vector<std::string>& programs,
                          const std::string& objective,
                          std::size_t capacity) {
  std::vector<std::uint32_t> members = sorted_members(set, programs);
  OCPS_CHECK(members.size() == programs.size() && !members.empty(),
             "request names an unknown program");
  std::vector<const double*> rows;
  ocps::CostMatrixView view =
      set.unit_costs.gather(members.data(), members.size(), rows);
  ocps::DpOptions options;
  options.objective = objective == "max" ? ocps::DpObjective::kMaxCost
                                         : ocps::DpObjective::kSumCost;
  ocps::DpResult r = ocps::optimize_partition(view, capacity, options);
  OCPS_CHECK(r.feasible, "in-process DP reported infeasible");
  return r.objective_value;
}

PartitionAnswer decode_partition_answer(const ocps::json::Value& body) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto number = [&](const ocps::json::Value* v) {
    return v != nullptr && v->is_number() ? v->as_number() : nan;
  };
  PartitionAnswer out;
  out.capacity = number(body.find("capacity"));
  out.objective_value = number(body.find("objective_value"));
  out.version = number(body.find("version"));
  const ocps::json::Value* alloc = body.find("alloc");
  if (alloc != nullptr && alloc->is_array())
    for (const ocps::json::Value& a : alloc->as_array())
      out.alloc.push_back(number(&a));
  return out;
}

std::string check_partition_answer(const PartitionAnswer& answer,
                                   const ocps::serve::ProfileSet& set,
                                   const std::vector<std::string>& programs,
                                   const std::string& objective,
                                   std::size_t capacity, double optimum) {
  if (answer.alloc.size() != programs.size())
    return "alloc missing or of the wrong length";
  if (answer.capacity != static_cast<double>(capacity))
    return "answer capacity differs from the daemon's";
  double units = 0.0;
  double cost = 0.0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    double c = answer.alloc[i];
    if (!(c >= 0.0) || c != std::floor(c) ||
        c > static_cast<double>(capacity))
      return "alloc entry is not a whole number of units in range";
    units += c;
    double unit_cost = set.unit_costs(set.index_of(programs[i]),
                                      static_cast<std::size_t>(c));
    cost = objective == "max" ? std::max(cost, unit_cost) : cost + unit_cost;
  }
  std::ostringstream os;
  os.precision(17);
  if (units != static_cast<double>(capacity)) {
    os << "alloc sums to " << units << ", capacity is " << capacity;
    return os.str();
  }
  if (exceeds(cost, optimum) || exceeds(optimum, cost)) {
    os << "alloc costs " << cost << ", optimum is " << optimum;
    return os.str();
  }
  if (answer.objective_value != optimum) {
    os << "objective_value " << answer.objective_value
       << " differs from in-process optimum " << optimum;
    return os.str();
  }
  return "";
}

}  // namespace ocpsbench
