#include "core/phase_aware.hpp"

#include <algorithm>

#include "core/dp_partition.hpp"
#include "core/group_sweep.hpp"
#include "locality/footprint.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {

// The DP over one epoch's models, each costed at access rate × miss ratio.
DpResult optimize_epoch(const std::vector<ProgramModel>& models,
                        std::size_t capacity) {
  CostMatrix cost = precompute_unit_cost_matrix(models, capacity);
  DpResult dp = optimize_partition(cost.view(), capacity);
  OCPS_CHECK(dp.feasible, "per-epoch DP must be feasible");
  return dp;
}

// Per-program LRU partitions sized by allocs[0], resized to allocs[e] at
// interleaved position switch_at[e-1].
CoRunResult simulate_switching(
    const InterleavedTrace& trace,
    const std::vector<std::vector<std::size_t>>& allocs,
    const std::vector<std::size_t>& switch_at, std::size_t p,
    const CoRunOptions& options) {
  OCPS_CHECK(!allocs.empty(), "empty plan");
  for (const auto& alloc : allocs)
    OCPS_CHECK(alloc.size() == p, "ragged plan");

  std::vector<LruCache> partitions;
  partitions.reserve(p);
  for (std::size_t i = 0; i < p; ++i) partitions.emplace_back(allocs[0][i]);

  CoRunResult out;
  out.accesses.assign(p, 0);
  out.misses.assign(p, 0);
  std::size_t epoch = 0;
  for (std::size_t t = 0; t < trace.length(); ++t) {
    while (epoch < switch_at.size() && t >= switch_at[epoch]) {
      ++epoch;
      for (std::size_t i = 0; i < p; ++i)
        partitions[i].set_capacity(allocs[epoch][i]);
    }
    std::uint32_t who = trace.owners[t];
    OCPS_CHECK(who < p, "owner outside plan");
    bool hit = partitions[who].access(trace.blocks[t]);
    if (t >= options.warmup) {
      ++out.accesses[who];
      if (!hit) ++out.misses[who];
    }
  }
  for (const LruCache& c : partitions) c.publish_tallies();
  return out;
}

}  // namespace

EpochProfile profile_epochs(const std::vector<Trace>& traces,
                            const std::vector<double>& rates,
                            std::size_t epochs, std::size_t capacity) {
  OCPS_CHECK(!traces.empty(), "no traces");
  OCPS_CHECK(epochs >= 1, "need at least one epoch");
  OCPS_CHECK(traces[0].length() >= epochs, "more epochs than accesses");
  EpochProfile out;
  out.epoch_length = traces[0].length() / epochs;
  std::vector<std::size_t> boundaries;
  for (std::size_t e = 1; e < epochs; ++e)
    boundaries.push_back(e * out.epoch_length);
  out.epoch_models =
      profile_epochs_at(traces, rates, boundaries, capacity).epoch_models;
  return out;
}

VariableEpochProfile profile_epochs_at(
    const std::vector<Trace>& traces, const std::vector<double>& rates,
    const std::vector<std::size_t>& boundaries, std::size_t capacity) {
  OCPS_CHECK(!traces.empty(), "no traces");
  OCPS_CHECK(traces.size() == rates.size(), "rates must parallel traces");
  const std::size_t n = traces[0].length();
  for (const auto& t : traces)
    OCPS_CHECK(t.length() == n, "traces must have equal length");

  // Normalize boundaries: strictly increasing, inside (0, n).
  std::vector<std::size_t> starts = {0};
  for (std::size_t b : boundaries) {
    OCPS_CHECK(b > starts.back(), "boundaries must be strictly increasing");
    OCPS_CHECK(b < n, "boundary beyond trace length");
    starts.push_back(b);
  }

  VariableEpochProfile out;
  out.epoch_starts = starts;
  out.epoch_models.resize(starts.size());
  for (std::size_t e = 0; e < starts.size(); ++e) {
    std::size_t lo = starts[e];
    std::size_t hi = (e + 1 < starts.size()) ? starts[e + 1] : n;
    for (std::size_t p = 0; p < traces.size(); ++p) {
      Trace slice;
      slice.accesses.assign(
          traces[p].accesses.begin() + static_cast<long>(lo),
          traces[p].accesses.begin() + static_cast<long>(hi));
      out.epoch_models[e].push_back(make_program_model(
          "p" + std::to_string(p) + "@e" + std::to_string(e), rates[p],
          compute_footprint(slice), capacity));
    }
  }
  return out;
}

VariablePhasePlan phase_aware_optimize_at(const VariableEpochProfile& profile,
                                          std::size_t capacity) {
  OCPS_CHECK(profile.num_epochs() >= 1, "empty profile");
  VariablePhasePlan plan;
  plan.epoch_starts = profile.epoch_starts;
  plan.alloc_per_epoch.resize(profile.num_epochs());
  for (std::size_t e = 0; e < profile.num_epochs(); ++e)
    plan.alloc_per_epoch[e] =
        optimize_epoch(profile.epoch_models[e], capacity).alloc;
  return plan;
}

CoRunResult simulate_variable_partitioned(const InterleavedTrace& trace,
                                          const VariablePhasePlan& plan,
                                          std::size_t num_programs,
                                          const CoRunOptions& options) {
  OCPS_CHECK(plan.epoch_starts.size() == plan.alloc_per_epoch.size(),
             "plan starts must parallel allocations");
  // Switch points in interleaved positions: per-program epoch start times
  // scale by the number of interleaved programs.
  std::vector<std::size_t> switch_at;
  for (std::size_t e = 1; e < plan.epoch_starts.size(); ++e)
    switch_at.push_back(plan.epoch_starts[e] * num_programs);
  return simulate_switching(trace, plan.alloc_per_epoch, switch_at,
                            num_programs, options);
}

PhaseAwarePlan phase_aware_optimize(const EpochProfile& profile,
                                    std::size_t capacity) {
  OCPS_CHECK(profile.num_epochs() >= 1, "empty profile");
  PhaseAwarePlan plan;
  plan.alloc_per_epoch.resize(profile.num_epochs());
  double mr_sum = 0.0;
  for (std::size_t e = 0; e < profile.num_epochs(); ++e) {
    double rate_sum = 0.0;
    for (const ProgramModel& m : profile.epoch_models[e])
      rate_sum += m.access_rate;
    DpResult dp = optimize_epoch(profile.epoch_models[e], capacity);
    plan.alloc_per_epoch[e] = dp.alloc;
    mr_sum += dp.objective_value / rate_sum;
  }
  plan.predicted_group_mr = mr_sum / static_cast<double>(profile.num_epochs());
  return plan;
}

CoRunResult simulate_dynamic_partitioned(const InterleavedTrace& trace,
                                         const PhaseAwarePlan& plan,
                                         const CoRunOptions& options) {
  OCPS_CHECK(!plan.alloc_per_epoch.empty(), "empty plan");
  const std::size_t epochs = plan.alloc_per_epoch.size();
  const std::size_t epoch_len =
      std::max<std::size_t>(1, trace.length() / epochs);
  std::vector<std::size_t> switch_at;
  for (std::size_t e = 1; e < epochs; ++e) switch_at.push_back(e * epoch_len);
  return simulate_switching(trace, plan.alloc_per_epoch, switch_at,
                            plan.alloc_per_epoch[0].size(), options);
}

}  // namespace ocps
