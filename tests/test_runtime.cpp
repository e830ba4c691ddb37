// Tests for the Suh segmented comparator, elastic (RECU-style) allocation,
// and the online repartitioning controller.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cachesim/corun.hpp"
#include "core/elastic.hpp"
#include "core/dp_partition.hpp"
#include "core/suh.hpp"
#include "locality/footprint.hpp"
#include "runtime/controller.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps {
namespace {

ProgramModel model_of(const std::string& name, const Trace& trace,
                      double rate, std::size_t capacity) {
  return make_program_model(name, rate, compute_footprint(trace), capacity);
}

std::vector<double> random_cost_curve(Rng& rng, std::size_t capacity) {
  std::vector<double> cost(capacity + 1);
  double v = 1.0;
  for (std::size_t c = 0; c <= capacity; ++c) {
    cost[c] = v;
    double step = rng.uniform() * 0.08;
    if (rng.chance(0.12)) step += rng.uniform() * 0.35;
    v = std::max(0.0, v - step);
  }
  return cost;
}

TEST(Suh, SeesCliffsBehindPlateaus) {
  // The case the classic STTW misses entirely: Suh's segment greedy takes
  // the whole cliff atomically.
  std::vector<std::vector<double>> cost = {
      {1.0, 0.95, 0.91, 0.88, 0.86},
      {1.0, 1.0, 1.0, 1.0, 0.0},
  };
  SttwResult suh = suh_partition(cost, 4);
  EXPECT_EQ(suh.alloc[1], 4u);
  DpResult dp = optimize_partition(CostMatrix::from_rows(cost, 4).view(), 4);
  EXPECT_NEAR(suh.objective_value, dp.objective_value, 1e-12);
}

TEST(Suh, NeverBeatsDpAndUsuallyBeatsClassicSttw) {
  Rng rng(911);
  double suh_total = 0.0, classic_total = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t p = 2 + rng.below(3);
    std::size_t cap = 6 + rng.below(14);
    std::vector<std::vector<double>> cost(p);
    for (auto& row : cost) row = random_cost_curve(rng, cap);
    CostMatrix flat = CostMatrix::from_rows(cost, cap);
    DpResult dp = optimize_partition(flat.view(), cap);
    SttwResult suh = suh_partition(cost, cap);
    SttwResult classic =
        sttw_partition(flat.view(), cap, SttwVariant::kLocalDerivative);
    EXPECT_GE(suh.objective_value + 1e-12, dp.objective_value);
    suh_total += suh.objective_value;
    classic_total += classic.objective_value;
  }
  EXPECT_LE(suh_total, classic_total + 1e-9);
}

TEST(Suh, AllocSumsToCapacity) {
  Rng rng(913);
  std::vector<std::vector<double>> cost(4);
  for (auto& row : cost) row = random_cost_curve(rng, 20);
  SttwResult r = suh_partition(cost, 20);
  std::size_t total = 0;
  for (auto c : r.alloc) total += c;
  EXPECT_EQ(total, 20u);
}

struct ElasticFixture {
  std::vector<ProgramModel> models;
  std::size_t capacity = 120;

  ElasticFixture() {
    models.push_back(
        model_of("zipf", make_zipf(30000, 200, 0.9, 121), 2.0, capacity));
    models.push_back(
        model_of("cliff", make_cyclic(30000, 70), 1.2, capacity));
    models.push_back(
        model_of("small", make_sawtooth(30000, 25), 0.8, capacity));
  }
  CoRunGroup group() const {
    return CoRunGroup({&models[0], &models[1], &models[2]});
  }
  CostMatrix costs() const {
    CostMatrix cost(models.size(), capacity);
    for (std::size_t i = 0; i < models.size(); ++i) {
      double* row = cost.row(i);
      for (std::size_t c = 0; c <= capacity; ++c)
        row[c] = models[i].access_rate * models[i].mrc.ratio(c);
    }
    return cost;
  }
};

TEST(Elastic, NoDemandsEqualsPlainOptimal) {
  ElasticFixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  ElasticResult elastic = optimize_elastic(
      g, cost.view(), f.capacity, std::vector<ElasticDemand>(3));
  DpResult plain = optimize_partition(cost.view(), f.capacity);
  ASSERT_TRUE(elastic.feasible);
  EXPECT_EQ(elastic.alloc, plain.alloc);
  EXPECT_EQ(elastic.elastic_units, f.capacity);
}

TEST(Elastic, CeilingsBecomeFloorsAndAreMet) {
  ElasticFixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  std::vector<ElasticDemand> demands(3);
  demands[2].max_miss_ratio = g[2].mrc.ratio(30);  // small program QoS
  ElasticResult r = optimize_elastic(g, cost.view(), f.capacity, demands);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.alloc[2], r.reserved[2]);
  EXPECT_LE(g[2].mrc.ratio(r.alloc[2]), *demands[2].max_miss_ratio + 1e-9);
}

TEST(Elastic, MinUnitsRespected) {
  ElasticFixture f;
  CoRunGroup g = f.group();
  std::vector<ElasticDemand> demands(3);
  demands[0].min_units = 50;
  ElasticResult r =
      optimize_elastic(g, f.costs().view(), f.capacity, demands);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.alloc[0], 50u);
  EXPECT_EQ(r.elastic_units, f.capacity - 50);
}

TEST(Elastic, InfeasibleContractsReported) {
  ElasticFixture f;
  CoRunGroup g = f.group();
  std::vector<ElasticDemand> demands(3);
  demands[0].min_units = 80;
  demands[1].min_units = 80;  // 160 > 120
  ElasticResult r =
      optimize_elastic(g, f.costs().view(), f.capacity, demands);
  EXPECT_FALSE(r.feasible);
  std::vector<ElasticDemand> impossible(3);
  impossible[1].max_miss_ratio = 0.0;  // cyclic program never reaches 0
  EXPECT_FALSE(
      optimize_elastic(g, f.costs().view(), f.capacity, impossible).feasible);
}

TEST(Controller, RunsAndConservesCapacity) {
  Trace a = make_zipf(40000, 200, 0.9, 131);
  Trace b = make_cyclic(40000, 120);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 80000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 10000;
  config.sampling_rate = 0.2;
  ControllerResult r = run_online_controller(mix, 2, config);
  EXPECT_EQ(r.sim.total_accesses(), mix.length());
  EXPECT_GE(r.epochs, 6u);
  for (const auto& alloc : r.alloc_history) {
    std::size_t total = 0;
    for (auto c : alloc) total += c;
    EXPECT_EQ(total, config.capacity);
  }
  EXPECT_GT(r.sampled_fraction, 0.05);
  EXPECT_LT(r.sampled_fraction, 0.5);
}

TEST(Controller, BeatsEqualPartitioningOnSkewedPair) {
  // A cache-hungry loop vs a small program: equal split starves the loop;
  // the controller should discover the skewed split online.
  Trace hungry = make_cyclic(60000, 150);
  Trace small = make_sawtooth(60000, 20);
  InterleavedTrace mix =
      interleave_proportional({hungry, small}, {1.0, 1.0}, 120000);
  const std::size_t C = 200;

  CoRunResult equal = simulate_partitioned(mix, {100, 100});
  ControllerConfig config;
  config.capacity = C;
  config.epoch_length = 12000;
  config.sampling_rate = 0.5;
  ControllerResult online = run_online_controller(mix, 2, config);

  EXPECT_LT(online.sim.group_miss_ratio(),
            equal.group_miss_ratio() * 0.5);
  // The final allocation strongly favours the loop.
  const auto& last = online.alloc_history.back();
  EXPECT_GT(last[0], 150u);
}

TEST(Controller, TracksAMidRunBehaviourShift) {
  // Programs swap roles halfway: the controller's allocation must flip.
  Trace first_half_hungry = make_cyclic(30000, 150);
  Trace first_half_small = make_sawtooth(30000, 20);
  Trace a = first_half_hungry;
  a.append(make_sawtooth(30000, 20));
  Trace b = first_half_small;
  b.append(make_cyclic(30000, 150).relabeled(1000));
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 120000);

  ControllerConfig config;
  config.capacity = 200;
  config.epoch_length = 10000;
  config.sampling_rate = 0.5;
  ControllerResult r = run_online_controller(mix, 2, config);
  ASSERT_GE(r.alloc_history.size(), 10u);
  // Early epochs favour program 0; late epochs favour program 1.
  const auto& early = r.alloc_history[3];
  const auto& late = r.alloc_history.back();
  EXPECT_GT(early[0], early[1]);
  EXPECT_GT(late[1], late[0]);
}

TEST(Controller, RespectsQosFloors) {
  Trace a = make_cyclic(30000, 150);
  Trace b = make_sawtooth(30000, 20);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 60000);
  ControllerConfig config;
  config.capacity = 200;
  config.epoch_length = 10000;
  config.min_units = 40;
  ControllerResult r = run_online_controller(mix, 2, config);
  for (const auto& alloc : r.alloc_history)
    for (auto units : alloc) EXPECT_GE(units, 40u);
}

TEST(Controller, LogsAndReconcilesEveryDecision) {
  Trace a = make_zipf(40000, 200, 0.9, 131);
  Trace b = make_cyclic(40000, 120);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 80000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 10000;
  config.sampling_rate = 0.2;
  ControllerResult r = run_online_controller(mix, 2, config);

  ASSERT_NE(r.decisions, nullptr);
  obs::DecisionAccuracy acc = r.decisions->accuracy();
  // Startup decision + one per epoch; every one reconciled (the trailing
  // full epoch reconciles the last).
  EXPECT_EQ(acc.decisions_total, r.epochs + 1);
  EXPECT_EQ(acc.reconciled_total, acc.decisions_total);
  EXPECT_GT(acc.error_samples, 0u);
  EXPECT_TRUE(std::isfinite(acc.mean_abs_error));
  EXPECT_LE(acc.mean_abs_error, 1.0);

  // The audit ring mirrors alloc_history, newest first.
  std::vector<obs::DecisionRecord> recent = r.decisions->recent(4);
  ASSERT_GE(recent.size(), 2u);
  EXPECT_EQ(recent.front().id, r.decisions->last_id());
  EXPECT_EQ(recent.front().alloc, r.alloc_history.back());
  EXPECT_EQ(recent.front().tenants.size(), 2u);
  // 80000 % 10000 == 0: the trailing segment is a full epoch.
  EXPECT_FALSE(recent.front().partial);
  // The startup decision is the equal partition, trigger kFallback is
  // wrong for it — it must be recorded before the first epoch learns.
  obs::DecisionRecord first;
  ASSERT_TRUE(r.decisions->find(1, &first));
  EXPECT_EQ(first.epoch, 0u);
  for (std::size_t units : first.alloc) EXPECT_EQ(units, 128u);
}

TEST(Controller, TrailingPartialEpochReconcilesAsPartial) {
  Trace a = make_zipf(25000, 200, 0.9, 7);
  Trace b = make_cyclic(25000, 120);
  // 50000 total, epoch 12000: trailing 2000-access segment is partial.
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 50000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 12000;
  config.sampling_rate = 0.2;
  ControllerResult r = run_online_controller(mix, 2, config);

  std::vector<obs::DecisionRecord> recent = r.decisions->recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent.front().reconciled);
  EXPECT_TRUE(recent.front().partial);
  EXPECT_EQ(r.decisions->accuracy().reconciled_total,
            r.decisions->accuracy().decisions_total);
}

TEST(Controller, FallbackDecisionsAreTaggedWithANote) {
  Trace a = make_zipf(40000, 200, 0.9, 131);
  Trace b = make_cyclic(40000, 120);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 80000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 10000;
  config.sampling_rate = 0.2;
  ControllerHooks hooks;
  hooks.fail_dp = [](std::size_t epoch) { return epoch == 2; };
  ControllerResult r = run_online_controller(mix, 2, config, hooks);

  // Decision ids: 1 = startup, 1+k = epoch k's decision.
  obs::DecisionRecord held;
  ASSERT_TRUE(r.decisions->find(1 + 3, &held));  // epoch index 2
  EXPECT_EQ(held.trigger, obs::DecisionTrigger::kFallback);
  EXPECT_NE(held.note.find("dp failed"), std::string::npos);
  obs::DecisionRecord normal;
  ASSERT_TRUE(r.decisions->find(1 + 4, &normal));
  EXPECT_EQ(normal.trigger, obs::DecisionTrigger::kEpoch);
}

TEST(Controller, DriftDetectorFlagsAMidRunShift) {
  // Same role-swap workload as TracksAMidRunBehaviourShift: the epoch
  // after the swap, predictions built on the old behaviour miss badly,
  // so the |error| EWMA breaches and the alert names the decision.
  Trace a = make_cyclic(30000, 150);
  a.append(make_sawtooth(30000, 20));
  Trace b = make_sawtooth(30000, 20);
  b.append(make_cyclic(30000, 150).relabeled(1000));
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 120000);

  ControllerConfig config;
  config.capacity = 200;
  config.epoch_length = 10000;
  config.sampling_rate = 0.5;
  config.drift_threshold = 0.08;
  ControllerResult r = run_online_controller(mix, 2, config);

  EXPECT_TRUE(r.drift.configured);
  ASSERT_GE(r.drift_alerts.size(), 1u);
  const obs::DriftAlert& alert = r.drift_alerts.front();
  EXPECT_GT(alert.ewma_abs, config.drift_threshold);
  EXPECT_NE(alert.decision_id, 0u);
  EXPECT_FALSE(alert.tenant.empty());
  // The breach happens around the swap (~epoch 6 of 12), not at startup.
  EXPECT_GT(alert.decision_id, 3u);
}

TEST(Controller, DecisionPlaneDoesNotPerturbAllocations) {
  // The audit trail and drift detector are passive: turning drift
  // alerting on must leave the solver outputs bit-for-bit identical.
  Trace a = make_zipf(30000, 200, 0.9, 99);
  Trace b = make_cyclic(30000, 120);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, 60000);
  ControllerConfig config;
  config.capacity = 256;
  config.epoch_length = 8000;
  config.sampling_rate = 0.3;

  ControllerResult quiet = run_online_controller(mix, 2, config);
  config.drift_threshold = 0.05;
  ControllerResult alerting = run_online_controller(mix, 2, config);

  EXPECT_EQ(alerting.alloc_history, quiet.alloc_history);
  EXPECT_EQ(alerting.sim.misses, quiet.sim.misses);
  EXPECT_EQ(alerting.decisions->last_id(), quiet.decisions->last_id());
  EXPECT_TRUE(quiet.drift_alerts.empty());
}

TEST(Controller, RejectsBadConfig) {
  InterleavedTrace mix = interleave_proportional(
      {make_cyclic(100, 5)}, {1.0}, 100);
  ControllerConfig config;
  config.capacity = 0;
  EXPECT_THROW(run_online_controller(mix, 1, config), CheckError);
  config.capacity = 10;
  config.min_units = 20;
  EXPECT_THROW(run_online_controller(mix, 1, config), CheckError);
}

}  // namespace
}  // namespace ocps
