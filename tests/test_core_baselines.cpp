// Tests for baseline-constrained (fair) optimization (§VI) and the
// additional objectives.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/composition.hpp"
#include "core/dp_partition.hpp"
#include "core/group_sweep.hpp"
#include "core/objectives.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

ProgramModel model_of(const std::string& name, const Trace& trace,
                      double rate, std::size_t capacity) {
  return make_program_model(name, rate, compute_footprint(trace), capacity);
}

struct Fixture {
  std::vector<ProgramModel> models;
  std::size_t capacity = 120;

  Fixture() {
    models.push_back(model_of("zipf", make_zipf(40000, 200, 0.9, 71), 2.0,
                              capacity));
    models.push_back(
        model_of("cliff", make_cyclic(40000, 80), 1.5, capacity));
    models.push_back(
        model_of("small", make_sawtooth(40000, 30), 0.8, capacity));
    models.push_back(model_of(
        "hotcold", make_hot_cold(40000, 20, 150, 0.7, 72), 1.2, capacity));
  }

  CoRunGroup group() const {
    return CoRunGroup(
        {&models[0], &models[1], &models[2], &models[3]});
  }

  CostMatrix costs() const {
    std::vector<const MissRatioCurve*> curves;
    std::vector<double> weights;
    for (const auto& m : models) {
      curves.push_back(&m.mrc);
      weights.push_back(m.access_rate);
    }
    return weighted_cost_matrix(curves, weights, capacity);
  }
};

TEST(EqualPartition, SplitsWithRemainder) {
  EXPECT_EQ(equal_partition(4, 8), (std::vector<std::size_t>{2, 2, 2, 2}));
  EXPECT_EQ(equal_partition(3, 8), (std::vector<std::size_t>{3, 3, 2}));
  EXPECT_EQ(equal_partition(1, 5), (std::vector<std::size_t>{5}));
}

TEST(BaselineMinAllocs, ThresholdsAreSufficientAndTight) {
  Fixture f;
  CoRunGroup g = f.group();
  auto equal = equal_partition(4, f.capacity);
  std::vector<double> baseline(equal.begin(), equal.end());
  auto mins = baseline_min_allocs(g, baseline);
  for (std::size_t i = 0; i < 4; ++i) {
    // Sufficient: at min_alloc the program is at least as good as baseline.
    EXPECT_LE(g[i].mrc.ratio(mins[i]),
              g[i].mrc.ratio(equal[i]) + 1e-9);
    // Tight: one unit less would be worse (or min is 0).
    if (mins[i] > 0) {
      EXPECT_GT(g[i].mrc.ratio(mins[i] - 1),
                g[i].mrc.ratio(equal[i]) + 1e-12);
    }
    // Never demands more than the baseline itself.
    EXPECT_LE(mins[i], equal[i]);
  }
}

TEST(BaselineOpt, EqualBaselineNeverHurtsAnyone) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  DpResult r = optimize_equal_baseline(g, cost.view(), f.capacity);
  ASSERT_TRUE(r.feasible);
  auto equal = equal_partition(4, f.capacity);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_LE(g[i].mrc.ratio(r.alloc[i]),
              g[i].mrc.ratio(equal[i]) + 1e-9)
        << "program " << i;
}

TEST(BaselineOpt, NaturalBaselineNeverHurtsAnyone) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  DpResult r = optimize_natural_baseline(g, cost.view(), f.capacity);
  ASSERT_TRUE(r.feasible);
  auto natural = natural_partition(g, static_cast<double>(f.capacity));
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_LE(g[i].mrc.ratio(r.alloc[i]),
              g[i].mrc.ratio_at(natural[i]) + 1e-9)
        << "program " << i;
}

TEST(BaselineOpt, NaturalBaselineFallsBackToIntegerizedShares) {
  // Cliffs just above each fractional occupancy make both bounds round
  // up (2 + 3 units) past C = 4; the integerized natural partition is
  // the baseline then, and its bounds admit a solve.
  ProgramModel a, b;
  a.mrc = MissRatioCurve({1.0, 0.9, 0.1, 0.05, 0.0}, 100);
  b.mrc = MissRatioCurve({1.0, 0.95, 0.9, 0.2, 0.0}, 100);
  CoRunGroup g({&a, &b});
  const std::vector<double> natural = {1.5, 2.5};
  const auto direct = baseline_min_allocs(g, natural);
  ASSERT_EQ(direct, (std::vector<std::size_t>{2, 3}));

  const auto integral = integerize_partition(natural, 4);
  const auto bounds = natural_baseline_min_allocs(g, natural, 4);
  EXPECT_EQ(bounds,
            baseline_min_allocs(
                g, std::vector<double>(integral.begin(), integral.end())));
  EXPECT_LE(bounds[0] + bounds[1], 4u);
  CostMatrix cost = weighted_cost_matrix({&a.mrc, &b.mrc}, {1.0, 1.0}, 4);
  DpOptions options;
  options.min_alloc = bounds;
  EXPECT_TRUE(optimize_partition(cost.view(), 4, options).feasible);

  // With room for the fractional bounds, they are kept as they are.
  EXPECT_EQ(natural_baseline_min_allocs(g, natural, 5), direct);
}

TEST(BaselineOpt, ConstrainedBetweenBaselineAndOptimal) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();

  DpResult optimal = optimize_partition(cost.view(), f.capacity);
  DpResult eq_base = optimize_equal_baseline(g, cost.view(), f.capacity);

  auto equal = equal_partition(4, f.capacity);
  double equal_cost = 0.0;
  for (std::size_t i = 0; i < 4; ++i) equal_cost += cost(i, equal[i]);

  // Optimal <= constrained <= plain-baseline cost.
  EXPECT_LE(optimal.objective_value, eq_base.objective_value + 1e-12);
  EXPECT_LE(eq_base.objective_value, equal_cost + 1e-12);
}

TEST(BaselineOpt, OrderingHoldsAcrossRandomGroups) {
  // Property over several random 3-program groups: Optimal <= NaturalBase
  // <= Natural(cost); Optimal <= EqualBase <= Equal(cost).
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    std::size_t cap = 90;
    std::vector<ProgramModel> models;
    models.push_back(model_of(
        "z", make_zipf(30000, 150 + 20 * seed, 0.8 + 0.05 * seed, seed), 1.0,
        cap));
    models.push_back(model_of(
        "c", make_cyclic(30000, 40 + 10 * seed), 1.5, cap));
    models.push_back(model_of(
        "h", make_hot_cold(30000, 15, 120, 0.6, seed + 500), 2.0, cap));
    CoRunGroup g({&models[0], &models[1], &models[2]});
    std::vector<const MissRatioCurve*> curves;
    std::vector<double> weights;
    for (const auto& m : models) {
      curves.push_back(&m.mrc);
      weights.push_back(m.access_rate);
    }
    CostMatrix cost = weighted_cost_matrix(curves, weights, cap);

    DpResult optimal = optimize_partition(cost.view(), cap);
    DpResult nat_base = optimize_natural_baseline(g, cost.view(), cap);
    DpResult eq_base = optimize_equal_baseline(g, cost.view(), cap);
    ASSERT_TRUE(optimal.feasible);
    ASSERT_TRUE(nat_base.feasible);
    ASSERT_TRUE(eq_base.feasible);
    EXPECT_LE(optimal.objective_value, nat_base.objective_value + 1e-12);
    EXPECT_LE(optimal.objective_value, eq_base.objective_value + 1e-12);
  }
}

TEST(Objectives, MinimaxNeverWorseThanSumOnWorstMember) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  DpResult sum_opt = optimize_partition(cost.view(), f.capacity);
  DpResult minimax = optimize_minimax(g, f.capacity);
  ASSERT_TRUE(minimax.feasible);
  auto worst = [&](const std::vector<std::size_t>& alloc) {
    double w = 0.0;
    for (std::size_t i = 0; i < 4; ++i)
      w = std::max(w, g[i].mrc.ratio(alloc[i]));
    return w;
  };
  EXPECT_LE(worst(minimax.alloc), worst(sum_opt.alloc) + 1e-12);
}

TEST(Objectives, QosFloorsRespected) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  // Demand each program do at least as well as with a third of the cache.
  std::vector<double> ceilings;
  for (std::size_t i = 0; i < 4; ++i)
    ceilings.push_back(g[i].mrc.ratio(f.capacity / 3));
  DpResult r = optimize_with_qos(g, cost.view(), f.capacity, ceilings);
  if (r.feasible) {
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_LE(g[i].mrc.ratio(r.alloc[i]), ceilings[i] + 1e-9);
  }
}

TEST(Objectives, QosUnattainableReportsInfeasible) {
  Fixture f;
  CoRunGroup g = f.group();
  CostMatrix cost = f.costs();
  std::vector<double> impossible(4, -1.0);  // below any achievable ratio
  DpResult r = optimize_with_qos(g, cost.view(), f.capacity, impossible);
  EXPECT_FALSE(r.feasible);
}

TEST(Objectives, JainIndexBounds) {
  Fixture f;
  CoRunGroup g = f.group();
  auto equal = equal_partition(4, f.capacity);
  std::vector<double> equal_mr;
  for (std::size_t i = 0; i < 4; ++i)
    equal_mr.push_back(g[i].mrc.ratio(equal[i]));
  double j = jain_fairness_vs_equal(g, equal_mr, f.capacity);
  EXPECT_NEAR(j, 1.0, 1e-9);  // equal partition is perfectly fair vs itself
  double j2 = jain_fairness_vs_equal(g, {1.0, 0.001, 0.5, 0.2}, f.capacity);
  EXPECT_GE(j2, 0.25 - 1e-9);
  EXPECT_LE(j2, 1.0 + 1e-9);
}

TEST(Objectives, CountLosers) {
  EXPECT_EQ(count_losers({0.5, 0.2, 0.3}, {0.4, 0.2, 0.4}), 1u);
  EXPECT_EQ(count_losers({0.1, 0.1}, {0.2, 0.2}), 0u);
  EXPECT_THROW(count_losers({0.1}, {0.1, 0.2}), CheckError);
}

}  // namespace
}  // namespace ocps
