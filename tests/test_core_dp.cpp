// Tests for the DP optimal partitioner and the STTW comparator.
#include <gtest/gtest.h>

#include <cstring>

#include "core/batch_engine.hpp"
#include "core/dp_partition.hpp"
#include "core/sttw.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps {
namespace {

// Random non-increasing cost curve in [0, 1] with occasional cliffs.
std::vector<double> random_cost_curve(Rng& rng, std::size_t capacity,
                                      bool with_cliffs) {
  std::vector<double> cost(capacity + 1);
  double v = 1.0;
  for (std::size_t c = 0; c <= capacity; ++c) {
    cost[c] = v;
    double step = rng.uniform() * 0.1;
    if (with_cliffs && rng.chance(0.15)) step += rng.uniform() * 0.4;
    v = std::max(0.0, v - step);
  }
  return cost;
}

CostMatrix random_cost_matrix(Rng& rng, std::size_t programs,
                              std::size_t capacity, bool with_cliffs) {
  CostMatrix cost(programs, capacity);
  for (std::size_t i = 0; i < programs; ++i) {
    auto row = random_cost_curve(rng, capacity, with_cliffs);
    std::copy(row.begin(), row.end(), cost.row(i));
  }
  return cost;
}

CostMatrix make_cost(const std::vector<std::vector<double>>& rows) {
  return CostMatrix::from_rows(rows, rows.front().size() - 1);
}

double sum_cost(CostMatrixView cost, const std::vector<std::size_t>& alloc) {
  double s = 0.0;
  for (std::size_t i = 0; i < cost.rows(); ++i) s += cost(i, alloc[i]);
  return s;
}

TEST(Dp, TrivialSingleProgramTakesWholeCache) {
  CostMatrix cost = make_cost({{1.0, 0.5, 0.2, 0.1}});
  DpResult r = optimize_partition(cost.view(), 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.alloc, (std::vector<std::size_t>{3}));
  EXPECT_DOUBLE_EQ(r.objective_value, 0.1);
}

TEST(Dp, PicksTheCliffOverTheSlope) {
  // Program 0: no benefit from cache. Program 1: cliff at 3.
  CostMatrix cost = make_cost({
      {1.0, 0.99, 0.98, 0.97},
      {1.0, 1.0, 1.0, 0.0},
  });
  DpResult r = optimize_partition(cost.view(), 3);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.alloc, (std::vector<std::size_t>{0, 3}));
  EXPECT_DOUBLE_EQ(r.objective_value, 1.0);
}

TEST(Dp, AllocationAlwaysSumsToCapacity) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t p = 2 + rng.below(4);
    std::size_t cap = 5 + rng.below(30);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpResult r = optimize_partition(cost.view(), cap);
    ASSERT_TRUE(r.feasible);
    std::size_t total = 0;
    for (auto c : r.alloc) total += c;
    EXPECT_EQ(total, cap);
    EXPECT_NEAR(r.objective_value, sum_cost(cost.view(), r.alloc), 1e-12);
  }
}

// Property: DP equals the exhaustive optimum across random instances, with
// and without cliffs, sum and max objectives.
class DpOracleProperty
    : public ::testing::TestWithParam<std::tuple<int, bool, DpObjective>> {};

TEST_P(DpOracleProperty, MatchesExhaustiveSearch) {
  auto [seed, cliffs, objective] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  std::size_t p = 2 + rng.below(3);   // 2..4 programs
  std::size_t cap = 4 + rng.below(9); // 4..12 units
  CostMatrix cost = random_cost_matrix(rng, p, cap, cliffs);

  DpOptions opt;
  opt.objective = objective;
  DpResult dp = optimize_partition(cost.view(), cap, opt);
  DpResult brute = optimize_partition_exhaustive(cost.view(), cap, opt);
  ASSERT_TRUE(dp.feasible);
  ASSERT_TRUE(brute.feasible);
  EXPECT_NEAR(dp.objective_value, brute.objective_value, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpOracleProperty,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Bool(),
                       ::testing::Values(DpObjective::kSumCost,
                                         DpObjective::kMaxCost)));

TEST(Dp, RespectsLowerAndUpperBounds) {
  Rng rng(5);
  CostMatrix cost = random_cost_matrix(rng, 3, 12, true);
  DpOptions opt;
  opt.min_alloc = {2, 0, 3};
  DpResult r = optimize_partition(cost.view(), 12, opt);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.alloc[0], 2u);
  EXPECT_GE(r.alloc[2], 3u);
  DpResult brute = optimize_partition_exhaustive(cost.view(), 12, opt);
  EXPECT_NEAR(r.objective_value, brute.objective_value, 1e-12);
}

TEST(Dp, ReportsInfeasibleBounds) {
  CostMatrix cost = make_cost({{1.0, 0.5}, {1.0, 0.5}});
  DpOptions opt;
  opt.min_alloc = {1, 1};  // needs 2 units, capacity is 1
  DpResult r = optimize_partition(cost.view(), 1, opt);
  EXPECT_FALSE(r.feasible);
  opt.min_alloc = {2, 0};  // lower bound above capacity
  EXPECT_FALSE(optimize_partition(cost.view(), 1, opt).feasible);
}

TEST(Dp, ReconfiguredSolverMatchesOneShotSolves) {
  // One PrefixDpSolver reconfigured across assorted shapes, objectives
  // and bounds — its cached layers left over from the previous shape —
  // must match the one-shot optimize_partition bit for bit.
  Rng rng(17);
  PrefixDpSolver solver;
  DpResult reused;
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t p = 1 + rng.below(4);
    std::size_t cap = 4 + rng.below(12);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpOptions opt;
    opt.objective =
        trial % 2 == 0 ? DpObjective::kSumCost : DpObjective::kMaxCost;
    if (trial % 3 == 0)
      for (std::size_t i = 0; i < p; ++i) opt.min_alloc.push_back(rng.below(3));
    DpResult fresh = optimize_partition(cost.view(), cap, opt);

    std::vector<std::uint32_t> members(p);
    for (std::size_t i = 0; i < p; ++i)
      members[i] = static_cast<std::uint32_t>(i);
    solver.configure(cost.view(), cap, opt.objective);
    solver.solve(members.data(), p,
                 opt.min_alloc.empty() ? nullptr : opt.min_alloc.data(),
                 reused);
    ASSERT_EQ(fresh.feasible, reused.feasible) << "trial " << trial;
    EXPECT_EQ(fresh.alloc, reused.alloc) << "trial " << trial;
    EXPECT_EQ(std::memcmp(&fresh.objective_value, &reused.objective_value,
                          sizeof(double)),
              0)
        << "trial " << trial;
  }
}

TEST(Dp, MaxObjectiveBalancesWorstCase) {
  // Sum objective starves program 0 (its curve is flat); max objective
  // must not.
  CostMatrix cost = make_cost({
      {0.5, 0.45, 0.4, 0.35, 0.3},
      {1.0, 0.1, 0.05, 0.01, 0.0},
  });
  DpOptions max_opt;
  max_opt.objective = DpObjective::kMaxCost;
  DpResult r = optimize_partition(cost.view(), 4, max_opt);
  ASSERT_TRUE(r.feasible);
  // Giving everything to program 1 leaves max = 0.5; optimum gives program
  // 0 most units: alloc {3,1} -> max(0.35, 0.1) = 0.35.
  EXPECT_NEAR(r.objective_value, 0.35, 1e-12);
}

TEST(Dp, WeightedCostMatrix) {
  MissRatioCurve a({1.0, 0.5, 0.25}, 100);
  MissRatioCurve b({1.0, 0.8, 0.6}, 100);
  CostMatrix cost = weighted_cost_matrix({&a, &b}, {2.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(cost(1, 2), 0.6);
  EXPECT_THROW(weighted_cost_matrix({&a}, {1.0, 2.0}, 2), CheckError);
}

TEST(Dp, RejectsShortCostCurves) {
  CostMatrix cost = make_cost({{1.0, 0.5}});
  EXPECT_THROW(optimize_partition(cost.view(), 5), CheckError);
}

TEST(Dp, GatheredViewMatchesContiguous) {
  // A gathered view over out-of-order rows of a bigger table must solve
  // exactly like a contiguous copy of those rows.
  Rng rng(71);
  CostMatrix table = random_cost_matrix(rng, 6, 10, true);
  std::vector<std::uint32_t> members = {4, 1, 5};
  std::vector<const double*> ptrs;
  CostMatrixView gathered = table.gather(members.data(), members.size(), ptrs);
  CostMatrix copied(members.size(), 10);
  for (std::size_t i = 0; i < members.size(); ++i)
    std::copy(table.row(members[i]), table.row(members[i]) + 11,
              copied.row(i));
  DpResult a = optimize_partition(gathered, 10);
  DpResult b = optimize_partition(copied.view(), 10);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.alloc, b.alloc);
  EXPECT_EQ(a.objective_value, b.objective_value);
}

// CostMatrix::from_rows is the migration path for nested-vector callers
// (the deprecated shims were removed as announced); pin its semantics.
TEST(Dp, FromRowsMatchesWeightedCostMatrix) {
  MissRatioCurve a({1.0, 0.5, 0.25}, 100);
  MissRatioCurve b({1.0, 0.8, 0.6}, 100);
  CostMatrix matrix = weighted_cost_matrix({&a, &b}, {2.0, 1.0}, 2);
  std::vector<std::vector<double>> nested(2);
  for (std::size_t i = 0; i < 2; ++i) {
    const MissRatioCurve& mrc = i == 0 ? a : b;
    double w = i == 0 ? 2.0 : 1.0;
    for (std::size_t c = 0; c <= 2; ++c)
      nested[i].push_back(w * mrc.ratio(c));
  }
  CostMatrix from_rows = CostMatrix::from_rows(nested, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t c = 0; c <= 2; ++c)
      EXPECT_EQ(from_rows(i, c), matrix(i, c));

  // Rows longer than capacity+1 are truncated, shorter ones rejected.
  EXPECT_NO_THROW(CostMatrix::from_rows({{1.0, 0.5, 0.2, 0.1}}, 2));
  EXPECT_THROW(CostMatrix::from_rows({{1.0, 0.5}}, 2), CheckError);
}

TEST(Sttw, EqualsDpOnConvexCurves) {
  // Strictly convex curves: the greedy is provably optimal — in both
  // variants (the hull of a convex curve is itself).
  auto convex = [](double scale, std::size_t cap) {
    std::vector<double> cost(cap + 1);
    for (std::size_t c = 0; c <= cap; ++c)
      cost[c] = scale / (1.0 + static_cast<double>(c));
    return cost;
  };
  for (std::size_t cap : {5u, 10u, 20u}) {
    CostMatrix cost = make_cost(
        {convex(1.0, cap), convex(2.0, cap), convex(0.5, cap)});
    DpResult dp = optimize_partition(cost.view(), cap);
    for (SttwVariant v :
         {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
      SttwResult sttw = sttw_partition(cost.view(), cap, v);
      EXPECT_NEAR(sttw.objective_value, dp.objective_value, 1e-9)
          << "cap=" << cap;
    }
  }
}

TEST(Sttw, NeverBeatsDp) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t p = 2 + rng.below(3);
    std::size_t cap = 4 + rng.below(12);
    CostMatrix cost = random_cost_matrix(rng, p, cap, true);
    DpResult dp = optimize_partition(cost.view(), cap);
    for (SttwVariant v :
         {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
      SttwResult sttw = sttw_partition(cost.view(), cap, v);
      EXPECT_GE(sttw.objective_value + 1e-12, dp.objective_value);
    }
  }
}

TEST(Sttw, LocalDerivativeIsBlindToCliffsBehindPlateaus) {
  // The faithful Stone et al. rule: program 1's plateau shows zero local
  // marginal, so the greedy starves it even though the cliff at 4 is the
  // single best investment. The hull variant sees the chord and fills it.
  CostMatrix cost = make_cost({
      {1.0, 0.95, 0.91, 0.88, 0.86},
      {1.0, 1.0, 1.0, 1.0, 0.0},
  });
  SttwResult classic =
      sttw_partition(cost.view(), 4, SttwVariant::kLocalDerivative);
  EXPECT_EQ(classic.alloc[1], 0u);  // cliff never discovered
  SttwResult hull = sttw_partition(cost.view(), 4, SttwVariant::kConvexHull);
  EXPECT_EQ(hull.alloc[1], 4u);  // hull chord slope 0.25 beats 0.05
  DpResult dp = optimize_partition(cost.view(), 4);
  EXPECT_NEAR(hull.objective_value, dp.objective_value, 1e-12);
  EXPECT_GT(classic.objective_value, dp.objective_value + 0.5);
}

TEST(Sttw, LosesOnCliffCurves) {
  // The paper's headline failure: a cliff the hull smooths away. Program 1
  // has a cliff at 4; program 0 has a gentle convex slope that the greedy
  // (looking at hulls) over-feeds.
  CostMatrix cost = make_cost({
      {1.0, 0.70, 0.45, 0.25, 0.10},
      {1.0, 1.0, 1.0, 1.0, 0.0},
  });
  DpResult dp = optimize_partition(cost.view(), 4);
  // DP grabs the cliff: alloc {0,4}, objective 1.0.
  EXPECT_NEAR(dp.objective_value, 1.0, 1e-12);
  // Both variants miss it here: the classic rule sees a zero marginal on
  // the plateau; the hull variant's chord (0.25/unit) ties program 0's
  // early marginals and the budget runs out mid-chord.
  for (SttwVariant v :
       {SttwVariant::kLocalDerivative, SttwVariant::kConvexHull}) {
    SttwResult sttw = sttw_partition(cost.view(), 4, v);
    EXPECT_GT(sttw.objective_value, dp.objective_value + 0.05);
  }
}

TEST(Sttw, AllocSumsToCapacity) {
  Rng rng(99);
  CostMatrix cost = random_cost_matrix(rng, 4, 16, true);
  SttwResult r = sttw_partition(cost.view(), 16);
  std::size_t total = 0;
  for (auto c : r.alloc) total += c;
  EXPECT_EQ(total, 16u);
}

TEST(Sttw, BelievedObjectiveLowerBoundsTrueObjective) {
  Rng rng(123);
  CostMatrix cost = random_cost_matrix(rng, 3, 10, true);
  SttwResult hull = sttw_partition(cost.view(), 10, SttwVariant::kConvexHull);
  EXPECT_LE(hull.believed_objective_value, hull.objective_value + 1e-12);
  // The classic rule believes the raw curve, so belief == truth.
  SttwResult classic =
      sttw_partition(cost.view(), 10, SttwVariant::kLocalDerivative);
  EXPECT_NEAR(classic.believed_objective_value, classic.objective_value,
              1e-12);
}

}  // namespace
}  // namespace ocps
