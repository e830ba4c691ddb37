// Cross-module property and failure-injection tests: invariants the
// theory guarantees and robustness of the IO/optimizer layers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "cachesim/belady.hpp"
#include "cachesim/lru.hpp"
#include "cachesim/policies.hpp"
#include "core/dp_partition.hpp"
#include "core/partition_sharing.hpp"
#include "core/program_model.hpp"
#include "locality/footprint.hpp"
#include "locality/footprint_io.hpp"
#include "locality/hotl.hpp"
#include "sched/symbiosis.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ocps {
namespace {

// ---- Footprint concavity -------------------------------------------------
// Xiang et al. show the average footprint is concave in the window
// length; concavity is what makes the derived miss ratio non-increasing
// and the fill time well-defined. For finite traces the window-boundary
// terms perturb this by O(m/n) dust, so the property is asserted within a
// small absolute tolerance rather than exactly.
class FootprintConcavity : public ::testing::TestWithParam<int> {};

TEST_P(FootprintConcavity, SecondDifferencesNonPositive) {
  Trace t;
  switch (GetParam()) {
    case 0: t = make_zipf(20000, 200, 1.0, 301); break;
    case 1: t = make_uniform(20000, 150, 302); break;
    case 2: t = make_cyclic(20000, 120); break;
    case 3: t = make_sawtooth(20000, 90); break;
    case 4: t = make_hot_cold(20000, 15, 200, 0.7, 303); break;
    case 5: t = make_scan_mix(20000, 40, 0.8, {{100, 0.1}}, 304); break;
    default: FAIL();
  }
  FootprintCurve fp = compute_footprint(t);
  const double tolerance =
      1e-3 * static_cast<double>(fp.distinct) /
          static_cast<double>(std::max<std::uint64_t>(fp.trace_length, 1)) +
      1e-6;
  for (std::size_t w = 2; w < fp.fp.size(); ++w) {
    double second = fp.fp[w] - 2.0 * fp.fp[w - 1] + fp.fp[w - 2];
    ASSERT_LE(second, std::max(tolerance, 5e-5)) << "w=" << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FootprintConcavity, ::testing::Range(0, 6));

// ---- OPT lower-bounds every policy ---------------------------------------
class OptIsLowerBound : public ::testing::TestWithParam<int> {};

TEST_P(OptIsLowerBound, BeladyNeverWorseThanAnyPolicy) {
  Rng rng(400 + static_cast<std::uint64_t>(GetParam()));
  Trace t;
  switch (GetParam() % 3) {
    case 0: t = make_zipf(20000, 250, 0.9, rng.next()); break;
    case 1: t = make_hot_cold(20000, 20, 250, 0.75, rng.next()); break;
    default: t = make_uniform(20000, 220, rng.next()); break;
  }
  std::size_t c = 32 + rng.below(150);
  double opt = simulate_belady(t, c).miss_ratio();
  LruCache lru(c);
  for (Block b : t.accesses) lru.access(b);
  EXPECT_LE(opt, lru.miss_ratio() + 1e-12);
  for (Policy p : {Policy::kFifo, Policy::kRandom, Policy::kClock})
    EXPECT_LE(opt, policy_miss_ratio(p, t, c) + 1e-12) << policy_name(p);
}

INSTANTIATE_TEST_SUITE_P(Sweep, OptIsLowerBound, ::testing::Range(0, 6));

// ---- Scheduling dominance -------------------------------------------------
TEST(SchedulingDominance, PartitionedCachesNeverLoseToSharedCaches) {
  // The reduction theorem, machine-wide: optimally partitioning each
  // cache upper-bounds free-for-all sharing of each cache, for every
  // grouping — so the partitioned schedule optimum dominates the shared
  // schedule optimum.
  std::vector<ProgramModel> models;
  models.push_back(make_program_model(
      "a", 1.0, compute_footprint(make_zipf(20000, 120, 1.0, 311)), 80));
  models.push_back(make_program_model(
      "b", 1.5, compute_footprint(make_cyclic(20000, 60)), 80));
  models.push_back(make_program_model(
      "c", 0.8, compute_footprint(make_sawtooth(20000, 25)), 80));
  models.push_back(make_program_model(
      "d", 1.2, compute_footprint(make_hot_cold(20000, 10, 90, 0.7, 312)),
      80));
  std::vector<const ProgramModel*> ptrs;
  for (const auto& m : models) ptrs.push_back(&m);

  for (std::size_t caches : {1u, 2u}) {
    Schedule shared = best_schedule_exhaustive(ptrs, caches, 80);
    Schedule part = best_schedule_partitioned(ptrs, caches, 80);
    EXPECT_LE(part.overall_mr, shared.overall_mr + 1e-9)
        << caches << " caches";
  }
}

TEST(SchedulingDominance, MoreCachesNeverHurtPartitioned) {
  std::vector<ProgramModel> models;
  models.push_back(make_program_model(
      "a", 1.0, compute_footprint(make_cyclic(15000, 70)), 80));
  models.push_back(make_program_model(
      "b", 1.0, compute_footprint(make_cyclic(15000, 70)), 80));
  models.push_back(make_program_model(
      "c", 1.0, compute_footprint(make_sawtooth(15000, 12)), 80));
  std::vector<const ProgramModel*> ptrs;
  for (const auto& m : models) ptrs.push_back(&m);
  Schedule one = best_schedule_partitioned(ptrs, 1, 80);
  Schedule two = best_schedule_partitioned(ptrs, 2, 80);
  EXPECT_LE(two.overall_mr, one.overall_mr + 1e-9);
}

// ---- Optimizer hardening ---------------------------------------------------
TEST(Hardening, DpRejectsNonFiniteCosts) {
  std::vector<std::vector<double>> cost = {{1.0, 0.5, 0.2}};
  cost[0][1] = std::nan("");
  EXPECT_THROW(optimize_partition(CostMatrix::from_rows(cost, 2).view(), 2),
               CheckError);
  cost[0][1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(optimize_partition(CostMatrix::from_rows(cost, 2).view(), 2),
               CheckError);
}

// The loader fuzz contract: an input either throws a clean CheckError or
// loads into a file whose model is a sound miss-ratio curve over sizes
// 0..m. Returns whether it loaded.
bool loads_soundly_or_throws(const std::string& path) {
  FootprintFile f;
  try {
    f = load_footprint_file(path);
  } catch (const CheckError&) {
    return false;
  }
  EXPECT_GE(f.footprint.size(), 1u);
  EXPECT_EQ(f.mrc.size(), f.distinct + 1);
  ProgramModel model = model_from_footprint_file(f, f.distinct);
  const std::vector<double>& r = model.mrc.ratios();
  EXPECT_EQ(r.size(), f.distinct + 1);
  for (std::size_t c = 0; c < r.size(); ++c) {
    EXPECT_TRUE(r[c] >= 0.0 && r[c] <= 1.0) << "c=" << c;
    if (c > 0) {
      EXPECT_LE(r[c], r[c - 1]) << "c=" << c;
    }
  }
  return true;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

// Flips 1-4 random bits of `s` in place.
void flip_bits(std::string& s, Rng& rng) {
  for (std::uint64_t k = 1 + rng.below(4); k > 0 && !s.empty(); --k)
    s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
}

TEST(Hardening, FootprintLoaderSurvivesFuzz) {
  // Random garbage must throw CheckError (or parse), never crash or
  // silently return a bogus curve with NaNs.
  std::string dir = std::filesystem::temp_directory_path().string();
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    std::string path = dir + "/ocps_fuzz_" + std::to_string(trial) + ".fp";
    {
      std::ofstream os(path);
      if (rng.chance(0.5)) os << "ocps-footprint 2\n";
      std::size_t len = rng.below(200);
      for (std::size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(32 + rng.below(95));
        os << (rng.chance(0.2) ? '\n' : c);
      }
    }
    loads_soundly_or_throws(path);
    std::remove(path.c_str());
  }

  // Seeded mutations of a valid file: byte flips, truncation, a
  // duplicated line, a huge section count, and bad miss ratios.
  const std::string path = dir + "/ocps_fuzz_mutant.fp";
  save_footprint_file(make_footprint_file("fz", 1.5,
                                          compute_footprint(make_zipf(
                                              8000, 120, 0.9, 31))),
                      path);
  ASSERT_TRUE(loads_soundly_or_throws(path));
  std::vector<std::string> lines;
  std::size_t mrc_line = 0;
  {
    std::ifstream is(path);
    for (std::string line; std::getline(is, line);) {
      if (line.rfind("mrc ", 0) == 0) mrc_line = lines.size();
      lines.push_back(line);
    }
  }
  ASSERT_GT(mrc_line, 0u);
  const std::string valid = join_lines(lines);
  const char* bad_ratios[] = {"nan", "inf", "1.5", "-0.25", "0.9999", "1e400"};
  std::size_t rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string text = valid;
    switch (rng.below(5)) {
      case 0:
        flip_bits(text, rng);
        break;
      case 1:
        text.resize(rng.below(text.size()));
        break;
      case 2: {
        std::vector<std::string> copy = lines;
        std::size_t i = rng.below(copy.size());
        copy.insert(copy.begin() + static_cast<long>(i), copy[i]);
        text = join_lines(copy);
        break;
      }
      case 3: {
        const std::string key = rng.chance(0.5) ? "\nknots " : "\nmrc ";
        std::size_t at = text.find(key) + key.size();
        std::string count = rng.chance(0.5)
                                ? "18446744073709551615"
                                : std::to_string(rng.next() >> rng.below(64));
        text.replace(at, text.find('\n', at) - at, count);
        break;
      }
      default: {
        std::vector<std::string> copy = lines;
        copy[mrc_line + 1 + rng.below(copy.size() - mrc_line - 1)] =
            bad_ratios[rng.below(std::size(bad_ratios))];
        text = join_lines(copy);
        break;
      }
    }
    {
      std::ofstream os(path, std::ios::trunc | std::ios::binary);
      os << text;
    }
    if (!loads_soundly_or_throws(path)) ++rejected;
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);
}

TEST(Hardening, TraceLoadersSurviveFuzz) {
  // Seeded mutations of a valid binary trace: byte flips, truncation, a
  // huge header count, and random bytes. Each must load to a Trace no
  // longer than its payload or throw CheckError — never crash.
  const std::string path =
      std::filesystem::temp_directory_path().string() + "/ocps_fuzz.trace";
  save_trace_binary(make_zipf(500, 60, 0.9, 41), path);
  std::string valid;
  {
    std::ifstream is(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(valid.size(), 16u + 500u * sizeof(Block));
  Rng rng(778);
  std::size_t rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string data = valid;
    switch (rng.below(4)) {
      case 0:
        flip_bits(data, rng);
        break;
      case 1:
        data.resize(rng.below(data.size()));
        break;
      case 2: {
        const std::uint64_t n = rng.chance(0.5)
                                    ? ~std::uint64_t{0}
                                    : rng.next() >> rng.below(64);
        std::memcpy(&data[8], &n, sizeof(n));
        break;
      }
      default:
        data.resize(rng.below(256));
        for (char& c : data) c = static_cast<char>(rng.below(256));
        if (rng.chance(0.5) && data.size() >= 8) data.replace(0, 8, "OCPSTRC1");
        break;
    }
    {
      std::ofstream os(path, std::ios::trunc | std::ios::binary);
      os << data;
    }
    try {
      Trace t = load_trace_binary(path);
      EXPECT_LE(16 + t.length() * sizeof(Block), data.size());
    } catch (const CheckError&) {
      ++rejected;
    }
  }
  std::remove(path.c_str());
  EXPECT_GT(rejected, 0u);

  // The text parsers: mutated valid address text and random printable
  // bytes. The address parser parses or throws CheckError; the token
  // parser accepts any text, one access per token.
  const std::string text =
      "R 0x40\nW 128\n# comment\n0x1000 # tail\ni 0X7f\n\n64\nw 0x40\n";
  ASSERT_EQ(parse_address_trace(text, 64).length(), 6u);
  const char kAlphabet[] = "0123456789abcdefxXrRwWiI# \t\n-+.";
  for (int trial = 0; trial < 400; ++trial) {
    std::string data = text;
    switch (rng.below(3)) {
      case 0:
        flip_bits(data, rng);
        break;
      case 1:
        data.resize(rng.below(data.size()));
        break;
      default:
        data.resize(rng.below(200));
        for (char& c : data)
          c = rng.chance(0.1) ? static_cast<char>(rng.below(256))
                              : kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        break;
    }
    try {
      Trace t = parse_address_trace(data, 1 + rng.below(128));
      EXPECT_LE(t.length(), data.size());
    } catch (const CheckError&) {
    }
    EXPECT_LE(parse_token_trace(data).length(), data.size());
  }
}

TEST(Hardening, SchemeEvaluationRejectsOversizedIndices) {
  ProgramModel m = make_program_model(
      "m", 1.0, compute_footprint(make_cyclic(5000, 20)), 40);
  CoRunGroup g({&m});
  SharingScheme s;
  s.groups = {{5}};  // index out of range
  s.group_sizes = {40};
  EXPECT_THROW(evaluate_scheme(g, s), CheckError);
}

// ---- HOTL chain consistency -------------------------------------------------
TEST(HotlChain, MissRatioIntegratesBackToFillTime) {
  // im(c) = ft(c+1) - ft(c) and mr = 1/im: summing inter-miss times over
  // c = m0..m1 must reproduce the fill-time difference.
  FootprintCurve fp = compute_footprint(make_zipf(40000, 300, 0.9, 321));
  double acc = 0.0;
  for (std::size_t c = 50; c < 250; ++c) acc += inter_miss_time(fp, c);
  EXPECT_NEAR(acc, fill_time(fp, 250.0) - fill_time(fp, 50.0), 1e-6);
}

TEST(HotlChain, MissRatioIsReciprocalInterMissTime) {
  FootprintCurve fp = compute_footprint(make_uniform(40000, 200, 322));
  for (double c : {50.0, 100.0, 150.0}) {
    double im = inter_miss_time(fp, c);
    ASSERT_GT(im, 0.0);
    double mr_from_im = 1.0 / im;
    double mr_direct = hotl_miss_ratio(fp, c);
    // Eq. 8 vs Eq. 10: equal up to discretization of the window step.
    EXPECT_NEAR(mr_from_im, mr_direct, 0.02) << "c=" << c;
  }
}

}  // namespace
}  // namespace ocps
