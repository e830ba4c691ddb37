// Tests for the SPEC-like workload suite and suite profiling.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "locality/footprint_io.hpp"
#include "locality/hotl.hpp"
#include "trace/generators.hpp"
#include "workloads/spec_like.hpp"
#include "workloads/suite.hpp"
#include "util/check.hpp"

namespace ocps {
namespace {

SuiteOptions small_options() {
  SuiteOptions opt;
  opt.trace_length = 30000;
  opt.capacity = 256;
  return opt;
}

TEST(SpecLike, SixteenProgramsWithUniqueNames) {
  const auto& suite = spec2006_suite();
  EXPECT_EQ(suite.size(), 16u);
  std::set<std::string> names;
  for (const auto& s : suite) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_GT(s.access_rate, 0.0);
  }
  // The paper's §VII-A listing.
  for (const char* name :
       {"perlbench", "bzip2", "mcf", "zeusmp", "namd", "dealII", "soplex",
        "povray", "hmmer", "sjeng", "h264ref", "tonto", "lbm", "omnetpp",
        "wrf", "sphinx3"})
    EXPECT_EQ(names.count(name), 1u) << name;
}

TEST(SpecLike, FindWorkloadByName) {
  EXPECT_EQ(find_workload("mcf").name, "mcf");
  EXPECT_THROW(find_workload("nonexistent"), CheckError);
}

TEST(SpecLike, GeneratorsAreDeterministic) {
  for (const auto& spec : spec2006_suite()) {
    Trace a = spec.generate(5000);
    Trace b = spec.generate(5000);
    EXPECT_EQ(a.accesses, b.accesses) << spec.name;
    EXPECT_GT(a.length(), 0u) << spec.name;
  }
}

TEST(Suite, BuildsModelsForAllPrograms) {
  Suite suite = build_spec2006_suite(small_options());
  ASSERT_EQ(suite.models.size(), 16u);
  for (const auto& m : suite.models) {
    EXPECT_GT(m.trace_length, 0u) << m.name;
    EXPECT_GT(m.distinct, 0u) << m.name;
    EXPECT_TRUE(m.mrc.is_non_increasing(1e-9)) << m.name;
    EXPECT_DOUBLE_EQ(m.mrc.ratio(0), 1.0) << m.name;
    EXPECT_EQ(m.mrc.capacity(), small_options().capacity) << m.name;
  }
}

TEST(Suite, LookupByName) {
  Suite suite = build_spec2006_suite(small_options());
  EXPECT_EQ(suite.by_name("lbm").name, "lbm");
  EXPECT_EQ(suite.index_of("perlbench"), 0u);
  EXPECT_THROW(suite.index_of("missing"), CheckError);
}

TEST(Suite, LocalityClassesComeOutAsDesigned) {
  SuiteOptions opt;
  opt.trace_length = 60000;
  opt.capacity = 1024;
  Suite suite = build_spec2006_suite(opt);

  // mcf is a hot set plus a long background scan: a miss-ratio plateau
  // with a hard non-convex drop near 920 units (the STTW breaker).
  const auto& mcf = suite.by_name("mcf").mrc;
  EXPECT_FALSE(mcf.is_convex(1e-6));
  EXPECT_GT(mcf.ratio(300), 0.07);               // on the plateau
  EXPECT_LT(mcf.ratio(1000), mcf.ratio(300) / 2);  // past the cliff

  // povray's tiny working set is near-zero miss ratio at modest sizes.
  EXPECT_LT(suite.by_name("povray").mrc.ratio(128), 0.01);

  // lbm keeps missing even with a large share (big data, long tail) and
  // its MRC keeps decreasing — the classic sharing gainer.
  const auto& lbm = suite.by_name("lbm").mrc;
  EXPECT_GT(lbm.ratio(256), 0.04);
  EXPECT_GT(lbm.ratio(256), lbm.ratio(1024) + 0.01);

  // soplex has two scans: two distinct plateau drops (multi-cliff). The
  // first scan's stack distance includes the other components it
  // interleaves with (240 own + 90 hot + ~240 of the second scan), so the
  // cliffs land near 570 and 950 units.
  const auto& soplex = suite.by_name("soplex").mrc;
  EXPECT_GT(soplex.ratio(500), soplex.ratio(640) + 0.03);
  EXPECT_GT(soplex.ratio(640), soplex.ratio(1010) + 0.03);
}

TEST(Suite, TraceRegenerationMatchesModels) {
  SuiteOptions opt = small_options();
  Suite suite = build_spec2006_suite(opt);
  Trace t = suite_trace(suite, suite.index_of("mcf"));
  EXPECT_EQ(t.length() > 0, true);
  // Regenerated trace has the same distinct count the model recorded.
  EXPECT_EQ(t.distinct_blocks(), suite.by_name("mcf").distinct);
}

TEST(Suite, DiskCacheRoundTrips) {
  SuiteOptions opt = small_options();
  opt.cache_dir =
      (std::filesystem::temp_directory_path() / "ocps_suite_cache").string();
  std::filesystem::remove_all(opt.cache_dir);

  Suite first = build_spec2006_suite(opt);   // writes cache
  Suite second = build_spec2006_suite(opt);  // reads cache
  ASSERT_EQ(first.models.size(), second.models.size());
  for (std::size_t i = 0; i < first.models.size(); ++i) {
    const auto& a = first.models[i];
    const auto& b = second.models[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.distinct, b.distinct);
    EXPECT_EQ(a.trace_length, b.trace_length);
    EXPECT_EQ(a.footprint.xs(), b.footprint.xs()) << a.name;
    EXPECT_EQ(a.footprint.ys(), b.footprint.ys()) << a.name;
    EXPECT_EQ(a.mrc.ratios(), b.mrc.ratios()) << a.name;
  }
  std::filesystem::remove_all(opt.cache_dir);
}

// profile -> model must equal profile -> file -> save -> load -> model,
// bit for bit, at a capacity below and above m: then the committed
// footprint cache, the serve daemon and a cold run build one model. Both
// must also equal the HOTL curve of the dense footprint.
void expect_file_round_trip_exact(const std::string& name, double rate,
                                  const FootprintCurve& fp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("ocps_rt_" + name + ".fp"))
          .string();
  save_footprint_file(make_footprint_file(name, rate, fp), path);
  const FootprintFile loaded = load_footprint_file(path);
  std::remove(path.c_str());
  ASSERT_GT(fp.distinct, 2u) << name;
  for (std::size_t capacity : {fp.distinct / 2, fp.distinct * 2}) {
    const ProgramModel direct = make_program_model(name, rate, fp, capacity);
    const ProgramModel via_file = model_from_footprint_file(loaded, capacity);
    EXPECT_EQ(via_file.name, direct.name);
    EXPECT_EQ(via_file.trace_length, direct.trace_length) << name;
    EXPECT_EQ(via_file.distinct, direct.distinct) << name;
    EXPECT_EQ(std::memcmp(&via_file.access_rate, &direct.access_rate,
                          sizeof(double)),
              0)
        << name;
    EXPECT_EQ(via_file.footprint.xs(), direct.footprint.xs()) << name;
    EXPECT_EQ(via_file.footprint.ys(), direct.footprint.ys()) << name;
    const std::vector<double> hotl = hotl_mrc(fp, capacity).ratios();
    for (const std::vector<double>* r :
         {&direct.mrc.ratios(), &via_file.mrc.ratios()}) {
      ASSERT_EQ(r->size(), capacity + 1) << name;
      EXPECT_EQ(std::memcmp(r->data(), hotl.data(),
                            hotl.size() * sizeof(double)),
                0)
          << name << " C=" << capacity;
    }
  }
}

TEST(ModelRoundTrip, SuiteProgramsThroughFileAreBitIdentical) {
  for (const WorkloadSpec& spec : spec2006_suite())
    expect_file_round_trip_exact(
        spec.name, spec.access_rate,
        compute_footprint(spec.generate(small_options().trace_length)));
}

TEST(ModelRoundTrip, CliffyTraceThroughFileIsBitIdentical) {
  // A hot set plus a long scan: the MRC drops off a cliff at the scan's
  // size, the shape an MRC re-derived from simplified knots smooths away.
  Trace t = make_scan_mix(60000, 40, 0.7, {{600, 0.3}}, 11);
  FootprintCurve fp = compute_footprint(t);
  ASSERT_FALSE(hotl_mrc(fp, fp.distinct).is_convex(1e-6));
  expect_file_round_trip_exact("cliffy", 0.75, fp);
}

TEST(Suite, EnvOptionsParsed) {
  setenv("OCPS_TRACE_LENGTH", "12345", 1);
  setenv("OCPS_CAPACITY", "77", 1);
  SuiteOptions opt = suite_options_from_env();
  EXPECT_EQ(opt.trace_length, 12345u);
  EXPECT_EQ(opt.capacity, 77u);
  unsetenv("OCPS_TRACE_LENGTH");
  unsetenv("OCPS_CAPACITY");
}

}  // namespace
}  // namespace ocps
