// ocpsbench: runs one benchmark workload against the ocps library and
// prints one JSON result line on stdout (human-readable lines go to
// stderr). ocpsbench/run.py builds this binary and wraps it into the
// benchmark command; see ocpsbench/README.md.
//
//   ocpsbench --workload table1_cold|serve_batched|fleet_churn
//             [--seed N] [--seconds S] [--traced 0|1] [--out-dir DIR]
//             [--fault alloc|optimal]
//
// Each workload's fixed parameters (rates, latency limits, set-up
// repeats) are constants in its own source file.
//
// Exit status: 0 when every output check passed, 1 when one failed,
// 2 on a usage or set-up error.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using ocps::json::Value;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ocpsbench: " << why << "\n";
  std::exit(2);
}

ocpsbench::Options parse(int argc, char** argv) {
  ocpsbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string v = argv[++i];
    try {
      if (flag == "--workload") opt.workload = v;
      else if (flag == "--seed") opt.seed = std::stoull(v);
      else if (flag == "--seconds") opt.seconds = std::stod(v);
      else if (flag == "--traced") opt.traced = v == "1";
      else if (flag == "--out-dir") opt.out_dir = v;
      else if (flag == "--fault") opt.fault = v;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

Value host_info() {
  const ocps::obs::BuildInfo build = ocps::obs::build_info();
  Value host(ocps::json::Object{});
  host.set("nproc", Value(static_cast<std::size_t>(
                        std::thread::hardware_concurrency())));
  host.set("pool_threads", Value(ocps::parallel_thread_count()));
  host.set("compiler", Value(build.compiler));
  host.set("simd_kernel", Value(build.simd_kernel));
  return host;
}

}  // namespace

int main(int argc, char** argv) {
  ocpsbench::Options opt = parse(argc, argv);
  std::filesystem::create_directories(opt.out_dir);
  ocpsbench::Report report;
  try {
    if (opt.workload == "table1_cold")
      report = ocpsbench::run_table1_cold(opt);
    else if (opt.workload == "serve_batched")
      report = ocpsbench::run_serve_batched(opt);
    else if (opt.workload == "fleet_churn")
      report = ocpsbench::run_fleet_churn(opt);
    else
      usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "ocpsbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 2;
  }

  report.add("fail_ratio",
             report.attempted == 0
                 ? 0.0
                 : static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
             "fraction");
  Value metrics(ocps::json::Object{});
  for (const ocpsbench::Metric& m : report.metrics) {
    Value entry(ocps::json::Object{});
    entry.set("value", Value(m.value));
    entry.set("unit", Value(m.unit));
    metrics.set(m.name, std::move(entry));
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  ocps::json::Array violations;
  for (const std::string& v : report.violations) {
    std::cerr << "CHECK FAILED: " << v << "\n";
    violations.emplace_back(v);
  }
  report.info.set("host", host_info());

  Value out(ocps::json::Object{});
  out.set("workload", Value(opt.workload));
  out.set("traced", Value(opt.traced));
  out.set("correct", Value(report.correct));
  out.set("attempted", Value(static_cast<double>(report.attempted)));
  out.set("failed", Value(static_cast<double>(report.failed)));
  out.set("metrics", std::move(metrics));
  out.set("violations", Value(std::move(violations)));
  out.set("info", std::move(report.info));
  std::cout << out.dump() << std::endl;
  return report.correct ? 0 : 1;
}
