// Profiling-cost microbenchmarks: full-trace reuse-time + footprint
// analysis (the paper cites ~23x slowdown for full-trace footprint
// profiling and uses it for reproducibility), the exact stack-distance
// pass, and the shared-cache simulator — the costs that motivate doing
// optimization on composable per-program models instead of simulating
// every co-run.
#include <benchmark/benchmark.h>

#include "common.hpp"

#include "cachesim/corun.hpp"
#include "locality/footprint.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/reuse_time.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"

namespace {

using namespace ocps;

Trace bench_trace(std::size_t n) { return make_zipf(n, 2000, 0.9, 7); }

void BM_ReuseProfile(benchmark::State& state) {
  Trace t = bench_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ReuseProfile p = profile_reuse(t);
    benchmark::DoNotOptimize(p.distinct);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FootprintFromProfile(benchmark::State& state) {
  Trace t = bench_trace(static_cast<std::size_t>(state.range(0)));
  ReuseProfile p = profile_reuse(t);
  for (auto _ : state) {
    FootprintCurve fp = footprint_from_profile(p);
    benchmark::DoNotOptimize(fp.fp.back());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_StackDistances(benchmark::State& state) {
  Trace t = bench_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    StackDistanceHistogram h = stack_distances(t);
    benchmark::DoNotOptimize(h.cold_misses);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SharedCacheSim(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Trace a = make_zipf(n / 2, 1500, 0.9, 8);
  Trace b = make_cyclic(n / 2, 900);
  InterleavedTrace mix = interleave_proportional({a, b}, {1.0, 1.0}, n);
  for (auto _ : state) {
    CoRunResult r = simulate_shared(mix, 1024);
    benchmark::DoNotOptimize(r.total_misses());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_LruSimSingleSize(benchmark::State& state) {
  Trace t = bench_trace(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    LruCache cache(1024);
    for (Block b : t.accesses) cache.access(b);
    benchmark::DoNotOptimize(cache.misses());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

BENCHMARK(BM_ReuseProfile)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FootprintFromProfile)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StackDistances)->Arg(100000)->Arg(400000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SharedCacheSim)->Arg(200000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LruSimSingleSize)->Arg(200000)->Unit(benchmark::kMillisecond);

// Custom main (instead of BENCHMARK_MAIN) so the observability snapshot
// is emitted like every other bench binary.
int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ocps::bench::emit_metrics_snapshot();
  return 0;
}
