// Ablation (§VIII "Fully Associative LRU Cache"): how far do realistic
// caches drift from the fully-associative LRU the theory models? For each
// suite program we compare, at several cache sizes: the HOTL model, exact
// FA-LRU (stack distances), set-associative LRU (8- and 16-way), CLOCK,
// FIFO and Random replacement. Small drift justifies optimizing against
// the FA-LRU model (the paper's position, citing Smith and Sen & Wood).
#include <iostream>

#include "cachesim/belady.hpp"
#include "cachesim/policies.hpp"
#include "cachesim/set_assoc.hpp"
#include "common.hpp"
#include "locality/reuse_distance.hpp"
#include "util/stats.hpp"

using namespace ocps;
using namespace ocps::bench;

int main() {
  Suite suite = load_suite();
  const std::size_t capacity = suite.options.capacity;
  const std::size_t sizes[] = {capacity / 4, capacity / 2, capacity};

  std::cout << "=== Ablation: FA-LRU model vs realistic caches ===\n\n";
  TextTable t({"program", "C", "HOTL model", "FA-LRU exact", "8-way LRU",
               "16-way LRU", "CLOCK", "FIFO", "Random", "OPT (Belady)"});

  std::vector<double> err_hotl, err_assoc8, err_assoc16, err_clock,
      err_fifo, err_random, opt_headroom;

  for (std::size_t p = 0; p < suite.models.size(); ++p) {
    const ProgramModel& model = suite.models[p];
    Trace trace = suite_trace(suite, p);
    StackDistanceHistogram sd = stack_distances(trace);
    for (std::size_t c : sizes) {
      double exact = static_cast<double>(sd.misses_at(c)) /
                     static_cast<double>(trace.length());
      double hotl = model.mrc.ratio(c);

      // Round sets to a power of two for indexing; total capacity is the
      // largest power-of-two multiple of `ways` not exceeding c.
      auto pow2_sets = [&](std::size_t ways) {
        std::size_t sets = 1;
        while (sets * 2 * ways <= c) sets *= 2;
        return sets;
      };
      SetAssociativeCache sa8(pow2_sets(8), 8);
      SetAssociativeCache sa16(pow2_sets(16), 16);
      for (Block b : trace.accesses) {
        sa8.access(b);
        sa16.access(b);
      }
      sa8.publish_tallies();
      sa16.publish_tallies();
      double clock = policy_miss_ratio(Policy::kClock, trace, c);
      double fifo = policy_miss_ratio(Policy::kFifo, trace, c);
      double random = policy_miss_ratio(Policy::kRandom, trace, c, 7);
      double opt = simulate_belady(trace, c).miss_ratio();

      err_hotl.push_back(std::abs(hotl - exact));
      err_assoc8.push_back(std::abs(sa8.miss_ratio() - exact));
      err_assoc16.push_back(std::abs(sa16.miss_ratio() - exact));
      err_clock.push_back(std::abs(clock - exact));
      err_fifo.push_back(std::abs(fifo - exact));
      err_random.push_back(std::abs(random - exact));
      opt_headroom.push_back(exact - opt);

      if (c == capacity / 4) {
        t.add_row({model.name, std::to_string(c), TextTable::num(hotl, 4),
                   TextTable::num(exact, 4),
                   TextTable::num(sa8.miss_ratio(), 4),
                   TextTable::num(sa16.miss_ratio(), 4),
                   TextTable::num(clock, 4), TextTable::num(fifo, 4),
                   TextTable::num(random, 4), TextTable::num(opt, 4)});
      }
    }
  }
  emit_table(t, "ablation_assumptions");

  std::cout << "\nMean |miss ratio - FA-LRU exact| across programs and "
               "sizes:\n";
  TextTable s({"model/cache", "mean abs deviation", "max abs deviation"});
  auto row = [&](const char* name, const std::vector<double>& e) {
    Summary sm = summarize(e);
    s.add_row({name, TextTable::num(sm.mean, 5), TextTable::num(sm.max, 5)});
  };
  row("HOTL model", err_hotl);
  row("8-way set-assoc LRU", err_assoc8);
  row("16-way set-assoc LRU", err_assoc16);
  row("CLOCK", err_clock);
  row("FIFO", err_fifo);
  row("Random", err_random);
  s.print(std::cout);

  Summary head = summarize(opt_headroom);
  std::cout << "\nLRU-to-OPT headroom (what any replacement policy could "
               "still recover): mean " << TextTable::num(head.mean, 5)
            << ", max " << TextTable::num(head.max, 5) << "\n";

  std::cout << "\nExpected (§VIII): associativity >= 8 ways and CLOCK stay "
               "close to FA-LRU on most programs; FIFO/Random diverge on "
               "scan-heavy ones (they break the LRU cliff both ways). The "
               "optimizer's FA-LRU model is a faithful proxy for "
               "set-associative hardware.\n";
  return 0;
}
