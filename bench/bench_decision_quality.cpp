// Decision-quality bench: predicted-vs-realized miss-ratio accounting
// under a mid-run workload shift.
//
// Two programs swap roles at the midpoint of the run (a tight scan
// becomes a large cyclic walk and vice versa). Every epoch-k partition
// decision is made from epoch-k-1 behavior, so the first post-swap
// epochs mispredict badly: the audit trail's signed errors spike, the
// |error| EWMA breaches the configured threshold, and the drift
// detector logs an edge-triggered alert naming the offending decision
// and its worst tenant. The flagged decision is then explained the way
// `ocps why` would: allocation diff vs the previous decision plus the
// per-tenant prediction errors.
//
// Sanity anchors, checked at exit (non-zero exit on violation):
//  * the post-swap error p99 is visibly worse than the pre-swap p99;
//  * exactly one edge-triggered drift alert fires, after the swap.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/obs.hpp"
#include "runtime/controller.hpp"
#include "trace/generators.hpp"
#include "trace/interleave.hpp"
#include "util/table.hpp"

using namespace ocps;
using namespace ocps::bench;

namespace {

InterleavedTrace make_shifting_workload(std::size_t n_half) {
  Trace a = make_cyclic(n_half, 150);
  a.append(make_sawtooth(n_half, 20));
  Trace b = make_sawtooth(n_half, 20);
  b.append(make_cyclic(n_half, 150).relabeled(1000));
  return interleave_proportional({a, b}, {1.0, 1.0}, 4 * n_half);
}

ControllerConfig make_config() {
  ControllerConfig config;
  config.capacity = 200;
  config.epoch_length = 10000;
  config.sampling_rate = 0.5;
  config.drift_threshold = 0.10;
  return config;
}

/// Finite |error| samples of every reconciled decision in [lo, hi].
std::vector<double> abs_errors(const std::vector<obs::DecisionRecord>& trail,
                               std::uint64_t lo, std::uint64_t hi) {
  std::vector<double> out;
  for (const obs::DecisionRecord& rec : trail) {
    if (rec.id < lo || rec.id > hi) continue;
    for (double e : rec.error)
      if (std::isfinite(e)) out.push_back(std::fabs(e));
  }
  return out;
}

double p99(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(0.99 * (v.size() - 1))];
}

std::string join_alloc(const std::vector<std::size_t>& alloc) {
  std::string out;
  for (std::size_t a : alloc) out += (out.empty() ? "" : "/") + std::to_string(a);
  return out;
}

}  // namespace

int main() {
  const std::size_t n_half = 100000;
  InterleavedTrace mix = make_shifting_workload(n_half);
  ControllerConfig config = make_config();

  std::cout << "=== Decision quality: audit trail and drift detection "
               "under a mid-run role swap ===\n"
               "(C=" << config.capacity << ", 2 programs, " << mix.length()
            << " accesses, swap at the midpoint, |error| EWMA threshold "
            << config.drift_threshold << ")\n\n";

  ControllerResult r = run_online_controller(mix, 2, config);

  // Oldest-first audit trail (recent() walks newest-first).
  std::vector<obs::DecisionRecord> trail =
      r.decisions->recent(r.decisions->capacity());
  std::reverse(trail.begin(), trail.end());

  TextTable t({"decision", "epoch", "trigger", "alloc", "p0 error",
               "p1 error", "alert"});
  for (const obs::DecisionRecord& rec : trail) {
    std::string alert;
    for (const obs::DriftAlert& a : r.drift_alerts)
      if (a.decision_id == rec.id)
        alert = "DRIFT (" + a.tenant + ", EWMA " +
                TextTable::num(a.ewma_abs, 3) + ")";
    auto err = [&](std::size_t i) {
      return i < rec.error.size() && std::isfinite(rec.error[i])
                 ? TextTable::num(rec.error[i], 4)
                 : std::string("-");
    };
    t.add_row({std::to_string(rec.id), std::to_string(rec.epoch),
               obs::decision_trigger_name(rec.trigger), join_alloc(rec.alloc), err(0),
               err(1), alert});
  }
  emit_table(t, "decision_quality");

  // The swap lands at decision floor(trail/2): decisions are epochs
  // shifted by the startup record, so split the trail at the midpoint.
  const std::uint64_t mid = trail[trail.size() / 2].id;
  const double pre = p99(abs_errors(trail, 1, mid - 1));
  const double post = p99(abs_errors(trail, mid, mid + 3));
  const obs::DecisionAccuracy acc = r.decisions->accuracy();
  std::cout << "\naccuracy: " << acc.decisions_total << " decisions, "
            << acc.reconciled_total << " reconciled, mean |error| "
            << TextTable::num(acc.mean_abs_error, 4) << ", bias "
            << TextTable::num(acc.mean_signed_error, 4) << "\n"
            << "prediction |error| p99: pre-swap "
            << TextTable::num(pre, 4) << " -> first post-swap epochs "
            << TextTable::num(post, 4) << "\n";

  bool ok = true;
  if (!(post > 2.0 * pre && post > config.drift_threshold)) {
    std::cout << "FAIL: the swap did not visibly degrade the error p99\n";
    ok = false;
  }
  if (r.drift_alerts.size() != 1) {
    std::cout << "FAIL: expected exactly one edge-triggered alert, got "
              << r.drift_alerts.size() << "\n";
    ok = false;
  }

  if (!r.drift_alerts.empty()) {
    // The `ocps why` view of the flagged decision: what changed vs the
    // previous allocation, and which tenants' errors drove the alert.
    const obs::DriftAlert& alert = r.drift_alerts.front();
    obs::DecisionRecord rec, prev;
    if (alert.decision_id < mid) {
      std::cout << "FAIL: drift alert fired before the swap (decision "
                << alert.decision_id << ")\n";
      ok = false;
    }
    if (r.decisions->find(alert.decision_id, &rec) &&
        r.decisions->find(alert.decision_id - 1, &prev)) {
      std::cout << "\nwhy decision #" << rec.id << " — trigger "
                << obs::decision_trigger_name(rec.trigger) << " — epoch " << rec.epoch
                << "\n";
      TextTable why({"tenant", "prev", "blocks", "predicted", "realized",
                     "error"});
      for (std::size_t i = 0; i < rec.tenants.size(); ++i)
        why.add_row({rec.tenants[i], std::to_string(prev.alloc[i]),
                     std::to_string(rec.alloc[i]),
                     TextTable::num(rec.predicted_mr[i], 4),
                     TextTable::num(rec.realized_mr[i], 4),
                     TextTable::num(rec.error[i], 4)});
      why.print(std::cout);
    } else {
      std::cout << "FAIL: alerted decision fell off the audit ring\n";
      ok = false;
    }
  }

  std::cout << "\nExpected: pre-swap errors settle near zero as the model "
               "learns; the first post-swap epochs mispredict (the model "
               "still describes the old roles), the |error| EWMA breaches "
               "once, and the alert names the post-swap decision whose "
               "tenants mispredicted worst.\n";
  return ok ? 0 : 1;
}
