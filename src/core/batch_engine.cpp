#include "core/batch_engine.hpp"

#include <cstring>
#include <limits>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ocps {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Word-wise FNV-1a 64 over the raw bits of a cost row: a bit-identity
// check, not a numeric one — any representational change (including
// -0.0 vs 0.0) counts as a profile change. Each step (xor a word, then
// multiply by an odd prime) is a bijection of the running hash, so a
// change to any single word always changes the result. Deterministic
// across builds, O(C) per row vs the O(C²) layer rebuild it saves.
std::uint64_t row_fingerprint(const double* row, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &row[i], sizeof(bits));
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

// Throwing form of validate_cost_table for configure/resolve_incremental.
void check_cost_table(CostMatrixView costs, std::size_t capacity) {
  Result<CostMatrixView> valid = validate_cost_table(costs, capacity);
  OCPS_CHECK(valid.ok(), "" << valid.error().message);
}

// Emits the solve's span and metrics on every exit path: solve latency
// histogram, cell-evaluation and solve counters, and the table size the
// solve uses. Cells are read off the solver's running counter at exit.
class DpObsRecorder {
 public:
  DpObsRecorder(const std::uint64_t& cells, std::uint64_t table_bytes)
      : cells_(cells), cells_before_(cells), table_bytes_(table_bytes) {}

  ~DpObsRecorder() {
    const std::uint64_t cells = cells_ - cells_before_;
    span_.set_arg("cells", cells);
    OCPS_OBS_COUNT("dp.solves", 1);
    OCPS_OBS_COUNT("dp.cells", cells);
    OCPS_OBS_HIST("dp.solve_ns", span_.elapsed_ns());
    OCPS_OBS_GAUGE("dp.table_bytes", table_bytes_);
  }

 private:
  obs::ScopedSpan span_{"dp.optimize", "core"};
  const std::uint64_t& cells_;
  const std::uint64_t cells_before_;
  const std::uint64_t table_bytes_;
};

}  // namespace

void PrefixDpSolver::configure(CostMatrixView all_costs, std::size_t capacity,
                               DpObjective objective) {
  check_cost_table(all_costs, capacity);
  costs_ = all_costs;
  capacity_ = capacity;
  objective_ = objective;
  valid_layers_ = 0;
  final_best_.resize(capacity + 1);
  final_choice_.resize(capacity + 1);
}

void PrefixDpSolver::solve(const std::uint32_t* members, std::size_t count,
                           const std::size_t* lo, DpResult& out) {
  OCPS_CHECK(count >= 1, "need at least one program");
  DpObsRecorder obs_rec(stats_.cells,
                        count * (capacity_ + 1) *
                            (sizeof(double) + sizeof(std::uint32_t)));
  ++stats_.solves;
  if (dp_detail::active_kernel() == dp_detail::KernelKind::kAvx2)
    OCPS_OBS_COUNT("dp.kernel.avx2", 1);
  else
    OCPS_OBS_COUNT("dp.kernel.scalar", 1);
  out.feasible = false;
  out.objective_value = 0.0;
  out.alloc.clear();  // keeps capacity; refilled on success

  if (layers_.size() < count) layers_.resize(count);

  // Longest cached prefix whose (member, lo) pairs match this group. Only
  // non-final layers (positions 0..count-2) are ever cached.
  std::size_t reuse = 0;
  while (reuse < valid_layers_ && reuse + 1 < count &&
         layers_[reuse].member == members[reuse] &&
         layers_[reuse].lo == (lo ? lo[reuse] : 0)) {
    ++reuse;
  }
  valid_layers_ = reuse;
  stats_.layers_reused += reuse;

  // Build the missing non-final layers.
  for (std::size_t j = reuse; j + 1 < count; ++j) {
    const std::size_t lo_j = lo ? lo[j] : 0;
    OCPS_CHECK(members[j] < costs_.rows(),
               "program index out of range: " << members[j]);
    if (lo_j > capacity_) return;  // infeasible bounds
    Layer& layer = layers_[j];
    layer.member = members[j];
    layer.lo = lo_j;
    layer.fingerprint =
        row_fingerprint(costs_.row(members[j]), capacity_ + 1);
    layer.best.assign(capacity_ + 1, kInf);
    layer.choice.resize(capacity_ + 1);
    const double* prev = j == 0 ? nullptr : layers_[j - 1].best.data();
    stats_.cells += dp_detail::forward_layer(
        objective_, costs_.row(members[j]), lo_j, capacity_,
        /*k_begin=*/lo_j, /*k_end=*/capacity_, /*prev_is_base=*/j == 0,
        prev, layer.best.data(), layer.choice.data());
    ++stats_.layers_computed;
    valid_layers_ = j + 1;
  }

  // Final layer: the backtrack only reads its capacity column, so compute
  // that single state (never cached — the next group almost certainly ends
  // differently).
  const std::size_t last = count - 1;
  const std::size_t lo_last = lo ? lo[last] : 0;
  OCPS_CHECK(members[last] < costs_.rows(),
             "program index out of range: " << members[last]);
  if (lo_last > capacity_) return;  // infeasible bounds
  final_best_[capacity_] = kInf;
  stats_.cells += dp_detail::forward_layer(
      objective_, costs_.row(members[last]), lo_last, capacity_,
      /*k_begin=*/capacity_, /*k_end=*/capacity_,
      /*prev_is_base=*/count == 1,
      count == 1 ? nullptr : layers_[count - 2].best.data(),
      final_best_.data(), final_choice_.data());
  ++stats_.layers_computed;

  if (final_best_[capacity_] == kInf) return;  // infeasible

  out.feasible = true;
  out.objective_value = final_best_[capacity_];
  out.alloc.assign(count, 0);
  std::size_t k = capacity_;
  {
    std::size_t c = final_choice_[capacity_];
    out.alloc[last] = c;
    OCPS_CHECK(c <= k, "backtrack inconsistency");
    k -= c;
  }
  for (std::size_t j = last; j-- > 0;) {
    std::size_t c = layers_[j].choice[k];
    out.alloc[j] = c;
    OCPS_CHECK(c <= k, "backtrack inconsistency");
    k -= c;
  }
  OCPS_CHECK(k == 0, "allocation does not sum to capacity");
}

std::size_t PrefixDpSolver::truncate_layers(std::size_t keep) {
  const std::size_t invalidated = valid_layers_ - keep;
  valid_layers_ = keep;
  stats_.layers_invalidated += invalidated;
  ++stats_.incremental_refreshes;
  if (invalidated > 0) OCPS_OBS_COUNT("dp.layers_invalidated", invalidated);
  return invalidated;
}

std::size_t PrefixDpSolver::resolve_incremental(
    std::uint32_t changed_program) {
  std::size_t keep = 0;
  while (keep < valid_layers_ && layers_[keep].member != changed_program)
    ++keep;
  return truncate_layers(keep);
}

std::size_t PrefixDpSolver::resolve_incremental(CostMatrixView new_costs) {
  OCPS_CHECK(new_costs.rows() == costs_.rows() &&
                 new_costs.cols() == costs_.cols(),
             "resolve_incremental: table shape changed ("
                 << new_costs.rows() << "x" << new_costs.cols() << " vs "
                 << costs_.rows() << "x" << costs_.cols()
                 << "); use configure()");
  // Same validation configure() performs: a non-finite entry must fail
  // loudly here, never corrupt a min-reduction later.
  check_cost_table(new_costs, capacity_);
  costs_ = new_costs;
  std::size_t keep = 0;
  while (keep < valid_layers_ &&
         layers_[keep].fingerprint ==
             row_fingerprint(new_costs.row(layers_[keep].member),
                             capacity_ + 1))
    ++keep;
  return truncate_layers(keep);
}

}  // namespace ocps
