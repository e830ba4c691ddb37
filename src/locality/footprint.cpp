#include "locality/footprint.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/check.hpp"

namespace ocps {

double FootprintCurve::operator()(double w) const {
  OCPS_CHECK(!fp.empty(), "empty footprint");
  if (w <= 0.0) return 0.0;
  double n = static_cast<double>(fp.size() - 1);
  if (w >= n) return fp.back();
  std::size_t lo = static_cast<std::size_t>(w);
  double t = w - static_cast<double>(lo);
  return fp[lo] + t * (fp[lo + 1] - fp[lo]);
}

double FootprintCurve::inverse(double target) const {
  OCPS_CHECK(!fp.empty(), "empty footprint");
  if (target <= fp.front()) return 0.0;
  if (target >= fp.back()) return static_cast<double>(fp.size() - 1);
  // fp is non-decreasing; binary search for the first index with
  // fp[i] >= target, then interpolate inside the preceding segment.
  auto it = std::lower_bound(fp.begin(), fp.end(), target);
  std::size_t hi = static_cast<std::size_t>(it - fp.begin());
  OCPS_CHECK(hi > 0, "inverse landed at origin unexpectedly");
  std::size_t lo = hi - 1;
  double dy = fp[hi] - fp[lo];
  if (dy <= 0.0) return static_cast<double>(hi);
  double t = (target - fp[lo]) / dy;
  return static_cast<double>(lo) + t;
}

PiecewiseLinear FootprintCurve::to_curve(std::size_t max_knots) const {
  PiecewiseLinear dense = PiecewiseLinear::from_dense(fp);
  if (max_knots == 0 || dense.size() <= max_knots) return dense;
  // Error-bounded simplification keeps footprint cliffs (phase boundaries)
  // that uniform decimation would smear into the wrong MRC.
  return dense.simplify_to(kFootprintTolerance, max_knots);
}

FootprintCurve footprint_from_profile(const ReuseProfile& p) {
  FootprintCurve out;
  out.trace_length = p.trace_length;
  out.distinct = p.distinct;
  const std::uint64_t n = p.trace_length;
  out.fp.assign(n + 1, 0.0);
  if (n == 0) return out;

  const double m = static_cast<double>(p.distinct);

  // Suffix sums over rt of freq and rt*freq, so that
  //   A(w) = Σ_{rt >= w+2} (rt - 1 - w) freq(rt)
  //        = U(w+2) - (w + 1) * T(w+2)
  // with T(x) = Σ_{rt >= x} freq, U(x) = Σ_{rt >= x} rt * freq.
  // first/last boundary terms use the same trick over f_k and n - l_k + 1.
  const std::size_t lim = static_cast<std::size_t>(n) + 2;
  std::vector<double> T(lim + 1, 0.0), U(lim + 1, 0.0);
  std::vector<double> F(lim + 1, 0.0), FX(lim + 1, 0.0);
  std::vector<double> L(lim + 1, 0.0), LX(lim + 1, 0.0);

  // Histogram of h_k = n - l_k + 1 (trailing boundary contribution).
  std::vector<std::uint64_t> trail(lim + 1, 0);
  for (std::uint64_t pos = 1; pos <= n; ++pos) {
    std::uint64_t cnt = p.last_count[pos];
    if (cnt) trail[n - pos + 1] += cnt;
  }

  for (std::size_t x = lim - 1; x + 1 >= 1; --x) {
    double f = (x < p.freq.size()) ? static_cast<double>(p.freq[x]) : 0.0;
    T[x] = T[x + 1] + f;
    U[x] = U[x + 1] + f * static_cast<double>(x);
    double fc =
        (x < p.first_count.size()) ? static_cast<double>(p.first_count[x]) : 0.0;
    F[x] = F[x + 1] + fc;
    FX[x] = FX[x + 1] + fc * static_cast<double>(x);
    double lc = (x <= lim) ? static_cast<double>(trail[x]) : 0.0;
    L[x] = L[x + 1] + lc;
    LX[x] = LX[x + 1] + lc * static_cast<double>(x);
    if (x == 0) break;
  }

  out.fp[0] = 0.0;
  for (std::uint64_t w = 1; w <= n; ++w) {
    double A = U[w + 2] - static_cast<double>(w + 1) * T[w + 2];
    // Σ_k max(0, f_k - w) = FX(w+1) - w * F(w+1); same for trailing.
    double B = FX[w + 1] - static_cast<double>(w) * F[w + 1];
    double Cc = LX[w + 1] - static_cast<double>(w) * L[w + 1];
    double denom = static_cast<double>(n - w + 1);
    double val = m - (A + B + Cc) / denom;
    // Numerical safety: fp must stay within [0, m] and non-decreasing.
    val = std::clamp(val, 0.0, m);
    out.fp[w] = std::max(val, out.fp[w - 1]);
  }
  return out;
}

FootprintCurve compute_footprint(const Trace& trace) {
  return footprint_from_profile(profile_reuse(trace));
}

std::vector<double> footprint_brute_force(const Trace& trace,
                                          std::size_t w_max) {
  const std::size_t n = trace.length();
  OCPS_CHECK(w_max <= n, "window longer than trace");
  std::vector<double> fp(w_max + 1, 0.0);
  for (std::size_t w = 1; w <= w_max; ++w) {
    // Sliding window with occurrence counts: O(n) per window length.
    std::unordered_map<Block, std::size_t> count;
    std::size_t distinct = 0;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (count[trace.accesses[i]]++ == 0) ++distinct;
      if (i + 1 >= w) {
        sum += static_cast<double>(distinct);
        Block out_block = trace.accesses[i + 1 - w];
        if (--count[out_block] == 0) {
          --distinct;
          count.erase(out_block);
        }
      }
    }
    fp[w] = sum / static_cast<double>(n - w + 1);
  }
  return fp;
}

}  // namespace ocps
