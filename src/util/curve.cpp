#include "util/curve.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace ocps {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  OCPS_CHECK(xs_.size() == ys_.size(), "knot vectors must be parallel");
  OCPS_CHECK(!xs_.empty(), "curve needs at least one knot");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    OCPS_CHECK(xs_[i] > xs_[i - 1],
               "knot x must be strictly increasing at index " << i);
  }
}

PiecewiseLinear PiecewiseLinear::from_dense(std::vector<double> ys) {
  std::vector<double> xs(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

double PiecewiseLinear::operator()(double x) const {
  OCPS_CHECK(!xs_.empty(), "evaluating an empty curve");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // First knot strictly greater than x.
  auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  std::size_t hi = static_cast<std::size_t>(it - xs_.begin());
  std::size_t lo = hi - 1;
  double t = (x - xs_[lo]) / (xs_[hi] - xs_[lo]);
  return ys_[lo] + t * (ys_[hi] - ys_[lo]);
}

double PiecewiseLinear::inverse(double y) const {
  OCPS_CHECK(!xs_.empty(), "inverting an empty curve");
  if (y <= ys_.front()) return xs_.front();
  if (y >= ys_.back()) return xs_.back();
  // Binary search over knots for the first knot with ys_ >= y. The curve is
  // non-decreasing by contract so std::lower_bound on ys_ is valid.
  auto it = std::lower_bound(ys_.begin(), ys_.end(), y);
  std::size_t hi = static_cast<std::size_t>(it - ys_.begin());
  OCPS_CHECK(hi > 0 && hi < ys_.size(), "inverse: search out of range");
  std::size_t lo = hi - 1;
  double dy = ys_[hi] - ys_[lo];
  if (dy <= 0) return xs_[hi];  // flat segment: smallest x attaining y
  double t = (y - ys_[lo]) / dy;
  return xs_[lo] + t * (xs_[hi] - xs_[lo]);
}

double PiecewiseLinear::x_min() const {
  OCPS_CHECK(!xs_.empty(), "empty curve");
  return xs_.front();
}

double PiecewiseLinear::x_max() const {
  OCPS_CHECK(!xs_.empty(), "empty curve");
  return xs_.back();
}

bool PiecewiseLinear::is_non_decreasing(double eps) const {
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    if (ys_[i] + eps < ys_[i - 1]) return false;
  }
  return true;
}

PiecewiseLinear PiecewiseLinear::simplify(double epsilon) const {
  OCPS_CHECK(epsilon >= 0.0, "negative simplify tolerance");
  const std::size_t n = xs_.size();
  if (n <= 2) return *this;
  std::vector<bool> keep(n, false);
  keep.front() = keep.back() = true;
  // Iterative Douglas-Peucker with vertical deviation (x is monotone, so
  // vertical distance to the chord is the interpolation error bound).
  std::vector<std::pair<std::size_t, std::size_t>> stack{{0, n - 1}};
  while (!stack.empty()) {
    auto [lo, hi] = stack.back();
    stack.pop_back();
    if (hi <= lo + 1) continue;
    double x0 = xs_[lo], y0 = ys_[lo];
    double slope = (ys_[hi] - y0) / (xs_[hi] - x0);
    double worst = epsilon;
    std::size_t worst_i = 0;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      double d = std::abs(ys_[i] - (y0 + slope * (xs_[i] - x0)));
      if (d > worst) {
        worst = d;
        worst_i = i;
      }
    }
    if (worst_i != 0) {
      keep[worst_i] = true;
      stack.push_back({lo, worst_i});
      stack.push_back({worst_i, hi});
    }
  }
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < n; ++i) {
    if (keep[i]) {
      xs.push_back(xs_[i]);
      ys.push_back(ys_[i]);
    }
  }
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

PiecewiseLinear PiecewiseLinear::simplify_to(double epsilon,
                                             std::size_t max_knots) const {
  OCPS_CHECK(max_knots >= 2, "need at least two knots");
  PiecewiseLinear out = simplify(epsilon);
  while (out.size() > max_knots) {
    epsilon = std::max(epsilon * 2.0, 1e-9);
    out = simplify(epsilon);
  }
  return out;
}

PiecewiseLinear PiecewiseLinear::downsample(std::size_t max_knots) const {
  OCPS_CHECK(max_knots >= 2, "downsample needs at least 2 knots");
  if (xs_.size() <= max_knots) return *this;
  std::vector<double> xs, ys;
  xs.reserve(max_knots);
  ys.reserve(max_knots);
  const std::size_t n = xs_.size();
  for (std::size_t k = 0; k < max_knots; ++k) {
    // Even index spacing; endpoints exact.
    std::size_t i = (k * (n - 1)) / (max_knots - 1);
    if (!xs.empty() && xs_[i] <= xs.back()) continue;
    xs.push_back(xs_[i]);
    ys.push_back(ys_[i]);
  }
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

}  // namespace ocps
