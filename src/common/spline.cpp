#include "common/spline.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace swraman {

void solve_tridiagonal(std::vector<double>& a, std::vector<double>& b,
                       std::vector<double>& c, std::vector<double>& d) {
  const std::size_t n = d.size();
  SWRAMAN_REQUIRE(a.size() == n && b.size() == n && c.size() == n,
                  "tridiagonal bands must have equal length");
  for (std::size_t i = 1; i < n; ++i) {
    const double m = a[i] / b[i - 1];
    b[i] -= m * c[i - 1];
    d[i] -= m * d[i - 1];
  }
  d[n - 1] /= b[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    d[i] = (d[i] - c[i] * d[i + 1]) / b[i];
  }
}

std::vector<double> natural_second_derivatives(const std::vector<double>& x,
                                               const std::vector<double>& y) {
  const std::size_t n = x.size();
  std::vector<double> y2(n, 0.0);
  if (n < 3) return y2;

  std::vector<double> a(n - 2), b(n - 2), c(n - 2), d(n - 2);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    const double h0 = x[i] - x[i - 1];
    const double h1 = x[i + 1] - x[i];
    a[i - 1] = h0 / 6.0;
    b[i - 1] = (h0 + h1) / 3.0;
    c[i - 1] = h1 / 6.0;
    d[i - 1] = (y[i + 1] - y[i]) / h1 - (y[i] - y[i - 1]) / h0;
  }
  // Natural BC: y2[0] = y2[n-1] = 0, drop couplings to the boundary.
  a[0] = 0.0;
  c[n - 3] = 0.0;
  solve_tridiagonal(a, b, c, d);
  for (std::size_t i = 1; i + 1 < n; ++i) y2[i] = d[i - 1];
  return y2;
}

namespace {

// Interval index containing x_eval in the ascending knots x, clamped to
// [0, n-2].
std::size_t spline_interval(const std::vector<double>& x, double x_eval) {
  if (x_eval <= x.front()) return 0;
  if (x_eval >= x.back()) return x.size() - 2;
  const auto it = std::upper_bound(x.begin(), x.end(), x_eval);
  return static_cast<std::size_t>(it - x.begin()) - 1;
}

}  // namespace

SplineWeights::SplineWeights(const std::vector<double>& x, double x_eval)
    : i(spline_interval(x, x_eval)) {
  const double h = x[i + 1] - x[i];
  a = (x[i + 1] - x_eval) / h;
  b = (x_eval - x[i]) / h;
  ca = a * a * a - a;
  cb = b * b * b - b;
  hh = h * h;
}

CubicSpline::CubicSpline(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  SWRAMAN_REQUIRE(x_.size() == y_.size(), "spline: x/y size mismatch");
  SWRAMAN_REQUIRE(x_.size() >= 2, "spline: need at least 2 knots");
  for (std::size_t i = 1; i < x_.size(); ++i) {
    SWRAMAN_REQUIRE(x_[i] > x_[i - 1], "spline: knots must increase");
  }
  y2_ = natural_second_derivatives(x_, y_);
}

double CubicSpline::value(double x) const {
  const SplineWeights w(x_, x);
  return w.value(y_[w.i], y_[w.i + 1], y2_[w.i], y2_[w.i + 1]);
}

double CubicSpline::derivative(double x) const {
  const std::size_t i = spline_interval(x_, x);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - x) / h;
  const double b = (x - x_[i]) / h;
  return (y_[i + 1] - y_[i]) / h -
         (3.0 * a * a - 1.0) / 6.0 * h * y2_[i] +
         (3.0 * b * b - 1.0) / 6.0 * h * y2_[i + 1];
}

double CubicSpline::second_derivative(double x) const {
  const std::size_t i = spline_interval(x_, x);
  const double h = x_[i + 1] - x_[i];
  const double a = (x_[i + 1] - x) / h;
  const double b = (x - x_[i]) / h;
  return a * y2_[i] + b * y2_[i + 1];
}

std::vector<double> CubicSpline::cumulative_at_knots() const {
  std::vector<double> cum(x_.size(), 0.0);
  for (std::size_t i = 0; i + 1 < x_.size(); ++i) {
    const double h = x_[i + 1] - x_[i];
    // integral over [x_i, x_{i+1}] of the cubic piece:
    //   h (y_i + y_{i+1})/2 - h^3 (y2_i + y2_{i+1})/24.
    cum[i + 1] = cum[i] + h * (y_[i] + y_[i + 1]) / 2.0 -
                 h * h * h * (y2_[i] + y2_[i + 1]) / 24.0;
  }
  return cum;
}

IndexSpline::IndexSpline(const std::vector<double>& y) : n_(y.size()) {
  SWRAMAN_REQUIRE(n_ >= 2, "IndexSpline: need at least 2 knots");
  std::vector<double> x(n_);
  for (std::size_t i = 0; i < n_; ++i) x[i] = static_cast<double>(i);
  const std::vector<double> y2 = natural_second_derivatives(x, y);

  // Convert the Hermite-like representation into per-interval monomial
  // coefficients in u = t - i:
  //   y(u) = y_i + u*(dy - h/6*(2*y2_i + y2_{i+1}))
  //        + u^2 * y2_i/2 + u^3 * (y2_{i+1} - y2_i)/6,   with h = 1.
  coeff_.resize(4 * (n_ - 1));
  for (std::size_t i = 0; i + 1 < n_; ++i) {
    const double dy = y[i + 1] - y[i];
    coeff_[4 * i + 0] = y[i];
    coeff_[4 * i + 1] = dy - (2.0 * y2[i] + y2[i + 1]) / 6.0;
    coeff_[4 * i + 2] = y2[i] / 2.0;
    coeff_[4 * i + 3] = (y2[i + 1] - y2[i]) / 6.0;
  }
}

double IndexSpline::value(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return c[0] + u * (c[1] + u * (c[2] + u * c[3]));
}

double IndexSpline::derivative(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return c[1] + u * (2.0 * c[2] + 3.0 * u * c[3]);
}

double IndexSpline::second_derivative(double t) const {
  const double tmax = static_cast<double>(n_ - 1);
  t = std::clamp(t, 0.0, tmax);
  std::size_t i = static_cast<std::size_t>(t);
  if (i >= n_ - 1) i = n_ - 2;
  const double u = t - static_cast<double>(i);
  const double* c = &coeff_[4 * i];
  return 2.0 * c[2] + 6.0 * u * c[3];
}

}  // namespace swraman
