#pragma once

#include <cstddef>
#include <vector>

// Cubic-spline interpolation. Two flavours are provided:
//
//  * CubicSpline: general non-uniform knots, natural boundary conditions,
//    with value / first / second derivative evaluation. Its interval
//    lookup (SplineWeights) and value expression are public so that many
//    splines sharing one knot set — the structure-of-arrays channel rows
//    of hartree::MultipolePotential — evaluate with a single lookup and
//    the very same arithmetic.
//
//  * IndexSpline: knots at integer indices 0..n-1 (the FHI-aims convention
//    for functions tabulated on a logarithmic radial mesh: the spline runs
//    in index space and the mesh maps r -> fractional index). IndexSpline
//    stores per-interval polynomial coefficients (s0, s1, s2, s3) laid out
//    contiguously.

namespace swraman {

// Natural-spline second derivatives at the knots (zero at both ends).
[[nodiscard]] std::vector<double> natural_second_derivatives(
    const std::vector<double>& x, const std::vector<double>& y);

// The position-dependent part of a natural cubic spline at one point: its
// interval (clamped to the knot range, so the end intervals extrapolate)
// and the weights of the value expression
//   y(x) = a y_i + b y_{i+1} + ((a^3 - a) m_i + (b^3 - b) m_{i+1}) h^2 / 6
// (y knot values, m knot second derivatives). Every spline on the same
// knots reuses one SplineWeights.
struct SplineWeights {
  std::size_t i = 0;
  double a = 0.0;   // (x_{i+1} - x) / h
  double b = 0.0;   // (x - x_i) / h
  double ca = 0.0;  // a^3 - a
  double cb = 0.0;  // b^3 - b
  double hh = 0.0;  // h^2

  SplineWeights() = default;
  SplineWeights(const std::vector<double>& x, double x_eval);

  [[nodiscard]] double value(double y0, double y1, double m0,
                             double m1) const {
    return a * y0 + b * y1 + (ca * m0 + cb * m1) * hh / 6.0;
  }
};

class CubicSpline {
 public:
  CubicSpline() = default;

  // Builds a natural cubic spline through (x[i], y[i]). x must be strictly
  // increasing and contain at least 2 points.
  CubicSpline(std::vector<double> x, std::vector<double> y);

  [[nodiscard]] double value(double x) const;
  [[nodiscard]] double derivative(double x) const;
  [[nodiscard]] double second_derivative(double x) const;

  [[nodiscard]] std::size_t size() const { return x_.size(); }
  [[nodiscard]] const std::vector<double>& knots() const { return x_; }
  [[nodiscard]] const std::vector<double>& values() const { return y_; }

  // Exact integrals of the spline from the first knot to every knot
  // (piecewise-cubic antiderivative; O(h^4) accurate for smooth data, far
  // better than trapezoid on coarse nonuniform meshes).
  [[nodiscard]] std::vector<double> cumulative_at_knots() const;

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> y2_;  // second derivatives at knots
};

class IndexSpline {
 public:
  IndexSpline() = default;

  // Builds a natural cubic spline through (i, y[i]), i = 0..n-1.
  explicit IndexSpline(const std::vector<double>& y);

  // Evaluates at fractional index t in [0, n-1]. Out-of-range t is clamped.
  [[nodiscard]] double value(double t) const;
  // d/dt at fractional index t.
  [[nodiscard]] double derivative(double t) const;
  // d2/dt2 at fractional index t.
  [[nodiscard]] double second_derivative(double t) const;

  [[nodiscard]] std::size_t n_knots() const { return n_; }

  // Raw coefficient storage: for interval i (i = 0..n-2) the polynomial is
  //   y(t) = c[4i] + c[4i+1]*u + c[4i+2]*u^2 + c[4i+3]*u^3,  u = t - i.
  [[nodiscard]] const std::vector<double>& coefficients() const {
    return coeff_;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> coeff_;
};

// Solves a tridiagonal system in place: diag a (sub), b (main), c (super),
// rhs d; result returned in d. b is modified.
void solve_tridiagonal(std::vector<double>& a, std::vector<double>& b,
                       std::vector<double>& c, std::vector<double>& d);

}  // namespace swraman
