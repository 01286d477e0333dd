#include "common/spline.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace swraman {
namespace {

TEST(CubicSpline, ReproducesKnotValues) {
  std::vector<double> x{0.0, 0.5, 1.3, 2.0, 3.7};
  std::vector<double> y{1.0, -2.0, 0.5, 4.0, -1.0};
  CubicSpline s(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(s.value(x[i]), y[i], 1e-12);
  }
}

TEST(CubicSpline, InterpolatesSmoothFunctionAccurately) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 100; ++i) {
    const double xi = static_cast<double>(i) / 100.0 * kTwoPi;
    x.push_back(xi);
    y.push_back(std::sin(xi));
  }
  CubicSpline s(x, y);
  for (double t = 0.05; t < kTwoPi; t += 0.173) {
    EXPECT_NEAR(s.value(t), std::sin(t), 1e-6);
    EXPECT_NEAR(s.derivative(t), std::cos(t), 1e-4);
  }
}

TEST(CubicSpline, SecondDerivativeIsContinuousAtKnots) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y{0.0, 1.0, 0.0, -1.0, 0.0};
  CubicSpline s(x, y);
  for (double knot : {1.0, 2.0, 3.0}) {
    EXPECT_NEAR(s.second_derivative(knot - 1e-9),
                s.second_derivative(knot + 1e-9), 1e-6);
  }
}

TEST(CubicSpline, RejectsBadInput) {
  EXPECT_THROW(CubicSpline({1.0}, {1.0}), Error);
  EXPECT_THROW(CubicSpline({0.0, 0.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(CubicSpline({0.0, 1.0}, {1.0}), Error);
}

TEST(IndexSpline, MatchesCubicSplineOnIntegerKnots) {
  std::vector<double> y{2.0, -1.0, 0.5, 3.0, 1.0, -2.0};
  IndexSpline is(y);
  std::vector<double> x(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) x[i] = static_cast<double>(i);
  CubicSpline cs(x, y);
  for (double t = 0.0; t <= 5.0; t += 0.37) {
    EXPECT_NEAR(is.value(t), cs.value(t), 1e-12);
    EXPECT_NEAR(is.derivative(t), cs.derivative(t), 1e-10);
    EXPECT_NEAR(is.second_derivative(t), cs.second_derivative(t), 1e-10);
  }
}

TEST(IndexSpline, CoefficientLayoutMatchesEvaluation) {
  std::vector<double> y{1.0, 4.0, 2.0, 0.0, 5.0};
  IndexSpline is(y);
  const std::vector<double>& c = is.coefficients();
  ASSERT_EQ(c.size(), 4 * (y.size() - 1));
  const double t = 2.3;
  const std::size_t i = 2;
  const double u = t - static_cast<double>(i);
  const double manual =
      c[4 * i] + u * (c[4 * i + 1] + u * (c[4 * i + 2] + u * c[4 * i + 3]));
  EXPECT_NEAR(is.value(t), manual, 1e-14);
}

TEST(IndexSpline, ClampsOutOfRange) {
  std::vector<double> y{1.0, 2.0, 3.0};
  IndexSpline is(y);
  EXPECT_NEAR(is.value(-5.0), 1.0, 1e-12);
  EXPECT_NEAR(is.value(99.0), 3.0, 1e-12);
}

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3].
  std::vector<double> a{0.0, 1.0, 1.0};
  std::vector<double> b{2.0, 2.0, 2.0};
  std::vector<double> c{1.0, 1.0, 0.0};
  std::vector<double> d{4.0, 8.0, 8.0};
  solve_tridiagonal(a, b, c, d);
  EXPECT_NEAR(d[0], 1.0, 1e-12);
  EXPECT_NEAR(d[1], 2.0, 1e-12);
  EXPECT_NEAR(d[2], 3.0, 1e-12);
}

}  // namespace
}  // namespace swraman
// -- appended coverage for the spline extension used by the multipole
// solver (cumulative integration). Kept in the anonymous namespace of this
// TU via reopening.

namespace swraman {
namespace {

TEST(CubicSpline, CumulativeIntegralMatchesAnalytic) {
  // integral of sin on [0, pi]: cumulative = 1 - cos(x).
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 60; ++i) {
    const double xi = kPi * static_cast<double>(i) / 60.0;
    x.push_back(xi);
    y.push_back(std::sin(xi));
  }
  const CubicSpline s(x, y);
  const std::vector<double> cum = s.cumulative_at_knots();
  ASSERT_EQ(cum.size(), x.size());
  EXPECT_DOUBLE_EQ(cum[0], 0.0);
  for (std::size_t i = 0; i < x.size(); i += 7) {
    EXPECT_NEAR(cum[i], 1.0 - std::cos(x[i]), 1e-7) << "x=" << x[i];
  }
  EXPECT_NEAR(cum.back(), 2.0, 1e-7);
}

TEST(CubicSpline, CumulativeBeatsTrapezoidOnCoarseMesh) {
  // Nonuniform coarse mesh over a Gaussian: the spline integral must be
  // far closer to sqrt(pi)/2 than the trapezoid estimate.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i <= 14; ++i) {
    const double xi = 4.0 * std::pow(static_cast<double>(i) / 14.0, 1.5);
    x.push_back(xi);
    y.push_back(std::exp(-xi * xi));
  }
  const CubicSpline s(x, y);
  const double spline_val = s.cumulative_at_knots().back();
  double trap = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    trap += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  }
  const double exact = kSqrtPi / 2.0;
  EXPECT_LT(std::abs(spline_val - exact), 0.2 * std::abs(trap - exact));
  EXPECT_NEAR(spline_val, exact, 2e-4);
}

// SplineWeights is the lookup CubicSpline::value and the multipole channel
// rows share: its weights applied to the knot values and natural second
// derivatives must give CubicSpline::value bit for bit.
TEST(SplineWeights, ReproduceCubicSplineValuesBitwise) {
  const std::vector<double> x{0.0, 0.7, 1.1, 2.4, 3.0};
  const std::vector<double> y{1.0, -0.3, 0.9, 2.0, -1.0};
  const CubicSpline s(x, y);
  const std::vector<double> m = natural_second_derivatives(x, y);
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    for (double frac : {0.0, 0.31, 0.77}) {
      const double xx = x[i] + frac * (x[i + 1] - x[i]);
      const SplineWeights w(x, xx);
      EXPECT_EQ(w.i, i) << "x = " << xx;
      EXPECT_NEAR(w.a + w.b, 1.0, 1e-15);
      EXPECT_EQ(w.value(y[w.i], y[w.i + 1], m[w.i], m[w.i + 1]), s.value(xx))
          << "x = " << xx;
    }
  }
}

TEST(SplineWeights, ClampOutOfRangeToEndIntervals) {
  const std::vector<double> x{0.0, 0.7, 1.1, 2.4, 3.0};
  const std::vector<double> y{1.0, -0.3, 0.9, 2.0, -1.0};
  const CubicSpline s(x, y);
  const std::vector<double> m = natural_second_derivatives(x, y);
  EXPECT_EQ(SplineWeights(x, 0.8).i, 1u);
  EXPECT_EQ(SplineWeights(x, 3.0).i, x.size() - 2);
  EXPECT_EQ(SplineWeights(x, 99.0).i, x.size() - 2);
  // Below the first knot the first interval extrapolates (a > 1, b < 0),
  // still through the same value expression.
  const SplineWeights below(x, -0.5);
  EXPECT_EQ(below.i, 0u);
  EXPECT_GT(below.a, 1.0);
  EXPECT_LT(below.b, 0.0);
  EXPECT_EQ(below.value(y[0], y[1], m[0], m[1]), s.value(-0.5));
}

TEST(CubicSpline, NaturalSecondDerivativesVanishAtEnds) {
  const std::vector<double> x{0.0, 0.5, 1.3, 2.0, 3.7};
  const std::vector<double> y{0.2, 1.1, -0.4, 0.8, 0.0};
  const CubicSpline s(x, y);
  const std::vector<double> m = natural_second_derivatives(x, y);
  ASSERT_EQ(m.size(), x.size());
  EXPECT_EQ(m.front(), 0.0);
  EXPECT_EQ(m.back(), 0.0);
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_DOUBLE_EQ(m[k], s.second_derivative(x[k])) << "knot " << k;
  }
  // Straight-line data has no curvature anywhere; two knots have no
  // interior knots to solve for.
  std::vector<double> line(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) line[k] = 2.0 * x[k] + 1.0;
  for (double mk : natural_second_derivatives(x, line)) {
    EXPECT_NEAR(mk, 0.0, 1e-13);
  }
  EXPECT_EQ(natural_second_derivatives({0.0, 1.0}, {3.0, -2.0}),
            (std::vector<double>{0.0, 0.0}));
}

}  // namespace
}  // namespace swraman
