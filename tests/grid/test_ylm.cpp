#include "grid/ylm.hpp"

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "grid/angular.hpp"

namespace swraman::grid {
namespace {

TEST(Ylm, LowOrderClosedForms) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    Vec3 u{dist(rng), dist(rng), dist(rng)};
    if (u.norm() < 1e-3) continue;
    u = u / u.norm();
    const std::vector<double> y = real_ylm(u, 2);

    EXPECT_NEAR(y[lm_index(0, 0)], std::sqrt(1.0 / kFourPi), 1e-12);
    const double c1 = std::sqrt(3.0 / kFourPi);
    EXPECT_NEAR(y[lm_index(1, -1)], c1 * u.y, 1e-12);
    EXPECT_NEAR(y[lm_index(1, 0)], c1 * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(1, 1)], c1 * u.x, 1e-12);

    const double c2 = 0.5 * std::sqrt(15.0 / kPi);
    EXPECT_NEAR(y[lm_index(2, -2)], c2 * u.x * u.y, 1e-12);
    EXPECT_NEAR(y[lm_index(2, -1)], c2 * u.y * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(2, 1)], c2 * u.x * u.z, 1e-12);
    EXPECT_NEAR(y[lm_index(2, 0)],
                0.25 * std::sqrt(5.0 / kPi) * (3.0 * u.z * u.z - 1.0), 1e-12);
    EXPECT_NEAR(y[lm_index(2, 2)],
                0.25 * std::sqrt(15.0 / kPi) * (u.x * u.x - u.y * u.y), 1e-12);
  }
}

TEST(Ylm, NorthPoleIsFinite) {
  const std::vector<double> y = real_ylm({0.0, 0.0, 1.0}, 8);
  for (double v : y) EXPECT_TRUE(std::isfinite(v));
  // Only m = 0 components survive at the pole.
  for (int l = 1; l <= 8; ++l) {
    for (int m = -l; m <= l; ++m) {
      if (m != 0) EXPECT_NEAR(y[lm_index(l, m)], 0.0, 1e-12);
    }
  }
}

class YlmOrthonormality : public ::testing::TestWithParam<int> {};

TEST_P(YlmOrthonormality, QuadratureOrthonormal) {
  const int lmax = GetParam();
  // Product grid exact to 2*lmax integrates all Y_lm * Y_l'm' products.
  const AngularGrid g = product_grid(2 * lmax);
  const std::size_t nlm = n_lm(lmax);
  std::vector<double> overlap(nlm * nlm, 0.0);
  std::vector<double> y;
  for (std::size_t i = 0; i < g.points.size(); ++i) {
    real_ylm(g.points[i], lmax, y);
    for (std::size_t a = 0; a < nlm; ++a)
      for (std::size_t b = 0; b <= a; ++b)
        overlap[a * nlm + b] += g.weights[i] * y[a] * y[b];
  }
  for (std::size_t a = 0; a < nlm; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      EXPECT_NEAR(overlap[a * nlm + b], a == b ? 1.0 : 0.0, 1e-10)
          << "lmax=" << lmax << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, YlmOrthonormality,
                         ::testing::Values(0, 1, 2, 4, 6, 8));

TEST(Ylm, UnnormalizedDirectionGivesSameValues) {
  const Vec3 u{0.3, -0.4, 0.87};
  const std::vector<double> a = real_ylm(u, 4);
  const std::vector<double> b = real_ylm(u * 7.5, 4);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-12);
}

TEST(Ylm, AdditionTheorem) {
  // sum_m Y_lm(u)^2 = (2l+1)/(4 pi) for any direction.
  const Vec3 u{0.6, 0.0, 0.8};
  const std::vector<double> y = real_ylm(u, 6);
  for (int l = 0; l <= 6; ++l) {
    double s = 0.0;
    for (int m = -l; m <= l; ++m) {
      const double v = y[lm_index(l, m)];
      s += v * v;
    }
    EXPECT_NEAR(s, (2.0 * l + 1.0) / kFourPi, 1e-11);
  }
}

// The per-call recurrence real_ylm used before its coefficients moved into
// a static table, kept verbatim as the bitwise reference.
std::vector<double> reference_ylm(const Vec3& u, int lmax) {
  std::vector<double> out(n_lm(lmax), 0.0);
  const double r = u.norm();
  double c = 1.0;
  double s = 0.0;
  double cphi = 1.0;
  double sphi = 0.0;
  if (r > 0.0) {
    c = u.z / r;
    const double rho = std::hypot(u.x, u.y);
    s = rho / r;
    if (rho > 0.0) {
      cphi = u.x / rho;
      sphi = u.y / rho;
    }
  }
  const int nl = lmax + 1;
  std::vector<double> q(static_cast<std::size_t>(nl * nl), 0.0);
  const auto qi = [nl](int l, int m) {
    return static_cast<std::size_t>(l * nl + m);
  };
  q[qi(0, 0)] = std::sqrt(1.0 / kFourPi);
  for (int m = 1; m <= lmax; ++m) {
    q[qi(m, m)] = std::sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * q[qi(m - 1, m - 1)];
  }
  for (int m = 0; m < lmax; ++m) {
    q[qi(m + 1, m)] = std::sqrt(2.0 * m + 3.0) * c * q[qi(m, m)];
  }
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      const double a =
          std::sqrt((4.0 * l * l - 1.0) / (static_cast<double>(l) * l - m * m));
      const double b = std::sqrt(
          (static_cast<double>(l - 1) * (l - 1) - m * m) /
          (4.0 * static_cast<double>(l - 1) * (l - 1) - 1.0));
      q[qi(l, m)] = a * (c * q[qi(l - 1, m)] - b * q[qi(l - 2, m)]);
    }
  }
  std::vector<double> cm(static_cast<std::size_t>(lmax) + 1, 1.0);
  std::vector<double> sm(static_cast<std::size_t>(lmax) + 1, 0.0);
  for (int m = 1; m <= lmax; ++m) {
    cm[m] = cm[m - 1] * cphi - sm[m - 1] * sphi;
    sm[m] = sm[m - 1] * cphi + cm[m - 1] * sphi;
  }
  const double sqrt2 = std::sqrt(2.0);
  for (int l = 0; l <= lmax; ++l) {
    out[lm_index(l, 0)] = q[qi(l, 0)];
    for (int m = 1; m <= l; ++m) {
      const double qlm = q[qi(l, m)];
      out[lm_index(l, m)] = sqrt2 * qlm * cm[m];
      out[lm_index(l, -m)] = sqrt2 * qlm * sm[m];
    }
  }
  return out;
}

// Directions covering the special cases (zero vector, poles, axes, points a
// hair off the poles) and a few thousand random unnormalized vectors whose
// lengths span six decades.
std::vector<Vec3> probe_directions() {
  std::vector<Vec3> dirs = {{0.0, 0.0, 0.0},  {0.0, 0.0, 1.0},
                            {0.0, 0.0, -1.0}, {1.0, 0.0, 0.0},
                            {-1.0, 0.0, 0.0}, {0.0, 1.0, 0.0},
                            {0.0, -1.0, 0.0}, {1e-300, 0.0, 1.0},
                            {0.0, 1e-12, -3.0}, {2.5, 0.0, 0.0},
                            {0.0, 0.0, 1e-9}, {-4.0, 4.0, 0.0}};
  std::mt19937 rng(97);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_real_distribution<double> decade(-3.0, 3.0);
  for (int i = 0; i < 3000; ++i) {
    const Vec3 u{unit(rng), unit(rng), unit(rng)};
    dirs.push_back(u * std::pow(10.0, decade(rng)));
  }
  return dirs;
}

TEST(Ylm, TableRecurrenceMatchesReferenceBitwise) {
  const std::vector<Vec3> dirs = probe_directions();
  // One workspace and output buffer across every lmax, in both directions
  // of size change, as the hot loops reuse them.
  YlmWorkspace ws;
  std::vector<double> y;
  for (int lmax : {0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 8}) {
    for (const Vec3& u : dirs) {
      const std::vector<double> ref = reference_ylm(u, lmax);
      real_ylm(u, lmax, y, ws);
      ASSERT_EQ(y.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(y[i], ref[i]) << "lmax " << lmax << " lm " << i << " u "
                                << u;
      }
    }
  }
  // Orders beyond the static table take the one-off table path.
  for (int lmax : {17, 20}) {
    for (std::size_t k = 0; k < dirs.size(); k += 50) {
      const std::vector<double> ref = reference_ylm(dirs[k], lmax);
      const std::vector<double> got = real_ylm(dirs[k], lmax);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i], ref[i]) << "lmax " << lmax << " lm " << i;
      }
    }
  }
}

}  // namespace
}  // namespace swraman::grid
