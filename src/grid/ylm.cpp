#include "grid/ylm.hpp"

#include <cmath>
#include <optional>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace swraman::grid {

namespace {

// Recurrence coefficients of the fully normalized associated Legendre
// functions up to lmax. They depend on (l, m) only, so one immutable table
// serves every call. Each entry is the expression a per-call recurrence
// would evaluate, rounded the same way, so results match one bit for bit
// (Ylm.TableRecurrenceMatchesReferenceBitwise).
struct LegendreCoefficients {
  explicit LegendreCoefficients(int lmax)
      : diag(static_cast<std::size_t>(lmax) + 1),
        sub(static_cast<std::size_t>(lmax) + 1),
        a(n_lm(lmax)),
        b(n_lm(lmax)) {
    for (int m = 1; m <= lmax; ++m) {
      diag[static_cast<std::size_t>(m)] =
          std::sqrt((2.0 * m + 1.0) / (2.0 * m));
    }
    for (int m = 0; m < lmax; ++m) {
      sub[static_cast<std::size_t>(m)] = std::sqrt(2.0 * m + 3.0);
    }
    for (int m = 0; m <= lmax; ++m) {
      for (int l = m + 2; l <= lmax; ++l) {
        a[lm_index(l, m)] = std::sqrt((4.0 * l * l - 1.0) /
                                      (static_cast<double>(l) * l - m * m));
        b[lm_index(l, m)] =
            std::sqrt((static_cast<double>(l - 1) * (l - 1) - m * m) /
                      (4.0 * static_cast<double>(l - 1) * (l - 1) - 1.0));
      }
    }
  }

  std::vector<double> diag;  // [m]: Q_mm from Q_(m-1)(m-1)
  std::vector<double> sub;   // [m]: Q_(m+1)m from Q_mm
  std::vector<double> a;     // [lm_index(l, m)], l >= m + 2
  std::vector<double> b;
};

// Covers every lmax the code base evaluates (basis l, multipole lmax 8);
// larger requests build a one-off table.
constexpr int kTableLmax = 16;

const LegendreCoefficients& coefficient_table() {
  static const LegendreCoefficients table(kTableLmax);
  return table;
}

}  // namespace

void real_ylm(const Vec3& u, int lmax, std::vector<double>& out,
              YlmWorkspace& ws) {
  SWRAMAN_REQUIRE(lmax >= 0, "real_ylm: lmax >= 0");
  std::optional<LegendreCoefficients> oversized;
  if (lmax > kTableLmax) oversized.emplace(lmax);
  const LegendreCoefficients& k = oversized ? *oversized : coefficient_table();
  out.resize(n_lm(lmax));

  const double r = u.norm();
  double c = 1.0;  // cos(theta)
  double s = 0.0;  // sin(theta)
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

  // Fully normalized associated Legendre Q_l^m (no Condon-Shortley phase):
  //   Y_l0 = Q_l0, Y_l(+-m) = sqrt(2) Q_lm {cos,sin}(m phi).
  // Recurrences are stable upward in l for fixed m. Only m <= l entries
  // are written and read.
  const int nl = lmax + 1;
  std::vector<double>& q = ws.q;
  q.resize(static_cast<std::size_t>(nl * nl));
  const auto qi = [nl](int l, int m) {
    return static_cast<std::size_t>(l * nl + m);
  };

  q[qi(0, 0)] = std::sqrt(1.0 / kFourPi);
  for (int m = 1; m <= lmax; ++m) {
    q[qi(m, m)] = k.diag[static_cast<std::size_t>(m)] * s * q[qi(m - 1, m - 1)];
  }
  for (int m = 0; m < lmax; ++m) {
    q[qi(m + 1, m)] = k.sub[static_cast<std::size_t>(m)] * c * q[qi(m, m)];
  }
  for (int m = 0; m <= lmax; ++m) {
    for (int l = m + 2; l <= lmax; ++l) {
      q[qi(l, m)] = k.a[lm_index(l, m)] *
                    (c * q[qi(l - 1, m)] - k.b[lm_index(l, m)] * q[qi(l - 2, m)]);
    }
  }

  // Azimuthal factors cos(m phi), sin(m phi) by the angle-addition recurrence.
  std::vector<double>& cm = ws.cm;
  std::vector<double>& sm = ws.sm;
  cm.resize(static_cast<std::size_t>(lmax) + 1);
  sm.resize(static_cast<std::size_t>(lmax) + 1);
  cm[0] = 1.0;
  sm[0] = 0.0;
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
}

void real_ylm(const Vec3& u, int lmax, std::vector<double>& out) {
  YlmWorkspace ws;
  real_ylm(u, lmax, out, ws);
}

std::vector<double> real_ylm(const Vec3& u, int lmax) {
  std::vector<double> out;
  real_ylm(u, lmax, out);
  return out;
}

}  // namespace swraman::grid
