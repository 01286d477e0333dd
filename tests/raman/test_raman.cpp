#include "raman/raman.hpp"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace swraman::raman {
namespace {

RamanSpectrum h2_spectrum() {
  static const RamanSpectrum spec = [] {
    std::vector<grid::AtomSite> h2 = {{1, {0.0, 0.0, 0.0}},
                                      {1, {0.0, 0.0, 1.45}}};
    RamanOptions opt;
    RamanCalculator calc(h2, opt);
    return calc.compute();
  }();
  return spec;
}

TEST(Raman, H2SingleActiveMode) {
  const RamanSpectrum spec = h2_spectrum();
  ASSERT_EQ(spec.modes.size(), 1u);
  const RamanMode& m = spec.modes[0];
  EXPECT_GT(m.frequency_cm, 3500.0);
  EXPECT_LT(m.frequency_cm, 5800.0);
  EXPECT_GT(m.activity, 10.0);
  // Sigma_g stretch is polarized: depolarization well below 0.75.
  EXPECT_LT(m.depolarization, 0.5);
  EXPECT_GE(m.depolarization, 0.0);
}

TEST(Raman, PolarizabilityCountMatchesPaperScheme) {
  // 6N displaced polarizabilities (3N forward + 3N backward, paper Sec 2.3).
  const RamanSpectrum spec = h2_spectrum();
  EXPECT_EQ(spec.n_polarizabilities, 6 * 2);
}

TEST(Raman, UnconvergedDisplacedScfThrowsConvergenceError) {
  // The SCF exit needs iter > 3, so three iterations never converge. The
  // calculator raises the same error type as serve's RealEngine (one
  // shared task), after its bounded retry, and counts no polarizability.
  std::vector<grid::AtomSite> h2 = {{1, {0.0, 0.0, 0.0}},
                                    {1, {0.0, 0.0, 1.45}}};
  RamanOptions opt;
  opt.vibrations.scf.max_iterations = 3;
  RamanCalculator calc(h2, opt);
  EXPECT_THROW((void)calc.polarizability_derivatives(), ConvergenceError);
  EXPECT_EQ(calc.n_polarizabilities(), 0);
}

// The golden water geometry and its coarse 16/7 grid.
std::vector<grid::AtomSite> water() {
  return {{8, {0.0, 0.0, 0.3268247149}},
          {1, {1.2518316921, 0.0, 0.9437281316}},
          {1, {-1.2518316921, 0.0, 0.9437281316}}};
}

void expect_bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double x = a(i, j);
      const double y = b(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "(" << i << ", " << j << "): " << x << " vs " << y;
    }
  }
}

TEST(Raman, RankParallelMatchesSerialBitwise) {
  // The calculator solves its 6N displaced geometries as host_ranks()
  // ranks; the reference runs the same shared task serially, in order.
  RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 16;
  opt.vibrations.scf.grid.angular_order = 7;
  const std::vector<grid::AtomSite> atoms = water();
  RamanCalculator calc(atoms, opt);
  obs::set_enabled(true);
  obs::reset_for_testing();
  const linalg::Matrix dalpha = calc.polarizability_derivatives();
  const std::vector<obs::SpanRecord> spans = obs::snapshot();
  obs::set_enabled(false);
  obs::reset_for_testing();

  const std::size_t n = 3 * atoms.size();
  EXPECT_EQ(calc.n_polarizabilities(), static_cast<int>(2 * n));
  linalg::Matrix want_dalpha(n, 9);
  linalg::Matrix want_dmu(n, 3);
  for (std::size_t coord = 0; coord < n; ++coord) {
    difference_row(displaced_polarizability(atoms, opt, coord, +1),
                   displaced_polarizability(atoms, opt, coord, -1),
                   opt.alpha_displacement, coord, &want_dalpha, &want_dmu);
  }
  expect_bitwise_equal(dalpha, want_dalpha);
  expect_bitwise_equal(calc.dipole_derivatives(), want_dmu);

  // Every geometry span nests under the loop span, rank threads included.
  std::size_t geometries = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "raman.geometry") continue;
    ++geometries;
    EXPECT_EQ(s.path, "raman.dalpha/raman.geometry");
  }
  EXPECT_EQ(geometries, 2 * n);
  for (const obs::PhaseNode& p : obs::aggregate_phases(spans)) {
    EXPECT_GE(p.self_s, 0.0) << p.path;
  }
}

TEST(Broaden, PeaksAtModeFrequencies) {
  std::vector<RamanMode> modes(2);
  modes[0].frequency_cm = 1000.0;
  modes[0].activity = 10.0;
  modes[1].frequency_cm = 3000.0;
  modes[1].activity = 30.0;
  const BroadenedSpectrum s = broaden(modes, 5.0, 500.0, 3500.0, 1.0);
  // Find maxima near the two bands.
  double peak1 = 0.0;
  double peak2 = 0.0;
  for (std::size_t i = 0; i < s.wavenumber_cm.size(); ++i) {
    if (std::abs(s.wavenumber_cm[i] - 1000.0) < 20.0) {
      peak1 = std::max(peak1, s.intensity[i]);
    }
    if (std::abs(s.wavenumber_cm[i] - 3000.0) < 20.0) {
      peak2 = std::max(peak2, s.intensity[i]);
    }
  }
  EXPECT_GT(peak1, 0.0);
  EXPECT_NEAR(peak2 / peak1, 3.0, 0.05);
  // Background far from peaks is small.
  EXPECT_LT(s.intensity[0], 0.05 * peak1);
}

TEST(Broaden, IntegralMatchesTotalActivity) {
  std::vector<RamanMode> modes(1);
  modes[0].frequency_cm = 2000.0;
  modes[0].activity = 42.0;
  const BroadenedSpectrum s = broaden(modes, 8.0, 1000.0, 3000.0, 0.5);
  double integral = 0.0;
  for (double v : s.intensity) integral += v * 0.5;
  // Lorentzian normalized: the full integral approaches the activity.
  EXPECT_NEAR(integral, 42.0, 1.0);
}

TEST(Broaden, RejectsBadParameters) {
  std::vector<RamanMode> modes;
  EXPECT_THROW(broaden(modes, -1.0, 0.0, 100.0), Error);
  EXPECT_THROW(broaden(modes, 1.0, 200.0, 100.0), Error);
}

TEST(Compose, WeightedSuperposition) {
  std::vector<RamanMode> m1(1);
  m1[0].frequency_cm = 800.0;
  m1[0].activity = 10.0;
  std::vector<RamanMode> m2(1);
  m2[0].frequency_cm = 1600.0;
  m2[0].activity = 10.0;
  const BroadenedSpectrum s1 = broaden(m1, 5.0, 500.0, 2000.0);
  const BroadenedSpectrum s2 = broaden(m2, 5.0, 500.0, 2000.0);
  const BroadenedSpectrum sum = compose({{s1, 1.0}, {s2, 2.0}});
  // Peak at 1600 should be ~2x the peak at 800.
  double p800 = 0.0;
  double p1600 = 0.0;
  for (std::size_t i = 0; i < sum.wavenumber_cm.size(); ++i) {
    if (std::abs(sum.wavenumber_cm[i] - 800.0) < 10.0) {
      p800 = std::max(p800, sum.intensity[i]);
    }
    if (std::abs(sum.wavenumber_cm[i] - 1600.0) < 10.0) {
      p1600 = std::max(p1600, sum.intensity[i]);
    }
  }
  EXPECT_NEAR(p1600 / p800, 2.0, 0.05);
}

TEST(Compose, RejectsMismatchedGrids) {
  std::vector<RamanMode> m(1);
  m[0].frequency_cm = 1000.0;
  m[0].activity = 1.0;
  const BroadenedSpectrum a = broaden(m, 5.0, 0.0, 100.0);
  const BroadenedSpectrum b = broaden(m, 5.0, 0.0, 200.0);
  EXPECT_THROW(compose({{a, 1.0}, {b, 1.0}}), Error);
}

}  // namespace
}  // namespace swraman::raman
// -- appended coverage: IR intensities and the observed-intensity
// correction added alongside the Raman activities.

namespace swraman::raman {
namespace {

TEST(Raman, HomonuclearHasNoIrIntensity) {
  // H2 stretch: no dipole derivative, so IR-silent while Raman-active.
  const RamanSpectrum spec = h2_spectrum();
  ASSERT_EQ(spec.modes.size(), 1u);
  EXPECT_NEAR(spec.modes[0].ir_intensity, 0.0, 1.0);  // km/mol
  EXPECT_GT(spec.modes[0].activity, 10.0);
}

TEST(ObservedIntensity, StokesFactorsBehave) {
  // Low-frequency modes gain weight from both the 1/nu factor and the
  // thermal population.
  const double low = observed_raman_intensity(1.0, 300.0);
  const double high = observed_raman_intensity(1.0, 3000.0);
  EXPECT_GT(low, high);
  // Linear in the activity.
  EXPECT_NEAR(observed_raman_intensity(2.0, 1000.0),
              2.0 * observed_raman_intensity(1.0, 1000.0), 1e-9);
  // Hotter samples scatter more at low frequency (larger population
  // denominator correction).
  EXPECT_GT(observed_raman_intensity(1.0, 300.0, 18796.99, 600.0),
            observed_raman_intensity(1.0, 300.0, 18796.99, 100.0));
  // High-frequency limit: Boltzmann factor ~ 1, pure (nu0-nu)^4/nu.
  const double nu = 3500.0;
  const double nu0 = 18796.99;
  const double expected = std::pow(nu0 - nu, 4) / nu;
  EXPECT_NEAR(observed_raman_intensity(1.0, nu, nu0, 298.15), expected,
              1e-4 * expected);
}

TEST(ObservedIntensity, RejectsBadArguments) {
  EXPECT_THROW(observed_raman_intensity(1.0, -5.0), Error);
  EXPECT_THROW(observed_raman_intensity(1.0, 20000.0, 18796.99), Error);
  EXPECT_THROW(observed_raman_intensity(1.0, 100.0, 18796.99, -1.0), Error);
}

}  // namespace
}  // namespace swraman::raman
