#include "raman/vibrations.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/elements.hpp"
#include "common/error.hpp"
#include "core/molecules.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/comm.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {
namespace {

std::vector<grid::AtomSite> h2(double bond = 1.45) {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, bond}}};
}

// Up to four ranks, never more than the host has cores.
std::size_t test_ranks() {
  return std::min<std::size_t>(4, parallel::host_ranks());
}

// Threads of this process (0 where the OS does not list them).
std::size_t live_threads() {
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::exists(tasks)) return 0;
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator(tasks),
                    std::filesystem::directory_iterator()));
}

void expect_bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double x = a(i, j);
      const double y = b(i, j);
      EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
          << "H(" << i << ", " << j << "): " << x << " vs " << y;
    }
  }
}

TEST(EnergyHessian, H2IsSymmetricWithStretchStructure) {
  VibrationOptions opt;
  const linalg::Matrix h = energy_hessian(h2(), opt, 1);
  ASSERT_EQ(h.rows(), 6u);
  // Symmetry.
  EXPECT_NEAR((h - h.transposed()).max_abs(), 0.0, 1e-5);
  // Stretch block: d2E/dz1 dz2 < 0 (opposite displacement raises energy),
  // d2E/dz1^2 > 0.
  EXPECT_GT(h(2, 2), 0.0);
  EXPECT_LT(h(2, 5), 0.0);
  // Translation invariance: rows sum to ~0 against uniform shift.
  for (std::size_t i = 0; i < 6; ++i) {
    double row = h(i, 2) + h(i, 5);  // z-translation combination
    if (i == 2 || i == 5) {
      // Grid egg-box noise breaks exact invariance at the light level.
      EXPECT_NEAR(row, 0.0, 0.1 * std::abs(h(i, i))) << "row " << i;
    }
  }
}

TEST(EnergyHessian, RankParallelMatchesSerialBitwise) {
  // H2 at the default numerics; water's 163-point layout on the coarse
  // 16/7 grid, which keeps more points than ranks at a fraction of the cost.
  VibrationOptions coarse;
  coarse.scf.grid.n_radial = 16;
  coarse.scf.grid.angular_order = 7;
  const std::size_t ranks = test_ranks();
  const std::pair<std::vector<grid::AtomSite>, VibrationOptions> cases[] = {
      {h2(), VibrationOptions{}}, {molecules::water(), coarse}};
  for (const auto& [atoms, opt] : cases) {
    const linalg::Matrix serial = energy_hessian(atoms, opt, 1);
    const linalg::Matrix parallel = energy_hessian(atoms, opt, ranks);
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(EnergyHessian, UnconvergedPointThrowsConvergenceErrorThroughRanks) {
  // The equilibrium SCF converges; the first displaced point to iterate is
  // poisoned, and with a single recovery attempt its SCF cannot converge.
  const fault::ScopedFaults faults;
  VibrationOptions opt;
  opt.scf.recovery_attempts = 1;
  fault::FaultInjector& inj = fault::FaultInjector::instance();
  fault::FaultSpec never;
  never.fire_at = 1000000;
  inj.configure(fault::kScfDiverge, never);
  ASSERT_TRUE(converged_scf(h2(), opt.scf).converged);
  const std::uint64_t eq_visits = inj.stats(fault::kScfDiverge).visits;
  ASSERT_GT(eq_visits, 0u);

  fault::FaultSpec first_point;
  first_point.fire_at = static_cast<long long>(eq_visits) + 1;
  inj.configure(fault::kScfDiverge, first_point);
  const std::size_t threads_before = live_threads();
  EXPECT_THROW(energy_hessian(h2(), opt, test_ranks()), ConvergenceError);
  EXPECT_EQ(inj.stats(fault::kScfDiverge).fires, 1u);
  // run_spmd joined every rank before rethrowing.
  EXPECT_EQ(live_threads(), threads_before);
}

TEST(EnergyHessian, RankSpansNestUnderTheCallersSpan) {
  obs::set_enabled(true);
  obs::reset_for_testing();
  {
    SWRAMAN_TRACE_SCOPE("raman.hessian");
    energy_hessian(h2(), VibrationOptions{}, 2);
  }
  const std::vector<obs::SpanRecord> spans = obs::snapshot();
  obs::set_enabled(false);
  obs::reset_for_testing();
  // 1 + 6N + 4 C(3N, 2) SCF solves for N = 2, all under raman.hessian.
  std::size_t solves = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "scf.solve") continue;
    ++solves;
    EXPECT_EQ(s.path, "raman.hessian/scf.solve");
  }
  EXPECT_EQ(solves, 73u);
  for (const obs::PhaseNode& p : obs::aggregate_phases(spans)) {
    EXPECT_GE(p.self_s, 0.0) << p.path;
  }
}

TEST(NormalModes, H2HasOneStretchMode) {
  VibrationOptions opt;
  const std::vector<grid::AtomSite> atoms = h2();
  const linalg::Matrix h = energy_hessian(atoms, opt, 1);
  const NormalModes modes = normal_modes(atoms, h);
  ASSERT_EQ(modes.frequencies_cm.size(), 6u);
  // Five rigid-body-ish modes near zero, one stretch in the vibrational
  // range (LDA H2 ~4100-5300 cm^-1 depending on basis).
  int large = 0;
  for (double f : modes.frequencies_cm) {
    if (std::abs(f) > 500.0) ++large;
  }
  EXPECT_EQ(large, 1);
  const double stretch = modes.frequencies_cm.back();
  EXPECT_GT(stretch, 3500.0);
  EXPECT_LT(stretch, 5800.0);
  // Reduced mass in the Gaussian-output convention (1/sum l_cart^2 with
  // mass-weighted-normalized modes): the atomic mass for a homonuclear
  // diatomic.
  EXPECT_NEAR(modes.reduced_masses_amu.back(), 1.008, 0.05);
}

TEST(NormalModes, StretchModeIsAntisymmetricAlongBond) {
  VibrationOptions opt;
  const std::vector<grid::AtomSite> atoms = h2();
  const linalg::Matrix h = energy_hessian(atoms, opt, 1);
  const NormalModes modes = normal_modes(atoms, h);
  const std::size_t p = 5;  // highest mode = stretch
  // z components opposite, x/y negligible.
  EXPECT_NEAR(modes.cartesian_modes(2, p), -modes.cartesian_modes(5, p),
              1e-6);
  EXPECT_NEAR(modes.cartesian_modes(0, p), 0.0, 1e-6);
  EXPECT_NEAR(modes.cartesian_modes(1, p), 0.0, 1e-6);
}

TEST(NormalModes, RigidBodyProjectionZerosTranslations) {
  // Analytic two-body spring Hessian: k (unit) along z.
  const std::vector<grid::AtomSite> atoms = h2();
  linalg::Matrix h(6, 6);
  const double k = 0.37;
  h(2, 2) = k;
  h(5, 5) = k;
  h(2, 5) = -k;
  h(5, 2) = -k;
  const NormalModes projected = normal_modes(atoms, h, true);
  // 5 zero modes + 1 stretch: omega = sqrt(2k/m_H).
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(projected.frequencies_cm[i], 0.0, 1.0);
  }
  const double m = element(1).mass_amu * kMeAmu;
  const double exact = std::sqrt(2.0 * k / m) * kCmInvPerAu;
  EXPECT_NEAR(projected.frequencies_cm[5], exact, 1e-6 * exact);
}

TEST(NormalModes, RejectsWrongHessianSize) {
  EXPECT_THROW(normal_modes(h2(), linalg::Matrix(3, 3)), Error);
}

}  // namespace
}  // namespace swraman::raman
