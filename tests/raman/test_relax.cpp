#include "raman/relax.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "core/molecules.hpp"
#include "parallel/comm.hpp"

namespace swraman::raman {
namespace {

TEST(EnergyGradient, H2PointsDownhillTowardMinimum) {
  // Stretched H2: the gradient must pull the atoms together.
  const std::vector<grid::AtomSite> stretched = molecules::h2(1.9);
  const std::vector<double> g = energy_gradient(stretched, {}, 0.005, 1);
  ASSERT_EQ(g.size(), 6u);
  // dE/dz of atom 1 (at z = 1.9) positive bond-restoring force means
  // dE/dz1 > 0 (moving atom 1 further out raises E).
  EXPECT_GT(g[5], 0.01);
  EXPECT_LT(g[2], -0.01);
  // Perpendicular components vanish by symmetry.
  EXPECT_NEAR(g[0], 0.0, 2e-3);
  EXPECT_NEAR(g[1], 0.0, 2e-3);
}

TEST(EnergyGradient, RankParallelMatchesSerialBitwise) {
  const std::vector<grid::AtomSite> stretched = molecules::h2(1.9);
  const std::size_t ranks = std::min<std::size_t>(4, parallel::host_ranks());
  const std::vector<double> serial = energy_gradient(stretched, {}, 0.005, 1);
  const std::vector<double> parallel =
      energy_gradient(stretched, {}, 0.005, ranks);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(double)),
            0);
}

TEST(EnergyGradient, UnconvergedPointsThrowConvergenceError) {
  scf::ScfOptions opt;
  opt.max_iterations = 1;
  const std::size_t ranks = std::min<std::size_t>(4, parallel::host_ranks());
  EXPECT_THROW(energy_gradient(molecules::h2(1.9), opt, 0.005, ranks),
               ConvergenceError);
  EXPECT_THROW(energy_gradient(molecules::h2(1.9), opt, 0.005, 1),
               ConvergenceError);
}

TEST(Relax, H2FindsTheBindingMinimum) {
  RelaxOptions opt;
  const RelaxResult res = relax_geometry(molecules::h2(1.2), opt);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.max_force, opt.force_tol);
  const double bond = distance(res.atoms[0].pos, res.atoms[1].pos);
  // The minimal+pol NAO LDA minimum sits near 1.45 Bohr.
  EXPECT_GT(bond, 1.30);
  EXPECT_LT(bond, 1.85);  // minimal NAO LDA overbinds long
  // Energy at the minimum is below the starting point.
  scf::ScfEngine start(molecules::h2(1.2), opt.scf);
  EXPECT_LT(res.energy, start.solve().total_energy);
}

TEST(Relax, ConvergesFromBothSidesToSameBond) {
  RelaxOptions opt;
  const RelaxResult a = relax_geometry(molecules::h2(1.2), opt);
  const RelaxResult b = relax_geometry(molecules::h2(1.8), opt);
  EXPECT_TRUE(a.converged);
  EXPECT_TRUE(b.converged);
  const double bond_a = distance(a.atoms[0].pos, a.atoms[1].pos);
  const double bond_b = distance(b.atoms[0].pos, b.atoms[1].pos);
  EXPECT_NEAR(bond_a, bond_b, 0.03);
}

TEST(Relax, AlreadyRelaxedGeometryIsANoOp) {
  RelaxOptions opt;
  const RelaxResult first = relax_geometry(molecules::h2(1.4), opt);
  const RelaxResult again = relax_geometry(first.atoms, opt);
  EXPECT_TRUE(again.converged);
  EXPECT_LE(again.iterations, 2);
  EXPECT_NEAR(again.energy, first.energy, 1e-6);
}

TEST(Relax, RejectsEmptyInput) {
  EXPECT_THROW(relax_geometry({}, {}), Error);
}

}  // namespace
}  // namespace swraman::raman
