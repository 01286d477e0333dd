#include "sunway/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "common/constants.hpp"

namespace swraman::sunway {
namespace {

// A solved multipole potential of a two-center Gaussian density.
struct Fixture {
  grid::MolecularGrid g;
  hartree::MultipolePotential pot;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                               {1, {0.0, 0.0, 1.8}}};
    grid::GridSettings s;
    s.level = grid::GridLevel::Tight;
    Fixture fx{grid::build_molecular_grid(atoms, s), {}};
    const hartree::MultipoleSolver solver(fx.g, 6);
    std::vector<double> n(fx.g.size());
    for (std::size_t p = 0; p < fx.g.size(); ++p) {
      n[p] = std::pow(1.3 / kPi, 1.5) *
                 std::exp(-1.3 * fx.g.points[p].norm2()) +
             std::pow(0.9 / kPi, 1.5) *
                 std::exp(-0.9 * (fx.g.points[p] - Vec3{0, 0, 1.8}).norm2());
    }
    fx.pot = solver.solve(n);
    return fx;
  }();
  return f;
}

std::vector<Vec3> probe_points(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts) p = {dist(rng), dist(rng), dist(rng) + 1.0};
  return pts;
}

// kernel1 stages MultipolePotential::value through LDM tiles, so its output
// must equal value() bit for bit everywhere: at each nucleus and inside the
// innermost shell (where the first spline interval extrapolates), at every
// grid point, exactly at each atom's outer radius (the switch to the
// analytic far field), and at off-grid probes.
TEST(Kernel1, CpeMatchesMultipolePotentialBitwise) {
  const Fixture& fx = fixture();
  const Vec3 dir = Vec3{1.0, 2.0, 3.0} / std::sqrt(14.0);
  std::vector<Vec3> pts = fx.g.points;
  for (std::size_t a = 0; a < fx.g.atoms.size(); ++a) {
    const Vec3 center = fx.g.atoms[a].pos;
    double first_knot = fx.pot.outer_radius(a);
    for (const grid::ShellInfo& sh : fx.g.shells) {
      if (static_cast<std::size_t>(sh.atom) == a) {
        first_knot = std::min(first_knot, sh.radius);
      }
    }
    pts.push_back(center);
    for (double f : {0.25, 0.5, 0.9}) {
      pts.push_back(center + dir * (f * first_knot));
    }
    pts.push_back(center + dir * fx.pot.outer_radius(a));
  }
  const std::vector<Vec3> probes = probe_points(500, 9);
  pts.insert(pts.end(), probes.begin(), probes.end());

  CpeCluster cluster(sw26010pro());
  std::vector<double> cpe(pts.size());
  real_space_potential_cpe(cluster, fx.pot, pts.data(), pts.size(),
                           cpe.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(cpe[i], fx.pot.value(pts[i])) << i;
  }
  // One PointAtomCost per (point, atom) pair.
  EXPECT_EQ(cluster.total().flops,
            static_cast<double>(pts.size() * fx.pot.n_atoms()) *
                point_atom_cost(49).flops);
  EXPECT_GT(cluster.total().dma_bytes, 0.0);
}

// The per-pair price is affine in the channel count: the interval's four
// table rows of n_lm doubles are streamed, and the flops grow per channel
// on top of a fixed Y_lm/lookup overhead.
TEST(Kernel1, PointAtomCostIsAffineInChannels) {
  const PointAtomCost c16 = point_atom_cost(16);
  const PointAtomCost c49 = point_atom_cost(49);
  EXPECT_EQ(c49.dma_bytes, 4.0 * 49.0 * sizeof(double));
  EXPECT_EQ(c16.dma_bytes, 4.0 * 16.0 * sizeof(double));
  EXPECT_EQ(c49.dma_transfers, c16.dma_transfers);
  EXPECT_GT(c16.flops, 0.0);
  EXPECT_GT(c49.flops, c16.flops);
  const double per_channel = (c49.flops - c16.flops) / 33.0;
  EXPECT_DOUBLE_EQ(point_atom_cost(1).flops,
                   c16.flops - 15.0 * per_channel);
}

// Fewer points than CPEs leaves most slices empty; no points charges
// nothing and writes nothing.
TEST(Kernel1, ShortAndEmptyInputs) {
  const Fixture& fx = fixture();
  CpeCluster cluster(sw26010pro());
  double untouched = -7.0;
  real_space_potential_cpe(cluster, fx.pot, nullptr, 0, &untouched);
  EXPECT_EQ(untouched, -7.0);
  EXPECT_EQ(cluster.total().flops, 0.0);

  const std::vector<Vec3> pts = probe_points(3, 21);
  std::vector<double> out(pts.size());
  real_space_potential_cpe(cluster, fx.pot, pts.data(), pts.size(),
                           out.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(out[i], fx.pot.value(pts[i])) << i;
  }
  EXPECT_EQ(cluster.total().flops,
            static_cast<double>(pts.size() * fx.pot.n_atoms()) *
                point_atom_cost(49).flops);
}

TEST(ReciprocalKernel, MatchesEwaldReciprocal) {
  const hartree::EwaldSystem sys = hartree::zinc_blende_cell(4.0, 0.8);
  const hartree::Ewald ewald(sys, 1.0, 8.0, 8.0);
  const ReciprocalTables t = build_reciprocal_tables(ewald);
  const std::vector<Vec3> pts = probe_points(50, 17);
  std::vector<double> out(pts.size());
  reciprocal_potential(t, pts.data(), pts.size(), out.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    // The gather permutation only reorders the sum.
    EXPECT_NEAR(out[i], ewald.reciprocal(pts[i]), 1e-10);
  }
}

TEST(ReciprocalKernel, CpeExecutionMatchesHost) {
  const hartree::EwaldSystem sys = hartree::rock_salt_cell(3.0, 1.0);
  const hartree::Ewald ewald(sys, 1.0, 8.0, 9.0);
  const ReciprocalTables t = build_reciprocal_tables(ewald);
  const std::vector<Vec3> pts = probe_points(300, 23);
  std::vector<double> host(pts.size());
  std::vector<double> cpe(pts.size());
  reciprocal_potential(t, pts.data(), pts.size(), host.data());
  CpeCluster cluster(sw26010pro());
  reciprocal_potential_cpe(cluster, t, pts.data(), pts.size(), cpe.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(cpe[i], host[i], 1e-11 + 1e-11 * std::abs(host[i]));
  }
}

TEST(BatchKernels, WorkloadsScaleWithBatchShapes) {
  CpeCluster c1(sw26010pro());
  CpeCluster c2(sw26010pro());
  const std::vector<BatchShape> small(50, {40, 200});
  const std::vector<BatchShape> large(50, {80, 200});
  const KernelWorkload w_small = run_density_batches(c1, small);
  const KernelWorkload w_large = run_density_batches(c2, large);
  EXPECT_GT(w_large.total_flops(), 3.0 * w_small.total_flops());

  CpeCluster c3(sw26010pro());
  const KernelWorkload h = run_hamiltonian_batches(c3, small);
  EXPECT_GT(h.total_flops(), 0.0);
  EXPECT_GT(c3.total().rma_bytes, 0.0);  // the scatter-add reduction
}

TEST(BatchKernels, LdmCapacityRespectedForWideBatches) {
  CpeCluster cluster(sw26010pro());
  // 2000 functions x 300 points would blow 256 KB without row tiling.
  const std::vector<BatchShape> wide(4, {2000, 300});
  EXPECT_NO_THROW(run_density_batches(cluster, wide));
}

}  // namespace
}  // namespace swraman::sunway
