#include "hartree/multipole.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "core/molecules.hpp"

namespace swraman::hartree {
namespace {

// Normalized Gaussian density centered at c: V(r) = erf(sqrt(a) |r-c|)/|r-c|.
double gaussian_density(const Vec3& r, const Vec3& c, double a) {
  return std::pow(a / kPi, 1.5) * std::exp(-a * (r - c).norm2());
}

double gaussian_potential(const Vec3& r, const Vec3& c, double a) {
  const double d = (r - c).norm();
  if (d < 1e-8) return 2.0 * std::sqrt(a / kPi);
  return std::erf(std::sqrt(a) * d) / d;
}

grid::MolecularGrid make_grid(const std::vector<grid::AtomSite>& atoms,
                              grid::GridLevel level = grid::GridLevel::Tight) {
  grid::GridSettings s;
  s.level = level;
  return grid::build_molecular_grid(atoms, s);
}

TEST(Multipole, OnCenterGaussianPotential) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 6);

  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.2);
  }
  const MultipolePotential pot = solver.solve(n);
  EXPECT_NEAR(pot.total_charge(), 1.0, 1e-4);

  for (const Vec3& r : {Vec3{0.5, 0.0, 0.0}, Vec3{0.0, 1.0, 0.5},
                        Vec3{2.0, 1.0, -1.0}, Vec3{6.0, 0.0, 0.0}}) {
    EXPECT_NEAR(pot.value(r), gaussian_potential(r, {0, 0, 0}, 1.2), 5e-4)
        << r;
  }
}

TEST(Multipole, OffCenterGaussianNeedsHigherMultipoles) {
  // A Gaussian displaced from the only atomic center exercises l > 0.
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 8);

  const Vec3 c{0.0, 0.0, 0.5};
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], c, 2.0);
  }
  const MultipolePotential pot = solver.solve(n);
  for (const Vec3& r : {Vec3{0.0, 0.0, 3.0}, Vec3{2.0, 0.0, 0.0},
                        Vec3{0.0, -2.5, 1.0}}) {
    EXPECT_NEAR(pot.value(r), gaussian_potential(r, c, 2.0), 5e-3) << r;
  }
}

TEST(Multipole, TwoCenterDensity) {
  const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.4}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 6);

  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], atoms[0].pos, 1.5) +
           gaussian_density(g.points[p], atoms[1].pos, 1.5);
  }
  const MultipolePotential pot = solver.solve(n);
  EXPECT_NEAR(pot.total_charge(), 2.0, 2e-4);
  for (const Vec3& r : {Vec3{0.0, 0.0, 0.7}, Vec3{1.5, 0.0, 0.7},
                        Vec3{0.0, 0.0, 4.0}, Vec3{0.0, 3.0, 0.0}}) {
    const double exact = gaussian_potential(r, atoms[0].pos, 1.5) +
                         gaussian_potential(r, atoms[1].pos, 1.5);
    EXPECT_NEAR(pot.value(r), exact, 5e-3) << r;
  }
}

TEST(Multipole, FarFieldIsMonopole) {
  const std::vector<grid::AtomSite> atoms = {{6, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 0.8);
  }
  const MultipolePotential pot = solver.solve(n);
  for (double r : {15.0, 25.0, 60.0}) {
    EXPECT_NEAR(pot.value({r, 0.0, 0.0}), 1.0 / r, 1e-4 / r);
  }
}

TEST(Multipole, SolveOnGridMatchesPointwiseEvaluation) {
  const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.0);
  }
  const MultipolePotential pot = solver.solve(n);
  const std::vector<double> on_grid = solver.solve_on_grid(n);
  for (std::size_t p = 0; p < g.size(); p += 97) {
    EXPECT_NEAR(on_grid[p], pot.value(g.points[p]), 1e-12);
  }
}

// A planned solve_on_grid must be value() at every grid point, bit for bit,
// whether the plan covers all points, some of them, or none; and the plan
// must not change the solved moments. Returns the number of (point, atom)
// pairs in the analytic far field, so callers can pin branch coverage.
std::size_t expect_planned_matches_value(const grid::MolecularGrid& g,
                                         int lmax) {
  std::vector<double> n(g.size(), 0.0);
  for (std::size_t p = 0; p < g.size(); ++p) {
    for (const grid::AtomSite& a : g.atoms) {
      n[p] += static_cast<double>(a.z) *
              gaussian_density(g.points[p], a.pos, a.z > 1 ? 1.8 : 0.9);
    }
  }
  const MultipoleSolver solver(g, lmax);
  const GridPlan plan = solver.make_plan();
  const MultipolePotential pot = solver.solve(n);
  const MultipolePotential planned_pot = solver.solve(n, &plan);
  for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
    for (std::size_t lm = 0; lm < grid::n_lm(lmax); ++lm) {
      EXPECT_EQ(planned_pot.moment(a, lm), pot.moment(a, lm))
          << "atom " << a << " lm " << lm;
    }
  }

  const std::vector<double> planned = solver.solve_on_grid(n, plan);
  const std::vector<double> unplanned = solver.solve_on_grid(n);
  std::size_t far_pairs = 0;
  for (std::size_t p = 0; p < g.size(); ++p) {
    const double v = pot.value(g.points[p]);
    EXPECT_EQ(planned[p], v) << "point " << p;
    EXPECT_EQ(unplanned[p], v) << "point " << p;
    for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
      if ((g.points[p] - pot.centers()[a]).norm() > pot.outer_radius(a)) {
        ++far_pairs;
      }
    }
  }
  return far_pairs;
}

TEST(Multipole, PlannedSolveOnGridMatchesValueBitwise) {
  {
    // Golden water numerics: the plan covers every point.
    grid::GridSettings s;
    s.n_radial = 16;
    s.angular_order = 7;
    const grid::MolecularGrid g =
        grid::build_molecular_grid(molecules::water(), s);
    EXPECT_EQ(MultipoleSolver(g, 6).make_plan().n_points(), g.size());
    expect_planned_matches_value(g, 6);
  }
  {
    // Two atoms far apart: pairs beyond the outer radius take the far-field
    // branch through the plan. lmax 8 sizes every buffer to 81 channels.
    const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}},
                                               {8, {0.0, 0.0, 30.0}}};
    const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
    EXPECT_EQ(MultipoleSolver(g, 8).make_plan().n_points(), g.size());
    EXPECT_GT(expect_planned_matches_value(g, 8), 0u);
  }
  {
    // Over the memory budget: the plan covers a leading share of the points
    // and value() evaluates the rest.
    const grid::MolecularGrid g = grid::build_molecular_grid(
        molecules::water_cluster(6), grid::GridSettings{});
    const std::size_t covered = MultipoleSolver(g, 6).make_plan().n_points();
    EXPECT_GT(covered, 0u);
    EXPECT_LT(covered, g.size());
    expect_planned_matches_value(g, 6);
  }
}

TEST(Multipole, LivePlansShareOneBudget) {
  // A plan over a grid larger than the budget takes all of it; plans built
  // while it (or the plan it was moved into) is alive get what is left,
  // less than one of its points, and the budget is whole again once it is
  // destroyed.
  const grid::MolecularGrid big = grid::build_molecular_grid(
      molecules::water_cluster(6), grid::GridSettings{});
  grid::GridSettings s;
  s.n_radial = 16;
  s.angular_order = 7;
  const grid::MolecularGrid small =
      grid::build_molecular_grid(molecules::water(), s);
  const MultipoleSolver big_solver(big, 6);
  const MultipoleSolver small_solver(small, 6);
  std::size_t covered = 0;
  {
    GridPlan first = big_solver.make_plan();
    covered = first.n_points();
    ASSERT_GT(covered, 0u);
    ASSERT_LT(covered, big.size());
    EXPECT_EQ(big_solver.make_plan().n_points(), 0u);
    const GridPlan moved = std::move(first);
    EXPECT_EQ(moved.n_points(), covered);
    EXPECT_EQ(big_solver.make_plan().n_points(), 0u);
    EXPECT_LT(small_solver.make_plan().n_points(), small.size());
  }
  EXPECT_EQ(big_solver.make_plan().n_points(), covered);
  EXPECT_EQ(small_solver.make_plan().n_points(), small.size());
}

class MultipoleLmax : public ::testing::TestWithParam<int> {};

TEST_P(MultipoleLmax, ErrorDecreasesWithLmax) {
  // Convergence with lmax for an off-center source (property sweep).
  const int lmax = GetParam();
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, lmax);
  const Vec3 c{0.0, 0.0, 0.4};
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], c, 2.5);
  }
  const MultipolePotential pot = solver.solve(n);
  const Vec3 probe{0.0, 1.5, 1.0};
  const double err =
      std::abs(pot.value(probe) - gaussian_potential(probe, c, 2.5));
  // Tolerance tightens with lmax.
  const double tol = (lmax <= 2) ? 0.05 : (lmax <= 4 ? 0.01 : 3e-3);
  EXPECT_LT(err, tol) << "lmax=" << lmax;
}

INSTANTIATE_TEST_SUITE_P(Orders, MultipoleLmax, ::testing::Values(2, 4, 6, 8));

}  // namespace
}  // namespace swraman::hartree
// -- appended property coverage.

namespace swraman::hartree {
namespace {

TEST(Multipole, SolverIsLinearInTheDensity) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n1(g.size());
  std::vector<double> n2(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n1[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.0);
    n2[p] = gaussian_density(g.points[p], {0, 0, 0.3}, 2.0);
  }
  std::vector<double> combo(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    combo[p] = 2.0 * n1[p] - 0.5 * n2[p];
  }
  const MultipolePotential pa = solver.solve(n1);
  const MultipolePotential pb = solver.solve(n2);
  const MultipolePotential pc = solver.solve(combo);
  // Exactly linear up to the channel noise-floor filter (the |rho| <
  // 1e-10 max threshold in the solver is deliberately nonlinear).
  for (const Vec3& r : {Vec3{0.5, 0.2, 1.0}, Vec3{2.0, -1.0, 0.0}}) {
    EXPECT_NEAR(pc.value(r), 2.0 * pa.value(r) - 0.5 * pb.value(r), 1e-8);
  }
  EXPECT_NEAR(pc.total_charge(),
              2.0 * pa.total_charge() - 0.5 * pb.total_charge(), 1e-8);
}

TEST(Multipole, ZeroDensityGivesZeroPotential) {
  const std::vector<grid::AtomSite> atoms = {{1, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  const MultipolePotential pot =
      solver.solve(std::vector<double>(g.size(), 0.0));
  EXPECT_DOUBLE_EQ(pot.total_charge(), 0.0);
  EXPECT_DOUBLE_EQ(pot.value({1.0, 1.0, 1.0}), 0.0);
}

// value() is the atom-ordered sum of value_atom() on both sides of each
// atom's outer radius — equal up to rounding, since value() keeps one
// running sum across atoms — and its thread-local and caller-workspace
// forms agree bit for bit. outer_radius() is the atom's outermost shell.
TEST(Multipole, ValueIsAtomOrderedSumOfValueAtom) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.8}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.3) +
           gaussian_density(g.points[p], {0, 0, 1.8}, 0.9);
  }
  const MultipolePotential pot = solver.solve(n);
  ASSERT_EQ(pot.n_atoms(), 2u);

  std::vector<Vec3> pts = {{0.0, 0.0, 0.0}, {0.0, 0.0, 1.8},
                           {0.3, -0.2, 0.7}, {2.0, 1.0, -1.0}};
  for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
    double outer = 0.0;
    for (const grid::ShellInfo& sh : g.shells) {
      if (static_cast<std::size_t>(sh.atom) == a) {
        outer = std::max(outer, sh.radius);
      }
    }
    EXPECT_EQ(pot.outer_radius(a), outer) << "atom " << a;
    EXPECT_EQ((pot.centers()[a] - atoms[a].pos).norm(), 0.0);
    for (double f : {0.999, 1.0, 1.001, 3.0}) {
      pts.push_back(pot.centers()[a] + Vec3{0.6, 0.0, 0.8} * (f * outer));
    }
  }
  MultipolePotential::Workspace ws;
  for (const Vec3& p : pts) {
    double sum = 0.0;
    for (std::size_t a = 0; a < pot.n_atoms(); ++a) {
      sum += pot.value_atom(a, p, ws);
    }
    EXPECT_NEAR(pot.value(p, ws), sum, 1e-14 * (1.0 + std::abs(sum)));
    EXPECT_EQ(pot.value(p), pot.value(p, ws));
  }
}

// Inside the outer radius an atom's potential comes from its spline rows,
// beyond it from the analytic multipole far field. For a density that the
// shells contain, the two must meet at the outer radius.
TEST(Multipole, SplineMeetsFarFieldAtOuterRadius) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}}};
  const grid::MolecularGrid g = make_grid(atoms);
  const MultipoleSolver solver(g, 4);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.2);
  }
  const MultipolePotential pot = solver.solve(n);
  const double outer = pot.outer_radius(0);
  ASSERT_GT(outer, 5.0);
  const Vec3 dir = Vec3{1.0, -2.0, 2.0} / 3.0;
  const double inside = pot.value(dir * (outer * (1.0 - 1e-12)));
  const double beyond = pot.value(dir * (outer * (1.0 + 1e-12)));
  EXPECT_NEAR(inside, beyond, 1e-5 / outer);
  EXPECT_NEAR(inside, 1.0 / outer, 1e-4 / outer);
}

}  // namespace
}  // namespace swraman::hartree

// Counting global operator new: the per-point evaluation micro-regression
// below pins the workspace hoisting (no heap traffic per value() call on
// the hot Hartree evaluation path). Counting only; allocation behavior is
// unchanged, so the rest of the binary is unaffected.
namespace {
std::atomic<std::size_t> g_allocation_count{0};

// noinline keeps GCC's new/delete pairing analysis from flagging the
// malloc/free backing as mismatched across inlined call sites.
[[gnu::noinline]] void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
[[gnu::noinline]] void counted_release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { counted_release(p); }
void operator delete(void* p, std::size_t) noexcept { counted_release(p); }
void operator delete[](void* p) noexcept { counted_release(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_release(p); }

namespace swraman::hartree {
namespace {

TEST(Multipole, ValueDoesNotAllocatePerPoint) {
  const std::vector<grid::AtomSite> atoms = {{8, {0.0, 0.0, 0.0}},
                                             {1, {0.0, 0.0, 1.8}}};
  const grid::MolecularGrid g = make_grid(atoms, grid::GridLevel::Light);
  const MultipoleSolver solver(g, 6);
  std::vector<double> n(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    n[p] = gaussian_density(g.points[p], {0, 0, 0}, 1.2);
  }
  const MultipolePotential pot = solver.solve(n);

  // First calls size the (thread_local / explicit) workspaces.
  MultipolePotential::Workspace ws;
  double acc = pot.value({1.0, 0.5, -0.3}) + pot.value({1.0, 0.5, -0.3}, ws);

  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    const Vec3 r{0.3 + 0.02 * i, -0.7, 0.4};
    acc += pot.value(r);
    acc += pot.value(r, ws);
    acc += pot.value_atom(0, r, ws);
  }
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), before)
      << "per-point evaluation must not touch the heap (acc=" << acc << ")";
}

}  // namespace
}  // namespace swraman::hartree
