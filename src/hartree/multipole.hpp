#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/spline.hpp"
#include "common/vec3.hpp"
#include "grid/atom_grid.hpp"
#include "grid/ylm.hpp"

// Multipole electrostatics after Delley (J. Phys. Chem. 100, 6107 (1996)) —
// the real-space Poisson solver of the paper (Sec. 3.2, "kernel1"). The
// Becke-partitioned density is projected onto real spherical harmonics on
// each atom's radial shells,
//
//   rho^a_lm(r_s) = sum_{angular points} w_ang Y_lm(u) p_a(x) n(x),
//
// each (a, lm) channel is solved by the radial Green's function,
//
//   V_lm(r) = 4pi/(2l+1) [ r^-(l+1) I<(r) + r^l I>(r) ],
//
// the channels are natural-cubic-splined over the shell radii and stored as
// structure-of-arrays [knot][lm] rows (the CSI tables of the paper's
// Algorithm 2), and the molecular potential is the sum over atoms with
// analytic multipole far fields.
//
// Evaluating the potential back on the grid needs, per (point, atom) pair,
// Y_lm(point - atom), the pair's spline interval and weights, and r. None
// of these depend on the density, so an iterative loop on a fixed grid
// (an SCF solve, a DFPT polarizability) builds one GridPlan holding them
// and passes it to every solve_on_grid call; like Algorithm 2, only the
// density-dependent spline rows change between calls. The plan lives only
// as long as that loop: solvers and their HartreeContexts are shared
// const across threads (the force evaluator's sibling engines), so they
// hold no caches. The plans alive in the process at one time share
// kPlanBudgetBytes, however many threads build them (SCF ranks, serve
// workers): a plan takes what is left of the budget when it is built and
// hands it back when it is destroyed, and points beyond its share are
// evaluated by value(). One-shot calls (forces, kernel1, value()) build no
// plan.

namespace swraman::hartree {

// The solved potential: per-atom radial spline tables over all lm channels
// plus far-field multipole moments.
class MultipolePotential {
 public:
  // Reusable per-thread scratch for point evaluation: the real-Y_lm basis
  // buffer (and the Legendre scratch inside real_ylm) and the per-channel
  // terms that value() would otherwise heap-allocate per call. Callers on
  // hot loops (kernel1, the FMM P2P kernel) hold one per thread.
  struct Workspace {
    std::vector<double> ylm;
    grid::YlmWorkspace ylm_scratch;
    std::vector<double> terms;
  };

  // Potential value at an arbitrary point. Uses a thread-local Workspace;
  // allocation-free after the first call on each thread.
  [[nodiscard]] double value(const Vec3& point) const;

  // Same, with a caller-provided workspace (no thread-local lookup).
  [[nodiscard]] double value(const Vec3& point, Workspace& ws) const;

  // Contribution of a single atom to the potential at `point`: the radial
  // spline channels inside the atom's outer radius (one interval lookup,
  // then CubicSpline's value expression per channel), the analytic
  // multipole far field beyond it. value() is the atom-ordered sum of
  // these terms, equal up to rounding (it keeps one running sum across
  // atoms rather than adding per-atom partial sums); the FMM near field
  // (P2P) evaluates the same expression so that near-pair arithmetic is
  // identical between backends.
  [[nodiscard]] double value_atom(std::size_t atom, const Vec3& point,
                                  Workspace& ws) const;

  [[nodiscard]] std::size_t n_atoms() const { return centers_.size(); }

  // Total charge seen by the far field (sum of the l=0 moments); equals the
  // integrated density when the grid resolves it.
  [[nodiscard]] double total_charge() const;

  [[nodiscard]] int lmax() const { return lmax_; }

  // Multipole moment q_lm of atom a (flat lm index), defined as
  // integral rho_lm s^{l+2} ds.
  [[nodiscard]] double moment(std::size_t atom, std::size_t lm) const;

  // Atom centers, and the radius of each atom's outermost shell: the
  // spline channels cover r <= outer_radius, the far field the rest.
  [[nodiscard]] const std::vector<Vec3>& centers() const { return centers_; }
  [[nodiscard]] double outer_radius(std::size_t atom) const {
    return splines_[atom].knots.empty() ? 0.0 : splines_[atom].knots.back();
  }

 private:
  friend class MultipoleSolver;
  // One atom's natural-spline tables over its shell radii, structure of
  // arrays: row k holds every lm channel at knot k, so one interval lookup
  // serves all channels.
  struct AtomSplines {
    std::vector<double> knots;   // shell radii, ascending
    std::vector<double> values;  // [knot][lm]: V_lm(r_k)
    std::vector<double> second;  // [knot][lm]: V_lm''(r_k)
  };
  void accumulate_atom(std::size_t atom, const Vec3& point, Workspace& ws,
                       double& v) const;
  // The per-pair arithmetic every evaluation path shares: writes atom's
  // n_lm channel terms at distance r with harmonics y into terms — spline
  // channels (bracket w) for r inside the outer radius, the analytic far
  // field beyond it. Callers add the terms to their sum in lm order.
  // Returns false for an atom without shells (no terms).
  bool pair_terms(std::size_t atom, const SplineWeights& w, double r,
                  const double* y, double* terms) const;
  int lmax_ = 0;
  std::vector<Vec3> centers_;
  std::vector<AtomSplines> splines_;          // per atom
  std::vector<std::vector<double>> moments_;  // [atom][lm]
};

class MultipoleSolver;

// Geometry-static evaluation plan of one MultipoleSolver's grid (see the
// file comment): for the first n_points() grid points and every atom,
// Y_lm(point - atom), the pair's SplineWeights over the atom's shell radii,
// and r. A default-constructed plan covers no points. Move-only: it holds
// a share of the process-wide plan budget until it is destroyed.
class GridPlan {
 public:
  [[nodiscard]] std::size_t n_points() const { return n_points_; }

 private:
  friend class MultipoleSolver;
  struct Pair {
    SplineWeights w;  // set only for r inside the atom's outer radius
    double r = 0.0;
  };
  // Bytes of MultipoleSolver::kPlanBudgetBytes this plan holds.
  class BudgetShare {
   public:
    BudgetShare() = default;
    explicit BudgetShare(std::size_t bytes) : bytes_(bytes) {}
    BudgetShare(BudgetShare&& other) noexcept
        : bytes_(std::exchange(other.bytes_, 0)) {}
    BudgetShare& operator=(BudgetShare&& other) noexcept {
      if (this != &other) {
        release();
        bytes_ = std::exchange(other.bytes_, 0);
      }
      return *this;
    }
    ~BudgetShare() { release(); }

   private:
    void release() noexcept;
    std::size_t bytes_ = 0;
  };
  const MultipoleSolver* solver_ = nullptr;
  std::size_t n_points_ = 0;
  BudgetShare share_;
  std::vector<Pair> pairs_;  // [point][atom]
  std::vector<double> ylm_;  // [point][atom][lm]
};

class MultipoleSolver {
 public:
  // Memory cap of all GridPlans alive in the process together. A plan
  // covers the leading grid points whose (point, atom) pairs fit in what
  // the other live plans leave; golden water (984 points, 3 atoms, lmax 6)
  // needs 1.3 MB.
  static constexpr std::size_t kPlanBudgetBytes = std::size_t{64} << 20;

  // The grid must retain its shell structure (grid.shells non-empty).
  MultipoleSolver(const grid::MolecularGrid& grid, int lmax = 6);

  // Solves Poisson for the density given at the grid points. The Y_lm
  // projection reads the owner-atom rows of `plan` for the points it
  // covers and evaluates the rest on the fly; results are bitwise the same
  // either way.
  [[nodiscard]] MultipolePotential solve(const std::vector<double>& density,
                                         const GridPlan* plan = nullptr) const;

  // Builds the plan for an iterative loop over this solver's grid, within
  // the share of kPlanBudgetBytes the live plans leave free.
  [[nodiscard]] GridPlan make_plan() const;

  // Convenience: potential evaluated back on every grid point. Points the
  // plan covers read their pairs from it; the rest go through value().
  // Bitwise equal to value() at every point, with or without a plan.
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density) const;
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density, const GridPlan& plan) const;

  [[nodiscard]] int lmax() const { return lmax_; }

 private:
  [[nodiscard]] std::vector<double> shell_radii(std::size_t atom) const;

  const grid::MolecularGrid& grid_;
  int lmax_;
  std::size_t n_lm_ = 0;
  // Shells grouped per atom, ascending radius.
  std::vector<std::vector<std::size_t>> shells_of_atom_;
};

}  // namespace swraman::hartree
