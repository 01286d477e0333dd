#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "grid/atom_grid.hpp"
#include "hartree/multipole.hpp"

// Drop-in Hartree far-field backend (DESIGN.md S16). HartreeContext owns
// the Delley MultipoleSolver and decides how the solved potential is
// evaluated back onto the grid:
//
//   Direct — MultipoleSolver::solve_on_grid verbatim: every atom's spline
//            channels / analytic multipoles summed per grid point, bitwise
//            identical to the pre-FMM code path.
//   Fmm    — octree fast multipole: atom moments are translated up a
//            Morton octree over atom centers (P2M/M2M), exchanged between
//            well-separated cells of a second octree over grid points
//            (M2L, CPE-offloaded), pushed down to target leaves (L2L), and
//            evaluated (L2P) together with the exact near field (P2P,
//            CPE-offloaded, arithmetic identical to Direct per near atom).
//   Auto   — cost-model crossover: the geometry-static interaction lists
//            price both paths in modeled flops and the cheaper one runs.
//
// Trees and interaction lists depend only on the geometry, so they are
// built once per context (on first use, race-free) and reused by every SCF
// / DFPT solve. A context is shared const across threads (serve workers
// use one engine's context concurrently): solving writes no shared state
// beyond that one-time build and the tracked error bound.

namespace swraman::fmm {

enum class HartreeBackend { Direct, Fmm, Auto };

struct FmmOptions {
  int order = 8;          // expansion truncation p
  double theta = 0.55;    // multipole acceptance criterion, in (0, 1)
  std::size_t source_leaf_size = 8;    // atoms per source leaf
  std::size_t target_leaf_size = 64;   // grid points per target leaf
  bool use_cpe = true;    // run M2L / P2P on the CPE cluster model
  // Accumulate the analytic per-leaf truncation bound during evaluation
  // (tests / diagnostics; adds one bound evaluation per M2L pair).
  bool track_error_bound = false;
};

// Introspection of a context: its tree geometry, the Auto decision, and
// the error bound of its latest tracked tree evaluation.
struct FmmStats {
  std::size_t n_source_cells = 0;
  std::size_t n_target_cells = 0;
  std::size_t n_m2l_pairs = 0;
  std::size_t n_p2p_pairs = 0;
  double direct_flops = 0.0;  // modeled dense-evaluation cost
  double fmm_flops = 0.0;     // modeled tree-evaluation cost
  // Max over target leaves of the summed analytic M2L truncation bounds
  // (only filled under FmmOptions::track_error_bound).
  double max_error_bound = 0.0;
  HartreeBackend resolved = HartreeBackend::Direct;  // what actually ran
};

class HartreeContext {
 public:
  HartreeContext(const grid::MolecularGrid& grid, int lmax,
                 HartreeBackend backend, FmmOptions options);
  ~HartreeContext();
  HartreeContext(const HartreeContext&) = delete;
  HartreeContext& operator=(const HartreeContext&) = delete;

  // The grid plan an iterative loop (SCF, DFPT) holds across its
  // solve_on_grid calls: the Direct solver's plan, or a plan covering no
  // points when the tree evaluates.
  [[nodiscard]] hartree::GridPlan make_plan() const;

  // Poisson solve + evaluation on every grid point through the selected
  // backend. Direct delegates to MultipoleSolver::solve_on_grid verbatim.
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density) const;
  [[nodiscard]] std::vector<double> solve_on_grid(
      const std::vector<double>& density,
      const hartree::GridPlan& plan) const;

  // Tree evaluation of an already-solved potential (bench / test entry;
  // ignores the configured backend).
  [[nodiscard]] std::vector<double> fmm_on_grid(
      const hartree::MultipolePotential& potential) const;

  // The wrapped Delley solver (CSI-table construction, lmax, ...).
  [[nodiscard]] const hartree::MultipoleSolver& solver() const {
    return solver_;
  }
  [[nodiscard]] HartreeBackend backend() const { return backend_; }
  [[nodiscard]] const FmmOptions& fmm_options() const { return options_; }
  // The backend this context evaluates with, its geometry-static tree
  // counts and cost model (not filled under Direct), and the truncation
  // bound of its most recent tracked tree evaluation.
  [[nodiscard]] FmmStats stats() const;

 private:
  struct Geometry;
  // Trees + interaction lists, built once on first use (geometry-static).
  const Geometry& geometry() const;
  [[nodiscard]] std::unique_ptr<const Geometry> build_geometry() const;
  [[nodiscard]] HartreeBackend resolve_backend() const;

  const grid::MolecularGrid& grid_;
  hartree::MultipoleSolver solver_;
  HartreeBackend backend_;
  FmmOptions options_;
  mutable std::once_flag geo_once_;
  mutable std::unique_ptr<const Geometry> geo_;
  mutable std::atomic<double> max_error_bound_{0.0};
};

}  // namespace swraman::fmm
