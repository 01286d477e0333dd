#include "raman/relax.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "parallel/comm.hpp"
#include "raman/vibrations.hpp"

namespace swraman::raman {

namespace {

std::vector<grid::AtomSite> displaced_all(
    const std::vector<grid::AtomSite>& atoms, const std::vector<double>& dx) {
  std::vector<grid::AtomSite> moved = atoms;
  for (std::size_t c = 0; c < dx.size(); ++c) {
    moved = grid::displaced(std::move(moved), c, dx[c]);
  }
  return moved;
}

}  // namespace

std::vector<double> energy_gradient(const std::vector<grid::AtomSite>& atoms,
                                    const scf::ScfOptions& options,
                                    double step, std::size_t n_ranks) {
  SWRAMAN_TRACE_SCOPE("relax.gradient");
  const std::size_t n = 3 * atoms.size();
  std::vector<std::vector<grid::AtomSite>> points;
  points.reserve(2 * n);
  for (std::size_t c = 0; c < n; ++c) {
    points.push_back(grid::displaced(atoms, c, step));
    points.push_back(grid::displaced(atoms, c, -step));
  }
  const std::vector<double> e = scf_energies(points, options, nullptr, n_ranks);
  std::vector<double> g(n);
  for (std::size_t c = 0; c < n; ++c) {
    g[c] = (e[2 * c] - e[2 * c + 1]) / (2.0 * step);
  }
  return g;
}

RelaxResult relax_geometry(std::vector<grid::AtomSite> atoms,
                           const RelaxOptions& options) {
  SWRAMAN_REQUIRE(!atoms.empty(), "relax_geometry: no atoms");
  SWRAMAN_TRACE_SPAN(span, "relax");
  if (span.active()) span.attr("atoms", static_cast<double>(atoms.size()));
  const std::size_t n = 3 * atoms.size();

  RelaxResult res;
  res.atoms = std::move(atoms);
  res.energy = converged_scf(res.atoms, options.scf).total_energy;

  // Inverse-Hessian estimate, started from a typical stretch stiffness.
  linalg::Matrix h_inv = linalg::Matrix::identity(n);
  h_inv *= 1.0 / 0.6;

  const std::size_t ranks = parallel::host_ranks();
  std::vector<double> g =
      energy_gradient(res.atoms, options.scf, options.gradient_step, ranks);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    SWRAMAN_TRACE_SPAN(iter_span, "relax.iter");
    res.iterations = iter;
    obs::count("relax.iterations");
    res.max_force = 0.0;
    for (double v : g) res.max_force = std::max(res.max_force, std::abs(v));
    if (res.max_force < options.force_tol) {
      res.converged = true;
      break;
    }

    // Step p = -H_inv g, capped to the trust radius.
    std::vector<double> p = linalg::matvec(h_inv, g);
    double pmax = 0.0;
    for (double& v : p) {
      v = -v;
      pmax = std::max(pmax, std::abs(v));
    }
    if (pmax > options.max_displacement) {
      const double scale = options.max_displacement / pmax;
      for (double& v : p) v *= scale;
    }

    // Backtracking: halve until the energy decreases.
    double e_new = 0.0;
    std::vector<grid::AtomSite> trial;
    double scale = 1.0;
    for (int bt = 0; bt < 6; ++bt) {
      std::vector<double> step(n);
      for (std::size_t c = 0; c < n; ++c) step[c] = scale * p[c];
      trial = displaced_all(res.atoms, step);
      e_new = converged_scf(trial, options.scf).total_energy;
      if (e_new < res.energy + 1e-10) break;
      scale *= 0.5;
    }
    if (e_new >= res.energy + 1e-10) {
      // No descent direction found: accept convergence at current forces.
      break;
    }
    std::vector<double> s(n);
    for (std::size_t c = 0; c < n; ++c) s[c] = scale * p[c];

    const std::vector<double> g_new =
        energy_gradient(trial, options.scf, options.gradient_step, ranks);

    // BFGS update of the inverse Hessian: standard two-rank formula with
    // curvature guard.
    std::vector<double> y(n);
    double sy = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      y[c] = g_new[c] - g[c];
      sy += s[c] * y[c];
    }
    if (sy > 1e-10) {
      const std::vector<double> hy = linalg::matvec(h_inv, y);
      double yhy = 0.0;
      for (std::size_t c = 0; c < n; ++c) yhy += y[c] * hy[c];
      const double f1 = (sy + yhy) / (sy * sy);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = 0; b < n; ++b) {
          h_inv(a, b) += f1 * s[a] * s[b] -
                         (hy[a] * s[b] + s[a] * hy[b]) / sy;
        }
      }
    }

    res.atoms = std::move(trial);
    res.energy = e_new;
    g = g_new;
    if (iter_span.active()) iter_span.attr("max_force", res.max_force);
    log::debug("relax iter ", iter, ": E = ", res.energy,
               " max|F| = ", res.max_force);
  }

  res.max_force = 0.0;
  for (double v : g) res.max_force = std::max(res.max_force, std::abs(v));
  if (res.max_force < options.force_tol) res.converged = true;
  return res;
}

}  // namespace swraman::raman
