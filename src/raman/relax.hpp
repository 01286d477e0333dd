#pragma once

#include <vector>

#include "scf/scf_engine.hpp"

// Geometry relaxation by BFGS over finite-difference gradients of the SCF
// total energy. Harmonic analysis (and hence Raman frequencies) is only
// meaningful at a stationary point of the *calculated* potential-energy
// surface — each basis backend has its own minimum, so the paper's
// cross-code comparisons (Figs. 11, 19) relax per backend before the
// Hessian, exactly as production codes do.

namespace swraman::raman {

struct RelaxOptions {
  scf::ScfOptions scf;
  double gradient_step = 0.005;   // Bohr, central-difference step
  double force_tol = 2e-3;        // Ha/Bohr, max |gradient component|
  int max_iterations = 60;
  double max_displacement = 0.25; // Bohr, trust-radius cap per step
};

struct RelaxResult {
  std::vector<grid::AtomSite> atoms;
  double energy = 0.0;            // Ha at the final geometry
  double max_force = 0.0;         // Ha/Bohr
  int iterations = 0;
  bool converged = false;
};

// Finite-difference gradient of the SCF energy (3N components, Ha/Bohr):
// its 6N displaced SCFs are solved by scf_energies on n_ranks ranks,
// bitwise the same for any rank count.
std::vector<double> energy_gradient(const std::vector<grid::AtomSite>& atoms,
                                    const scf::ScfOptions& options,
                                    double step, std::size_t n_ranks);

// BFGS relaxation from the given starting structure; each gradient runs on
// parallel::host_ranks() ranks.
RelaxResult relax_geometry(std::vector<grid::AtomSite> atoms,
                           const RelaxOptions& options = {});

}  // namespace swraman::raman
