#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "scf/scf_engine.hpp"

// Harmonic vibrational analysis: Hessian by central finite differences of
// the SCF total energy, mass-weighted normal modes with rigid-body
// projection. Frequencies in cm^-1 feed the Raman pipeline (paper Eq. 5:
// polarizability derivatives are contracted with these phonon/normal-mode
// eigenvectors).

namespace swraman::raman {

struct VibrationOptions {
  scf::ScfOptions scf;
  double displacement = 0.01;  // Bohr, central-difference step
  bool project_rigid_body = true;
};

// Converged ground state of one geometry, restarted from `restart` when
// given. Throws ConvergenceError when the SCF does not converge.
scf::GroundState converged_scf(const std::vector<grid::AtomSite>& atoms,
                               const scf::ScfOptions& options,
                               const linalg::Matrix* restart = nullptr);

// Total energies of independent geometries (result k is geometries[k]'s),
// solved through parallel::for_each_point on n_ranks ranks — the paper's
// geometry sub-groups. Every SCF restarts from the read-only `restart` when
// given, so each energy is bitwise the same for any rank count. A point
// that does not converge throws ConvergenceError: the other ranks stop
// claiming points, and the error is rethrown here, with its type, once
// every rank has joined.
std::vector<double> scf_energies(
    const std::vector<std::vector<grid::AtomSite>>& geometries,
    const scf::ScfOptions& options, const linalg::Matrix* restart,
    std::size_t n_ranks);

// 3N x 3N Cartesian Hessian (Hartree / Bohr^2) by central finite
// differences of the total energy: 1 + 6N + 4*C(3N,2) SCF solutions. The
// equilibrium SCF runs first on the calling thread; the 6N + 4*C(3N,2)
// displaced points, each restarted from its density matrix, are solved by
// scf_energies on n_ranks ranks, and H is formed after the join with the
// serial formulas in the serial order — bitwise the same for any n_ranks.
linalg::Matrix energy_hessian(const std::vector<grid::AtomSite>& atoms,
                              const VibrationOptions& options,
                              std::size_t n_ranks);

struct NormalModes {
  // All 3N frequencies ascending; rigid-body modes near zero (imaginary
  // frequencies reported as negative values).
  std::vector<double> frequencies_cm;
  // Cartesian displacement vectors (3N x 3N, column p = mode p), normalized
  // in mass-weighted coordinates.
  linalg::Matrix cartesian_modes;
  // Reduced mass of each mode, amu.
  std::vector<double> reduced_masses_amu;
};

// Diagonalizes the mass-weighted Hessian; optionally projects out the three
// translations and three (two for linear molecules) rotations first.
NormalModes normal_modes(const std::vector<grid::AtomSite>& atoms,
                         const linalg::Matrix& hessian,
                         bool project_rigid_body = true);

}  // namespace swraman::raman
