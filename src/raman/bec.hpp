#pragma once

#include <array>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "raman/raman.hpp"
#include "raman/vibrations.hpp"
#include "scf/forces.hpp"

// Born-effective-charge fast tier (RASCBEC, Zhang et al., arXiv
// 2303.10228): Raman activities from finite-field Hellmann-Feynman
// forces instead of 6N displaced-geometry DFPT runs. Expanding the force
// on coordinate k in the applied field,
//
//   F_k(E) = F_k(0) + sum_a Z*_{k,a} E_a
//          + 1/2 sum_ab (d alpha_ab / dR_k) E_a E_b + O(E^3),
//
// the Maxwell relations of U(R, E) give Z*_{k,a} = dF_k/dE_a = dmu_a/dR_k
// (the Born effective charge) and d^2 F_k / dE_a dE_b = d alpha_ab / dR_k
// — exactly the derivative tensors the paper's Eq. 5 contraction needs,
// from O(1) field calculations instead of O(N) displacements.
//
// The stencil is 13 SCF solves at fixed geometry: the zero field, +/- E
// along each axis (first derivatives + diagonal second derivatives), and
// +/- E along each axis pair (cross second derivatives):
//
//   idx 0        : E = 0
//   idx 1+2a     : +E e_a          (a = 0, 1, 2)
//   idx 2+2a     : -E e_a
//   idx 7, 8     : +/- E (e_x+e_y)
//   idx 9, 10    : +/- E (e_y+e_z)
//   idx 11, 12   : +/- E (e_z+e_x)
//
// Directions are stored as integer triples scaled by the field strength,
// so symmetry transforms of a field map exactly onto another stencil
// vector (the serve tier's cache-key folding relies on this).
//
// Accuracy envelope: the forces are displaced-Lagrangian central
// differences (scf/forces.hpp) — exact for the implemented energy
// surface, Pulay and quadrature-motion terms included, up to one caveat:
// the multipole Hartree kernel is not self-adjoint (source-side Becke
// partition + angular projection vs plain field-side evaluation), so the
// SCF fixed point is stationary only up to the kernel's truncation
// error. That error vanishes with grid/lmax refinement: on the golden
// water grid (n_radial 28, angular_order 13) the derivative tensors
// agree with full DFPT at the 1-3% level; coarse plumbing-test grids are
// qualitative only. The translation sum rule (sum_A d alpha/dR_{A,c} = 0,
// sum_A dmu/dR_{A,c} = 0 for a neutral molecule) removes the rigid part
// of the residual; BecOptions::enforce_sum_rule projects it out by
// subtracting the per-direction atomic mean. Frequencies come from the
// same energy Hessian as the full pipeline and match it near-exactly;
// activity tolerances are documented in DESIGN.md §15.

namespace swraman::raman {

struct BecOptions {
  VibrationOptions vibrations;
  // Finite field strength, atomic units. 1e-2 balances the quadratic
  // stencil's truncation error against the force noise floor set by
  // ScfOptions::density_tol.
  double field_strength = 1e-2;
  double mode_floor_cm = 100.0;
  // Translation-sum-rule projection of the derivative tensors (removes
  // the rigid part of the missing Pulay terms). On by default; exposed
  // so tests can measure the raw Hellmann-Feynman error.
  bool enforce_sum_rule = true;
  // Checkpoint file for the field loop (same format as the displacement
  // checkpoint; field records are keyed (stencil index, sign 0) and the
  // header displacement slot carries the field strength). Each field
  // point is retried up to kDefaultTaskAttempts times.
  std::string checkpoint_path;
};

// Number of field points in the stencil (13).
int n_field_points();

// Integer direction triple of stencil point idx (entries in {-1, 0, +1}).
std::array<int, 3> field_direction(int idx);

// Physical field vector of stencil point idx at the given strength.
Vec3 field_vector(int idx, double strength);

// Differentiates the 13 field records (records[i] = stencil point i, with
// .forces of length n_coords and .dipole filled) into the paper's Eq. 5
// inputs: dalpha (n_coords x 9, d alpha_ab / dR_k) and dmu (n_coords x 3,
// dmu_a/dR_k = Z*_{k,a}). Pure arithmetic on the records — the serve
// tier's assemble task and BecCalculator share this one implementation so
// the two paths agree bitwise.
void bec_derivatives(const std::vector<GeometryRecord>& records,
                     double field_strength, std::size_t n_coords,
                     bool enforce_sum_rule, linalg::Matrix* dalpha,
                     linalg::Matrix* dmu);

// Equilibrium polarizability from the axis field records alone:
// alpha_ab = [mu_a(+E e_b) - mu_a(-E e_b)] / 2E. Pulay-free (the dipole
// is a pure density expectation value), so it validates the field
// machinery against DFPT independently of the force approximation.
linalg::Matrix finite_field_polarizability(
    const std::vector<GeometryRecord>& records, double field_strength);

// The finite-field SCF of stencil point `idx`: the ground state at `atoms`
// under field_vector(idx, strength). Throws ConvergenceError when the SCF
// does not converge.
scf::GroundState field_scf(const std::vector<grid::AtomSite>& atoms,
                           const scf::ScfOptions& scf_options,
                           double strength, int idx);

// The record of a converged field state: its forces at `field` from
// `forces` (built for the same atoms and field-free options) and its SCF
// dipole.
GeometryRecord field_record(const scf::GroundState& gs, const Vec3& field,
                            const scf::ForceEvaluator& forces);

// One field point of the stencil as serve's RealEngine runs it:
// field_record of field_scf. Throws ConvergenceError when the SCF does not
// converge.
GeometryRecord field_point(const std::vector<grid::AtomSite>& atoms,
                           const scf::ScfOptions& scf_options,
                           double strength, int idx,
                           const scf::ForceEvaluator& forces);

// The bec-tier calculator: same external contract as RamanCalculator
// (compute() returns a RamanSpectrum reusing the vibrations + assembly +
// broadening pipeline) but step 2 costs 13 SCF solves total instead of
// 6N SCF+DFPT runs.
class BecCalculator {
 public:
  BecCalculator(std::vector<grid::AtomSite> atoms, BecOptions options);

  // Full pipeline: Hessian, modes, 13-point field loop, Eq. 5 assembly.
  [[nodiscard]] RamanSpectrum compute();

  // d(alpha)/dR (3N x 9) from the field stencil (step 2 alone). Also
  // fills dipole_derivatives().
  [[nodiscard]] linalg::Matrix polarizability_derivatives();

  // d(mu)/dR = Z* (3N x 3), valid after polarizability_derivatives().
  [[nodiscard]] const linalg::Matrix& dipole_derivatives() const {
    return dmu_;
  }

  // Evaluates (or replays from the checkpoint) all 13 field records. The
  // missing points' field SCFs run as parallel::host_ranks() ranks and
  // keep their ground states; then, only if some point missed, one
  // ForceEvaluator is built (its 6N displaced engines are
  // field-independent) and the forces are evaluated and committed on the
  // calling thread in stencil order — concurrent force evaluations would
  // raise the peak memory. Bitwise the same for any rank count. A field
  // SCF that does not converge throws ConvergenceError once the retries
  // are spent.
  [[nodiscard]] std::vector<GeometryRecord> field_records();

  // Finite-field force evaluations committed by this calculator
  // (checkpointed field points skipped on resume do not count).
  [[nodiscard]] int n_field_forces() const { return n_field_forces_; }

 private:
  std::vector<grid::AtomSite> atoms_;
  BecOptions options_;
  linalg::Matrix dmu_;
  int n_field_forces_ = 0;
};

}  // namespace swraman::raman
