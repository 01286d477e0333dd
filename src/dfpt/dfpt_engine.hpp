#pragma once

#include <array>

#include "linalg/matrix.hpp"
#include "scf/scf_engine.hpp"

// Density-functional perturbation theory for homogeneous electric fields
// (paper Sec. 2.3, Fig. 2): the self-consistent Sternheimer / coupled-
// perturbed Kohn-Sham cycle
//
//   P(1) -> n(1)(r) -> v(1) = v_H[n(1)] + f_xc n(1) -> H(1) -> P(1)
//
// iterated to self-consistency with DIIS acceleration, yielding the
// polarizability tensor alpha_ij = -Tr(P(1)_j D_i) (Eq. 4) and the
// dielectric constant (Eq. 11). The three grid kernels — response density
// (n1), response potential (V1), response Hamiltonian (H1) — are exactly
// the hotspots the paper ports to the Sunway CPEs; their per-cycle times
// are tracked for the Fig. 13/14 benchmarks.

namespace swraman::dfpt {

struct DfptOptions {
  double tol = 1e-7;        // max |P1_out - P1_in|
  int max_iterations = 50;
  int diis_depth = 8;
  double mixing = 0.6;      // linear mixing before DIIS history builds
  // Perturbation frequency (Hartree). 0 = static response; omega > 0 gives
  // the dynamic polarizability alpha(omega) of adiabatic-LDA linear
  // response (denominators (eps_i - eps_a) / ((eps_i - eps_a)^2 - omega^2)).
  double frequency = 0.0;
  // Automatic divergence recovery, mirroring ScfOptions: a non-finite
  // response-density step aborts the cycle, the mixing is halved, the DIIS
  // history flushed, and the cycle restarted — up to this many attempts
  // before ConvergenceError is thrown.
  int recovery_attempts = 3;
};

struct KernelTimes {
  double n1 = 0.0;           // response density, seconds
  double v1 = 0.0;           // response potential (multipole Poisson + fxc)
  double h1 = 0.0;           // response Hamiltonian integration
  double sternheimer = 0.0;  // MO-space update (U matrix, P1 assembly)
  int cycles = 0;            // accumulated DFPT iterations

  [[nodiscard]] double total() const { return n1 + v1 + h1 + sternheimer; }
};

struct ResponseResult {
  linalg::Matrix p1;    // first-order density matrix
  bool converged = false;
  int iterations = 0;
};

class DfptEngine {
 public:
  DfptEngine(const scf::ScfEngine& scf, const scf::GroundState& ground_state,
             DfptOptions options = {});

  // Self-consistent first-order response to a unit field along `axis`
  // (perturbation v_ext(1) = +r_axis, matching ScfOptions::electric_field).
  // Divergence (non-finite response step) triggers automatic recovery per
  // DfptOptions::recovery_attempts; throws ConvergenceError when every
  // attempt diverged. Plain non-convergence still returns converged=false.
  ResponseResult solve_response(int axis);

  // Full polarizability tensor (3 response calculations, symmetrized).
  [[nodiscard]] linalg::Matrix polarizability();

  // Dynamic polarizability at the given frequency (Hartree); must stay
  // below the first KS excitation gap for the response to converge.
  [[nodiscard]] linalg::Matrix polarizability_at_frequency(double omega);

  // Isotropic polarizability 1/3 tr(alpha).
  static double isotropic(const linalg::Matrix& alpha);

  // Dielectric constant from Eq. 11 for a (cluster-equivalent) volume.
  static linalg::Matrix dielectric_tensor(const linalg::Matrix& alpha,
                                          double volume);

  [[nodiscard]] const KernelTimes& kernel_times() const { return times_; }

 private:
  // solve_response with the caller's Hartree grid plan (polarizability
  // holds one across its three axes).
  ResponseResult solve_response(int axis, const hartree::GridPlan& plan);

  // One full response cycle. `attempt` (1-based) halves the linear mixing
  // per retry; the DIIS history is local to the attempt, so a restart
  // flushes it. Sets *diverged when non-finite numbers aborted the cycle.
  ResponseResult solve_response_attempt(int axis, int attempt,
                                        const hartree::GridPlan& plan,
                                        bool* diverged);

  const scf::ScfEngine& scf_;
  const scf::GroundState& gs_;
  DfptOptions options_;
  std::array<linalg::Matrix, 3> dipole_;  // dipole integrals per axis
  std::vector<double> fxc_;               // XC kernel at the GS density
  KernelTimes times_;
};

}  // namespace swraman::dfpt
