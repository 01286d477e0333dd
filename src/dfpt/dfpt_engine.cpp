#include "dfpt/dfpt_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::dfpt {

namespace {

// max_abs() cannot flag blow-ups: std::max drops NaN comparisons, so a
// poisoned matrix can masquerade as converged. Scan explicitly.
bool has_non_finite(const linalg::Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(m(i, j))) return true;
    }
  }
  return false;
}

}  // namespace

DfptEngine::DfptEngine(const scf::ScfEngine& scf,
                       const scf::GroundState& ground_state,
                       DfptOptions options)
    : scf_(scf), gs_(ground_state), options_(options) {
  SWRAMAN_REQUIRE(gs_.converged, "DfptEngine: ground state not converged");
  // Pipelined setup: axis k's cross-rank reduction runs while axis k+1's
  // local integration executes, and the ground-state density reduction
  // overlaps all three dipole waits.
  std::function<void()> wait_dipole[3];
  for (int axis = 0; axis < 3; ++axis) {
    wait_dipole[axis] = scf_.dipole_matrix_async(
        axis, &dipole_[static_cast<std::size_t>(axis)]);
  }
  std::vector<double> n;
  const std::function<void()> wait_n =
      scf_.density_on_grid_async(gs_.density, &n);
  for (auto& wait : wait_dipole) wait();
  wait_n();
  // XC response kernel at the ground-state density.
  fxc_.resize(n.size());
  for (std::size_t p = 0; p < n.size(); ++p) {
    fxc_[p] = xc::evaluate(scf_.options().functional, n[p]).f;
  }
}

ResponseResult DfptEngine::solve_response(int axis) {
  return solve_response(axis, scf_.hartree().make_plan());
}

ResponseResult DfptEngine::solve_response(int axis,
                                          const hartree::GridPlan& plan) {
  SWRAMAN_REQUIRE(axis >= 0 && axis < 3, "solve_response: axis in [0,3)");
  SWRAMAN_TRACE_SPAN(span, "dfpt.response");
  obs::count("dfpt.response.solves");
  if (span.active()) span.attr("axis", static_cast<double>(axis));
  const int attempts = std::max(1, options_.recovery_attempts);
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    bool diverged = false;
    ResponseResult res =
        solve_response_attempt(axis, attempt, plan, &diverged);
    if (!diverged) {
      if (span.active()) {
        span.attr("iterations", static_cast<double>(res.iterations));
        span.attr("converged", res.converged ? 1.0 : 0.0);
      }
      return res;
    }
    obs::count("dfpt.recoveries");
    if (attempt < attempts) {
      log::warn("dfpt.recovery: axis ", axis, " response diverged (attempt ",
                attempt, "/", attempts, ") — halving mixing to ",
                options_.mixing / static_cast<double>(1 << attempt),
                ", flushing DIIS history, restarting cycle");
    }
  }
  throw ConvergenceError("DfptEngine::solve_response: axis " +
                         std::to_string(axis) + " diverged in all " +
                         std::to_string(attempts) + " recovery attempts");
}

ResponseResult DfptEngine::solve_response_attempt(
    int axis, int attempt, const hartree::GridPlan& plan, bool* diverged) {
  *diverged = false;
  const double mixing =
      options_.mixing / static_cast<double>(1 << (attempt - 1));
  const std::size_t nbf = scf_.basis().size();
  const linalg::Matrix& d = dipole_[static_cast<std::size_t>(axis)];
  const linalg::Matrix& c = gs_.coefficients;
  const std::size_t nmo = gs_.eigenvalues.size();

  // Occupied / virtual partition from the smeared occupations. States in
  // the smearing tail are treated as fully occupied or empty; the smearing
  // is small enough for gapped systems.
  std::vector<std::size_t> occ;
  std::vector<std::size_t> vir;
  for (std::size_t j = 0; j < nmo; ++j) {
    if (gs_.occupations[j] > 1.0) {
      occ.push_back(j);
    } else if (gs_.occupations[j] < 1e-6) {
      vir.push_back(j);
    }
  }
  SWRAMAN_REQUIRE(!occ.empty(), "solve_response: no occupied states");
  SWRAMAN_REQUIRE(!vir.empty(), "solve_response: no virtual states");

  ResponseResult res;
  res.p1 = linalg::Matrix(nbf, nbf);
  linalg::Matrix h1 = d;  // first cycle: bare perturbation

  // Occupied/virtual coefficient blocks are iteration-invariant.
  linalg::Matrix c_vir(nbf, vir.size());
  for (std::size_t a = 0; a < vir.size(); ++a) {
    for (std::size_t mu = 0; mu < nbf; ++mu) {
      c_vir(mu, a) = c(mu, vir[a]);
    }
  }
  linalg::Matrix c_occ(nbf, occ.size());
  for (std::size_t i = 0; i < occ.size(); ++i) {
    for (std::size_t mu = 0; mu < nbf; ++mu) {
      c_occ(mu, i) = c(mu, occ[i]);
    }
  }

  std::deque<linalg::Matrix> hist_p;
  std::deque<linalg::Matrix> hist_r;
  Timer timer;

  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    SWRAMAN_TRACE_SPAN(iter_span, "dfpt.iter");
    res.iterations = iter;
    ++times_.cycles;
    obs::count("dfpt.iterations");

    // --- Sternheimer / CPKS update in matrix form:
    //   U_ai = f_i G_ai / (eps_i - eps_a),  W = C_vir U,
    //   P1 = W C_occ^T + C_occ W^T.
    timer.reset();
    linalg::Matrix p1_new;
    {
      SWRAMAN_TRACE_SCOPE("dfpt.sternheimer");
      const linalg::Matrix g = linalg::at_b(c, h1 * c);
      const double omega = options_.frequency;
      linalg::Matrix u(vir.size(), occ.size());
      for (std::size_t a = 0; a < vir.size(); ++a) {
        for (std::size_t i = 0; i < occ.size(); ++i) {
          const double delta =
              gs_.eigenvalues[occ[i]] - gs_.eigenvalues[vir[a]];
          // Static: 1/delta. Dynamic: delta/(delta^2 - omega^2), the
          // symmetric (cos wt) response amplitude of real orbitals.
          const double denom2 = delta * delta - omega * omega;
          if (std::abs(delta) < 1e-8 || std::abs(denom2) < 1e-10) continue;
          u(a, i) =
              g(vir[a], occ[i]) * delta / denom2 * gs_.occupations[occ[i]];
        }
      }
      const linalg::Matrix w = c_vir * u;
      p1_new = linalg::a_bt(w, c_occ);
      p1_new += p1_new.transposed();
    }
    times_.sternheimer += timer.seconds();

    if (fault::should_fire(fault::kDfptDiverge)) {
      log::warn("fault ", fault::kDfptDiverge,
                ": poisoning response density at axis ", axis, " iter ",
                iter);
      p1_new(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }

    const double dp = (p1_new - res.p1).max_abs();
    if (iter_span.active()) {
      iter_span.attr("dp", dp);
      obs::observe("dfpt.sternheimer.residual", dp);
    }
    if (!std::isfinite(dp) || has_non_finite(p1_new)) {
      log::warn("dfpt: non-finite response step at axis ", axis, " iter ",
                iter, " — aborting cycle for recovery");
      *diverged = true;
      return res;
    }

    // DIIS on the response density matrix.
    hist_p.push_back(p1_new);
    {
      linalg::Matrix r = p1_new - res.p1;
      hist_r.push_back(std::move(r));
    }
    if (static_cast<int>(hist_p.size()) > options_.diis_depth) {
      hist_p.pop_front();
      hist_r.pop_front();
    }
    const std::size_t m = hist_p.size();
    bool extrapolated = false;
    if (m >= 2) {
      linalg::Matrix b(m + 1, m + 1);
      std::vector<double> rhs(m + 1, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          b(i, j) = linalg::trace_product(hist_r[i], hist_r[j].transposed());
        }
        b(i, m) = -1.0;
        b(m, i) = -1.0;
      }
      rhs[m] = -1.0;
      const linalg::Lu lu(b);
      if (!lu.singular()) {
        linalg::Matrix mix(nbf, nbf);
        const std::vector<double> coef = lu.solve(rhs);
        for (std::size_t i = 0; i < m; ++i) {
          linalg::Matrix term = hist_p[i];
          term *= coef[i];
          mix += term;
        }
        res.p1 = std::move(mix);
        extrapolated = true;
      }
    }
    if (!extrapolated) {
      linalg::Matrix mix = res.p1;
      mix *= (1.0 - mixing);
      linalg::Matrix add = p1_new;
      add *= mixing;
      mix += add;
      res.p1 = std::move(mix);
    }

    if (dp < options_.tol) {
      res.converged = true;
      break;
    }

    // --- Kernel n1: response density on the grid.
    timer.reset();
    std::vector<double> n1;
    {
      SWRAMAN_TRACE_SCOPE("dfpt.n1");
      n1 = scf_.density_on_grid(res.p1);
    }
    times_.n1 += timer.seconds();

    // --- Kernel V1: response potential (multipole Poisson + fxc n1).
    timer.reset();
    std::vector<double> v1;
    {
      SWRAMAN_TRACE_SCOPE("dfpt.v1");
      v1 = scf_.hartree().solve_on_grid(n1, plan);
      for (std::size_t p = 0; p < v1.size(); ++p) {
        v1[p] += fxc_[p] * n1[p];
      }
    }
    times_.v1 += timer.seconds();

    // --- Kernel H1: response Hamiltonian. The matrix-element reduction is
    // started first; rebuilding h1 from the bare perturbation overlaps it.
    timer.reset();
    {
      SWRAMAN_TRACE_SCOPE("dfpt.h1");
      linalg::Matrix m1;
      const std::function<void()> wait_m1 =
          scf_.integrate_matrix_async(v1, &m1);
      h1 = d;
      wait_m1();
      h1 += m1;
    }
    times_.h1 += timer.seconds();

    log::debug("DFPT axis ", axis, " iter ", iter, ": dP1 = ", dp);
  }
  return res;
}

linalg::Matrix DfptEngine::polarizability() {
  SWRAMAN_TRACE_SCOPE("dfpt.polarizability");
  linalg::Matrix alpha(3, 3);
  const hartree::GridPlan plan = scf_.hartree().make_plan();
  for (int j = 0; j < 3; ++j) {
    const ResponseResult res = solve_response(j, plan);
    if (!res.converged) {
      throw ConvergenceError(
          "polarizability: DFPT did not converge for axis " +
          std::to_string(j));
    }
    for (int i = 0; i < 3; ++i) {
      alpha(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
          -linalg::trace_product(res.p1,
                                 dipole_[static_cast<std::size_t>(i)]);
    }
  }
  alpha.symmetrize();
  return alpha;
}

linalg::Matrix DfptEngine::polarizability_at_frequency(double omega) {
  SWRAMAN_REQUIRE(omega >= 0.0, "polarizability_at_frequency: omega >= 0");
  const double saved = options_.frequency;
  options_.frequency = omega;
  linalg::Matrix alpha = polarizability();
  options_.frequency = saved;
  return alpha;
}

double DfptEngine::isotropic(const linalg::Matrix& alpha) {
  return alpha.trace() / 3.0;
}

linalg::Matrix DfptEngine::dielectric_tensor(const linalg::Matrix& alpha,
                                             double volume) {
  SWRAMAN_REQUIRE(volume > 0.0, "dielectric_tensor: volume > 0");
  linalg::Matrix eps = linalg::Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      eps(i, j) += kFourPi / volume * alpha(i, j);
  return eps;
}

}  // namespace swraman::dfpt
