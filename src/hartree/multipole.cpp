#include "hartree/multipole.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "grid/ylm.hpp"
#include "obs/obs.hpp"

namespace swraman::hartree {

namespace {

// The distance of a (point, atom) pair, kept off the nucleus, and its
// spline bracket over the atom's shell radii (left default beyond the
// outer radius, where the far field applies). Every evaluation path, the
// plan included, derives a pair's geometry through these two.
double pair_radius(const Vec3& d) { return std::max(d.norm(), 1e-8); }

// Bytes held by the live GridPlans of the process.
std::atomic<std::size_t> g_plan_bytes{0};

// Takes whole points' worth of bytes, up to `want`, from what is left of
// the budget; returns the bytes taken.
std::size_t take_plan_bytes(std::size_t want, std::size_t point_bytes) {
  std::size_t used = g_plan_bytes.load(std::memory_order_relaxed);
  for (;;) {
    const std::size_t free =
        used < MultipoleSolver::kPlanBudgetBytes
            ? MultipoleSolver::kPlanBudgetBytes - used
            : 0;
    const std::size_t take =
        std::min(want, free / point_bytes * point_bytes);
    if (g_plan_bytes.compare_exchange_weak(used, used + take,
                                           std::memory_order_relaxed)) {
      return take;
    }
  }
}

SplineWeights pair_bracket(const std::vector<double>& knots, double r) {
  return r <= knots.back() ? SplineWeights(knots, r) : SplineWeights{};
}

}  // namespace

MultipoleSolver::MultipoleSolver(const grid::MolecularGrid& grid, int lmax)
    : grid_(grid), lmax_(lmax) {
  SWRAMAN_REQUIRE(lmax >= 0, "MultipoleSolver: lmax >= 0");
  SWRAMAN_REQUIRE(!grid.shells.empty(),
                  "MultipoleSolver: grid lacks shell structure");
  n_lm_ = grid::n_lm(lmax_);

  shells_of_atom_.resize(grid_.atoms.size());
  for (std::size_t s = 0; s < grid_.shells.size(); ++s) {
    shells_of_atom_[static_cast<std::size_t>(grid_.shells[s].atom)].push_back(s);
  }
  for (auto& list : shells_of_atom_) {
    std::sort(list.begin(), list.end(), [this](std::size_t a, std::size_t b) {
      return grid_.shells[a].radius < grid_.shells[b].radius;
    });
  }
}

std::vector<double> MultipoleSolver::shell_radii(std::size_t atom) const {
  std::vector<double> radii;
  radii.reserve(shells_of_atom_[atom].size());
  for (std::size_t s : shells_of_atom_[atom]) {
    radii.push_back(grid_.shells[s].radius);
  }
  return radii;
}

void GridPlan::BudgetShare::release() noexcept {
  if (bytes_ != 0) g_plan_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
  bytes_ = 0;
}

GridPlan MultipoleSolver::make_plan() const {
  SWRAMAN_TRACE_SPAN(span, "hartree.plan");
  const std::size_t n_atoms = grid_.atoms.size();
  const std::size_t point_bytes =
      n_atoms * (sizeof(GridPlan::Pair) + n_lm_ * sizeof(double));
  GridPlan plan;
  plan.solver_ = this;
  if (point_bytes == 0) {
    plan.n_points_ = grid_.size();
  } else {
    const std::size_t bytes =
        take_plan_bytes(grid_.size() * point_bytes, point_bytes);
    plan.share_ = GridPlan::BudgetShare(bytes);
    plan.n_points_ = bytes / point_bytes;
  }
  plan.pairs_.resize(plan.n_points_ * n_atoms);
  plan.ylm_.resize(plan.n_points_ * n_atoms * n_lm_);

  std::vector<std::vector<double>> knots(n_atoms);
  for (std::size_t a = 0; a < n_atoms; ++a) knots[a] = shell_radii(a);
  std::vector<double> y;
  grid::YlmWorkspace ws;
  for (std::size_t p = 0; p < plan.n_points_; ++p) {
    for (std::size_t a = 0; a < n_atoms; ++a) {
      const std::size_t k = p * n_atoms + a;
      const Vec3 d = grid_.points[p] - grid_.atoms[a].pos;
      GridPlan::Pair& pair = plan.pairs_[k];
      pair.r = pair_radius(d);
      if (!knots[a].empty()) pair.w = pair_bracket(knots[a], pair.r);
      grid::real_ylm(d, lmax_, y, ws);
      std::copy(y.begin(), y.end(),
                plan.ylm_.begin() + static_cast<long>(k * n_lm_));
    }
  }
  if (span.active()) {
    span.attr("points", static_cast<double>(plan.n_points_));
    span.attr("bytes", static_cast<double>(plan.n_points_ * point_bytes));
  }
  return plan;
}

MultipolePotential MultipoleSolver::solve(const std::vector<double>& density,
                                          const GridPlan* plan) const {
  SWRAMAN_REQUIRE(density.size() == grid_.size(),
                  "MultipoleSolver::solve: density size mismatch");
  const std::size_t n_planned = plan != nullptr ? plan->n_points_ : 0;
  SWRAMAN_REQUIRE(n_planned == 0 || plan->solver_ == this,
                  "MultipoleSolver::solve: plan of another solver");
  SWRAMAN_TRACE_SPAN(span, "hartree.multipole");
  const std::size_t n_atoms = grid_.atoms.size();
  if (span.active()) {
    span.attr("atoms", static_cast<double>(n_atoms));
    span.attr("lmax", static_cast<double>(lmax_));
  }

  MultipolePotential pot;
  pot.lmax_ = lmax_;
  pot.centers_.resize(n_atoms);
  pot.splines_.resize(n_atoms);
  pot.moments_.assign(n_atoms, std::vector<double>(n_lm_, 0.0));

  std::vector<double> y_point;
  grid::YlmWorkspace ylm_ws;
  for (std::size_t a = 0; a < n_atoms; ++a) {
    pot.centers_[a] = grid_.atoms[a].pos;
    const std::vector<std::size_t>& shells = shells_of_atom_[a];
    if (shells.empty()) continue;
    const std::size_t ns = shells.size();

    // Project the partitioned density onto Y_lm on each shell.
    const std::vector<double> radii = shell_radii(a);
    // rho[lm * ns + s]
    std::vector<double> rho(n_lm_ * ns, 0.0);
    for (std::size_t si = 0; si < ns; ++si) {
      const grid::ShellInfo& sh = grid_.shells[shells[si]];
      // A shell's angular rule resolves the Y_l * Y_l product only up to
      // l = order/2; projecting beyond that aliases order-one garbage into
      // the channel (pruned inner shells have low-order rules). Density is
      // nearly spherical there, so truncating is the physical choice.
      const std::size_t lm_cap =
          std::min(n_lm_, grid::n_lm(sh.angular_order / 2));
      for (std::size_t k = 0; k < sh.n_points; ++k) {
        const std::size_t p = sh.first_point + k;
        const double f =
            grid_.angular_weight[p] * grid_.partition[p] * density[p];
        if (f == 0.0) continue;
        // Y_lm relative to the point's owner atom: the plan's row when it
        // covers the point, evaluated here otherwise.
        const std::size_t owner =
            static_cast<std::size_t>(grid_.owner_atom[p]);
        const double* y = nullptr;
        if (p < n_planned) {
          y = &plan->ylm_[(p * n_atoms + owner) * n_lm_];
        } else {
          grid::real_ylm(grid_.points[p] - grid_.atoms[owner].pos, lmax_,
                         y_point, ylm_ws);
          y = y_point.data();
        }
        for (std::size_t lm = 0; lm < lm_cap; ++lm) {
          rho[lm * ns + si] += f * y[lm];
        }
      }
    }

    MultipolePotential::AtomSplines& tab = pot.splines_[a];
    tab.knots = radii;
    tab.values.assign(ns * n_lm_, 0.0);
    tab.second.assign(ns * n_lm_, 0.0);

    // Radial Green's-function integrals per lm channel, exact spline
    // integration over the shell radii (+ analytic inner-sphere term).
    std::vector<double> v_r(ns);
    std::vector<double> rho_ch(ns);
    for (int l = 0; l <= lmax_; ++l) {
      for (int m = -l; m <= l; ++m) {
        const std::size_t lm = grid::lm_index(l, m);
        // Physical channels vanish like s^l at the nucleus; angular
        // quadrature roundoff does not, and the s^{1-l} Green's-function
        // factor would amplify it catastrophically. Zero everything below
        // the channel's noise floor.
        double chmax = 0.0;
        for (std::size_t s = 0; s < ns; ++s) {
          chmax = std::max(chmax, std::abs(rho[lm * ns + s]));
        }
        for (std::size_t s = 0; s < ns; ++s) {
          const double v = rho[lm * ns + s];
          rho_ch[s] = (std::abs(v) < 1e-10 * chmax) ? 0.0 : v;
        }
        const double* rl = rho_ch.data();

        // I<(r_k) = integral_0^{r_k} rho s^{l+2} ds: spline integration of
        // the tabulated integrand plus the analytic inner-sphere term
        // (rho ~ const below the first shell).
        std::vector<double> f_lt(ns);
        std::vector<double> f_gt(ns);
        for (std::size_t s = 0; s < ns; ++s) {
          f_lt[s] = rl[s] * std::pow(radii[s], l + 2);
          f_gt[s] = rl[s] * std::pow(radii[s], 1 - l);
        }
        std::vector<double> ilt =
            CubicSpline(radii, f_lt).cumulative_at_knots();
        const double inner =
            rl[0] * std::pow(radii[0], l + 3) / static_cast<double>(l + 3);
        for (double& v : ilt) v += inner;
        // I>(r_k) = integral_{r_k}^{rmax} rho s^{1-l} ds.
        std::vector<double> igt =
            CubicSpline(radii, f_gt).cumulative_at_knots();
        const double igt_total = igt.back();
        for (double& v : igt) v = igt_total - v;

        const double pref = kFourPi / (2.0 * l + 1.0);
        for (std::size_t s = 0; s < ns; ++s) {
          v_r[s] = pref * (ilt[s] / std::pow(radii[s], l + 1) +
                           igt[s] * std::pow(radii[s], l));
        }
        pot.moments_[a][lm] = ilt[ns - 1];
        const std::vector<double> v2 = natural_second_derivatives(radii, v_r);
        for (std::size_t s = 0; s < ns; ++s) {
          tab.values[s * n_lm_ + lm] = v_r[s];
          tab.second[s * n_lm_ + lm] = v2[s];
        }
      }
    }
  }
  return pot;
}

std::vector<double> MultipoleSolver::solve_on_grid(
    const std::vector<double>& density) const {
  return solve_on_grid(density, GridPlan{});
}

std::vector<double> MultipoleSolver::solve_on_grid(
    const std::vector<double>& density, const GridPlan& plan) const {
  SWRAMAN_TRACE_SCOPE("hartree.poisson");
  const MultipolePotential pot = solve(density, &plan);
  const std::size_t n_atoms = grid_.atoms.size();
  std::vector<double> v(grid_.size());
  // Planned points: the pair geometry is read, not recomputed; the terms
  // and the order they are summed in are value()'s.
  std::vector<double> terms(n_lm_);
  for (std::size_t p = 0; p < plan.n_points_; ++p) {
    double vp = 0.0;
    for (std::size_t a = 0; a < n_atoms; ++a) {
      const std::size_t k = p * n_atoms + a;
      const GridPlan::Pair& pair = plan.pairs_[k];
      if (!pot.pair_terms(a, pair.w, pair.r, &plan.ylm_[k * n_lm_],
                          terms.data())) {
        continue;
      }
      for (std::size_t lm = 0; lm < n_lm_; ++lm) vp += terms[lm];
    }
    v[p] = vp;
  }
  MultipolePotential::Workspace ws;
  for (std::size_t p = plan.n_points_; p < grid_.size(); ++p) {
    v[p] = pot.value(grid_.points[p], ws);
  }
  return v;
}

double MultipolePotential::value(const Vec3& point) const {
  // Thread-local scratch: the Y_lm basis buffer survives across calls, so
  // the per-grid-point evaluation loop performs no heap allocation (pinned
  // by Multipole.ValueDoesNotAllocatePerPoint).
  thread_local Workspace ws;
  return value(point, ws);
}

double MultipolePotential::value(const Vec3& point, Workspace& ws) const {
  // Terms accumulate into one running sum in atom order — the exact
  // floating-point chain of the original implementation, so Direct-backend
  // results are bitwise stable across the workspace refactor.
  double v = 0.0;
  for (std::size_t a = 0; a < centers_.size(); ++a) {
    accumulate_atom(a, point, ws, v);
  }
  return v;
}

double MultipolePotential::value_atom(std::size_t atom, const Vec3& point,
                                      Workspace& ws) const {
  double v = 0.0;
  accumulate_atom(atom, point, ws, v);
  return v;
}

void MultipolePotential::accumulate_atom(std::size_t atom, const Vec3& point,
                                         Workspace& ws, double& v) const {
  const AtomSplines& tab = splines_[atom];
  if (tab.knots.empty()) return;
  const Vec3 d = point - centers_[atom];
  const double r = pair_radius(d);
  grid::real_ylm(d, lmax_, ws.ylm, ws.ylm_scratch);
  ws.terms.resize(ws.ylm.size());
  pair_terms(atom, pair_bracket(tab.knots, r), r, ws.ylm.data(),
             ws.terms.data());
  for (const double t : ws.terms) v += t;
}

bool MultipolePotential::pair_terms(std::size_t atom, const SplineWeights& w,
                                    double r, const double* y,
                                    double* terms) const {
  const AtomSplines& tab = splines_[atom];
  if (tab.knots.empty()) return false;
  const std::size_t n_lm = grid::n_lm(lmax_);
  if (r <= tab.knots.back()) {
    // One interval lookup ("i_r_log" of Algorithm 2) serves every channel.
    // Below the first shell the first interval extrapolates, exactly as
    // CubicSpline::value does.
    const double* v0 = &tab.values[w.i * n_lm];
    const double* v1 = v0 + n_lm;
    const double* m0 = &tab.second[w.i * n_lm];
    const double* m1 = m0 + n_lm;
    for (std::size_t lm = 0; lm < n_lm; ++lm) {
      terms[lm] = w.value(v0[lm], v1[lm], m0[lm], m1[lm]) * y[lm];
    }
  } else {
    // Analytic multipole far field.
    const double* q = moments_[atom].data();
    double rpow = r;  // r^{l+1}
    std::size_t lm = 0;
    for (int l = 0; l <= lmax_; ++l) {
      const double pref = kFourPi / (2.0 * l + 1.0) / rpow;
      for (int m = -l; m <= l; ++m, ++lm) {
        terms[lm] = pref * q[lm] * y[lm];
      }
      rpow *= r;
    }
  }
  return true;
}

double MultipolePotential::total_charge() const {
  double q = 0.0;
  for (const std::vector<double>& m : moments_) {
    if (!m.empty()) q += m[0] * std::sqrt(kFourPi);
  }
  return q;
}

double MultipolePotential::moment(std::size_t atom, std::size_t lm) const {
  SWRAMAN_REQUIRE(atom < moments_.size() && lm < moments_[atom].size(),
                  "MultipolePotential::moment: index");
  return moments_[atom][lm];
}

}  // namespace swraman::hartree
