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

  atoms_.resize(grid_.atoms.size());
  for (std::size_t s = 0; s < grid_.shells.size(); ++s) {
    atoms_[static_cast<std::size_t>(grid_.shells[s].atom)].shells.push_back(s);
  }
  std::size_t max_shells = 0;
  for (AtomKnots& kn : atoms_) {
    std::sort(kn.shells.begin(), kn.shells.end(),
              [this](std::size_t a, std::size_t b) {
                return grid_.shells[a].radius < grid_.shells[b].radius;
              });
    const std::size_t ns = kn.shells.size();
    if (ns == 0) continue;
    SWRAMAN_REQUIRE(ns >= 2, "MultipoleSolver: an atom needs two shells");
    int max_order = 0;
    for (std::size_t s : kn.shells) {
      kn.radii.push_back(grid_.shells[s].radius);
      max_order = std::max(max_order, grid_.shells[s].angular_order);
    }
    // The projection in solve() caps each shell at l = order/2.
    kn.l_live = std::min(lmax_, max_order / 2);
    l_plan_ = std::max(l_plan_, kn.l_live);
    max_shells = std::max(max_shells, ns);

    const std::vector<double>& x = kn.radii;
    for (std::size_t i = 0; i + 1 < ns; ++i) {
      SWRAMAN_REQUIRE(x[i + 1] > x[i],
                      "MultipoleSolver: shell radii must increase");
      const double h = x[i + 1] - x[i];
      kn.h.push_back(h);
      kn.h3.push_back(h * h * h);
    }
    // solve_tridiagonal's forward elimination on natural_second_derivatives'
    // bands, which depend on the knots only. The sub-diagonal is h[j] / 6;
    // its entry 0 couples to the boundary and is never read.
    if (ns >= 3) {
      const std::size_t n = ns - 2;
      kn.elim_b.resize(n);
      kn.elim_c.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        kn.elim_b[j] = (kn.h[j] + kn.h[j + 1]) / 3.0;
        kn.elim_c[j] = kn.h[j + 1] / 6.0;
      }
      kn.elim_c[n - 1] = 0.0;
      kn.elim_m.assign(n, 0.0);
      for (std::size_t j = 1; j < n; ++j) {
        kn.elim_m[j] = kn.h[j] / 6.0 / kn.elim_b[j - 1];
        kn.elim_b[j] -= kn.elim_m[j] * kn.elim_c[j - 1];
      }
    }
    for (int l = 0; l <= kn.l_live; ++l) {
      for (std::size_t s = 0; s < ns; ++s) {
        kn.pow_lt.push_back(std::pow(x[s], l + 2));
        kn.pow_gt.push_back(std::pow(x[s], 1 - l));
        kn.pow_out.push_back(std::pow(x[s], l + 1));
        kn.pow_in.push_back(std::pow(x[s], l));
      }
      kn.pow_inner.push_back(std::pow(x[0], l + 3));
    }
  }
  plan_stride_ = grid::n_lm(l_plan_);
  // solve(): the projected density [lm][s] of the widest atom, then six
  // per-channel rows of ns (see there).
  scratch_size_ = (grid::n_lm(l_plan_) + 6) * max_shells;
}

void MultipoleSolver::AtomKnots::second_derivatives(const double* y,
                                                    double* y2) const {
  const std::size_t ns = radii.size();
  y2[0] = 0.0;
  y2[ns - 1] = 0.0;
  if (ns < 3) return;
  // solve_tridiagonal on the interior knots, in place in y2[1..ns-2].
  const std::size_t n = ns - 2;
  for (std::size_t j = 0; j < n; ++j) {
    y2[j + 1] = (y[j + 2] - y[j + 1]) / h[j + 1] - (y[j + 1] - y[j]) / h[j];
  }
  for (std::size_t j = 1; j < n; ++j) y2[j + 1] -= elim_m[j] * y2[j];
  y2[n] /= elim_b[n - 1];
  for (std::size_t j = n - 1; j-- > 0;) {
    y2[j + 1] = (y2[j + 1] - elim_c[j] * y2[j + 2]) / elim_b[j];
  }
}

void MultipoleSolver::AtomKnots::cumulative(const double* y, double* y2,
                                            double* cum) const {
  second_derivatives(y, y2);
  cum[0] = 0.0;
  for (std::size_t i = 0; i + 1 < radii.size(); ++i) {
    cum[i + 1] = cum[i] + h[i] * (y[i] + y[i + 1]) / 2.0 -
                 h3[i] * (y2[i] + y2[i + 1]) / 24.0;
  }
}

void GridPlan::BudgetShare::release() noexcept {
  if (bytes_ != 0) g_plan_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
  bytes_ = 0;
}

GridPlan MultipoleSolver::make_plan() const {
  SWRAMAN_TRACE_SPAN(span, "hartree.plan");
  const std::size_t n_atoms = grid_.atoms.size();
  const std::size_t point_bytes =
      n_atoms * (sizeof(GridPlan::Pair) + plan_stride_ * sizeof(double));
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
  plan.ylm_.resize(plan.n_points_ * n_atoms * plan_stride_);

  std::vector<double> y;
  grid::YlmWorkspace ws;
  for (std::size_t p = 0; p < plan.n_points_; ++p) {
    for (std::size_t a = 0; a < n_atoms; ++a) {
      const std::size_t k = p * n_atoms + a;
      const Vec3 d = grid_.points[p] - grid_.atoms[a].pos;
      GridPlan::Pair& pair = plan.pairs_[k];
      pair.r = pair_radius(d);
      const std::vector<double>& knots = atoms_[a].radii;
      if (!knots.empty()) pair.w = pair_bracket(knots, pair.r);
      grid::real_ylm(d, l_plan_, y, ws);
      std::copy(y.begin(), y.end(),
                plan.ylm_.begin() + static_cast<long>(k * plan_stride_));
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

  std::vector<double> scratch(scratch_size_);
  std::vector<double> y_point;
  grid::YlmWorkspace ylm_ws;
  std::size_t channels = 0;
  for (std::size_t a = 0; a < n_atoms; ++a) {
    pot.centers_[a] = grid_.atoms[a].pos;
    const AtomKnots& kn = atoms_[a];
    const std::size_t ns = kn.shells.size();
    if (ns == 0) continue;
    const std::size_t n_live = grid::n_lm(kn.l_live);
    channels += n_live;

    // Project the partitioned density onto Y_lm on each shell.
    // rho[lm * ns + s]
    double* rho = scratch.data();
    std::fill(rho, rho + n_live * ns, 0.0);
    for (std::size_t si = 0; si < ns; ++si) {
      const grid::ShellInfo& sh = grid_.shells[kn.shells[si]];
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
          y = &plan->ylm_[(p * n_atoms + owner) * plan_stride_];
        } else {
          grid::real_ylm(grid_.points[p] - grid_.atoms[owner].pos, kn.l_live,
                         y_point, ylm_ws);
          y = y_point.data();
        }
        for (std::size_t lm = 0; lm < lm_cap; ++lm) {
          rho[lm * ns + si] += f * y[lm];
        }
      }
    }

    MultipolePotential::AtomSplines& tab = pot.splines_[a];
    tab.knots = kn.radii;
    tab.l_live = kn.l_live;
    tab.values.resize(ns * n_live);
    tab.second.resize(ns * n_live);

    // Radial Green's-function integrals per live lm channel, exact spline
    // integration over the shell radii (+ analytic inner-sphere term).
    double* rl = rho + n_live * ns;  // the channel's density
    double* f = rl + ns;             // a Green's-function integrand
    double* y2 = f + ns;             // its spline second derivatives
    double* ilt = y2 + ns;
    double* igt = ilt + ns;
    double* v_r = igt + ns;
    for (int l = 0; l <= kn.l_live; ++l) {
      const std::size_t row = static_cast<std::size_t>(l) * ns;
      const double* r_lt = &kn.pow_lt[row];
      const double* r_gt = &kn.pow_gt[row];
      const double* r_out = &kn.pow_out[row];
      const double* r_in = &kn.pow_in[row];
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
          rl[s] = (std::abs(v) < 1e-10 * chmax) ? 0.0 : v;
        }

        // I<(r_k) = integral_0^{r_k} rho s^{l+2} ds: spline integration of
        // the tabulated integrand plus the analytic inner-sphere term
        // (rho ~ const below the first shell).
        for (std::size_t s = 0; s < ns; ++s) f[s] = rl[s] * r_lt[s];
        kn.cumulative(f, y2, ilt);
        const double inner =
            rl[0] * kn.pow_inner[static_cast<std::size_t>(l)] /
            static_cast<double>(l + 3);
        for (std::size_t s = 0; s < ns; ++s) ilt[s] += inner;
        // I>(r_k) = integral_{r_k}^{rmax} rho s^{1-l} ds.
        for (std::size_t s = 0; s < ns; ++s) f[s] = rl[s] * r_gt[s];
        kn.cumulative(f, y2, igt);
        const double igt_total = igt[ns - 1];
        for (std::size_t s = 0; s < ns; ++s) igt[s] = igt_total - igt[s];

        const double pref = kFourPi / (2.0 * l + 1.0);
        for (std::size_t s = 0; s < ns; ++s) {
          v_r[s] = pref * (ilt[s] / r_out[s] + igt[s] * r_in[s]);
        }
        pot.moments_[a][lm] = ilt[ns - 1];
        kn.second_derivatives(v_r, y2);
        for (std::size_t s = 0; s < ns; ++s) {
          tab.values[s * n_live + lm] = v_r[s];
          tab.second[s * n_live + lm] = y2[s];
        }
      }
    }
  }
  if (span.active()) span.attr("channels", static_cast<double>(channels));
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
  std::vector<double> terms(plan_stride_);
  for (std::size_t p = 0; p < plan.n_points_; ++p) {
    double vp = 0.0;
    for (std::size_t a = 0; a < n_atoms; ++a) {
      const std::size_t k = p * n_atoms + a;
      const GridPlan::Pair& pair = plan.pairs_[k];
      const std::size_t n = pot.pair_terms(
          a, pair.w, pair.r, &plan.ylm_[k * plan_stride_], terms.data());
      for (std::size_t lm = 0; lm < n; ++lm) vp += terms[lm];
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
  grid::real_ylm(d, tab.l_live, ws.ylm, ws.ylm_scratch);
  ws.terms.resize(ws.ylm.size());
  pair_terms(atom, pair_bracket(tab.knots, r), r, ws.ylm.data(),
             ws.terms.data());
  for (const double t : ws.terms) v += t;
}

std::size_t MultipolePotential::pair_terms(std::size_t atom,
                                           const SplineWeights& w, double r,
                                           const double* y,
                                           double* terms) const {
  const AtomSplines& tab = splines_[atom];
  if (tab.knots.empty()) return 0;
  const std::size_t n_lm = grid::n_lm(tab.l_live);
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
    for (int l = 0; l <= tab.l_live; ++l) {
      const double pref = kFourPi / (2.0 * l + 1.0) / rpow;
      for (int m = -l; m <= l; ++m, ++lm) {
        terms[lm] = pref * q[lm] * y[lm];
      }
      rpow *= r;
    }
  }
  return n_lm;
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
