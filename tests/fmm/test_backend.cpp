#include "fmm/backend.hpp"

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "core/molecules.hpp"
#include "grid/atom_grid.hpp"

// The drop-in contract of the FMM Hartree backend, on a real molecular
// grid: Direct is bitwise the plain solver, Fmm agrees with Direct within
// its own tracked analytic bound across the (order, theta) sweep, the CPE
// offload is arithmetically identical to the host path, and Auto follows
// the cost model.

namespace swraman::fmm {
namespace {

const grid::MolecularGrid& cluster_grid() {
  // Coarse radial mesh: the outer shell radius (~4 bohr here) is the
  // far-field validity reach, so a 27-molecule cluster already has plenty
  // of well-separated (M2L) cell pairs next to a substantial near field.
  static const grid::MolecularGrid g = [] {
    grid::GridSettings s;
    s.level = grid::GridLevel::Light;
    s.n_radial = 6;
    s.angular_order = 3;
    return grid::build_molecular_grid(molecules::water_cluster(27), s);
  }();
  return g;
}

// Superposition of per-atom normalized Gaussians scaled by Z — smooth,
// atom-centered, and multipole-rich enough to exercise every channel.
const std::vector<double>& cluster_density() {
  static const std::vector<double> n = [] {
    const grid::MolecularGrid& g = cluster_grid();
    std::vector<double> d(g.size(), 0.0);
    for (std::size_t p = 0; p < g.size(); ++p) {
      for (const grid::AtomSite& a : g.atoms) {
        const double ex = (a.z > 1) ? 1.8 : 0.9;
        d[p] += static_cast<double>(a.z) * std::pow(ex / kPi, 1.5) *
                std::exp(-ex * (g.points[p] - a.pos).norm2());
      }
    }
    return d;
  }();
  return n;
}

TEST(HartreeBackendDispatch, DirectIsBitwiseThePlainSolver) {
  const HartreeContext ctx(cluster_grid(), 6, HartreeBackend::Direct,
                           FmmOptions{});
  const std::vector<double> via_ctx = ctx.solve_on_grid(cluster_density());
  const std::vector<double> plain =
      ctx.solver().solve_on_grid(cluster_density());
  ASSERT_EQ(via_ctx.size(), plain.size());
  EXPECT_EQ(std::memcmp(via_ctx.data(), plain.data(),
                        plain.size() * sizeof(double)),
            0);
  EXPECT_EQ(ctx.stats().resolved, HartreeBackend::Direct);
}

struct SweepCase {
  int order;
  double theta;
};

class FmmVsDirect : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FmmVsDirect, AgreesWithinTheTrackedAnalyticBound) {
  const SweepCase sc = GetParam();
  const int lmax = std::min(sc.order, 6);
  FmmOptions opt;
  opt.order = sc.order;
  opt.theta = sc.theta;
  opt.track_error_bound = true;
  const HartreeContext ctx(cluster_grid(), lmax, HartreeBackend::Fmm, opt);

  const std::vector<double> direct =
      ctx.solver().solve_on_grid(cluster_density());
  const std::vector<double> fast = ctx.solve_on_grid(cluster_density());
  ASSERT_EQ(fast.size(), direct.size());

  double err = 0.0;
  double vmax = 0.0;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    err = std::max(err, std::abs(fast[i] - direct[i]));
    vmax = std::max(vmax, std::abs(direct[i]));
  }
  const FmmStats& st = ctx.stats();
  EXPECT_EQ(st.resolved, HartreeBackend::Fmm);
  EXPECT_GT(st.n_m2l_pairs, 0u);
  EXPECT_GT(st.n_p2p_pairs, 0u);
  // The observed far-field error must sit under the analytic truncation
  // bound (the whole point of threading p / theta through the bound)...
  EXPECT_GT(st.max_error_bound, 0.0);
  EXPECT_LE(err, st.max_error_bound + 1e-14);
  // ...and the accuracy must be usable, not vacuous. The slowest-decaying
  // contribution is the degree-lmax atom moments (error ~ theta^{p+1-l}),
  // so at p = 8 with lmax = 6 the relative error sits around 1e-5.
  if (sc.order >= 8) {
    EXPECT_LT(err, 1e-4 * vmax);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OrderThetaSweep, FmmVsDirect,
    ::testing::Values(SweepCase{4, 0.45}, SweepCase{4, 0.65},
                      SweepCase{6, 0.45}, SweepCase{6, 0.65},
                      SweepCase{8, 0.45}, SweepCase{8, 0.65}));

TEST(HartreeBackendDispatch, TrackedBoundTightensWithOrder) {
  double prev = 0.0;
  for (int p : {4, 8}) {
    FmmOptions opt;
    opt.order = p;
    opt.track_error_bound = true;
    const HartreeContext ctx(cluster_grid(), 4, HartreeBackend::Fmm, opt);
    (void)ctx.solve_on_grid(cluster_density());
    if (p == 4) {
      prev = ctx.stats().max_error_bound;
    } else {
      EXPECT_LT(ctx.stats().max_error_bound, prev);
    }
  }
}

TEST(HartreeBackendDispatch, CpeOffloadMatchesHostPathBitwise) {
  // The CPE lambdas run the same arithmetic in the same order as the host
  // fallback (LDM staging is memcpy); any divergence is a kernel bug.
  FmmOptions cpe;
  cpe.use_cpe = true;
  FmmOptions host;
  host.use_cpe = false;
  const HartreeContext a(cluster_grid(), 6, HartreeBackend::Fmm, cpe);
  const HartreeContext b(cluster_grid(), 6, HartreeBackend::Fmm, host);
  const std::vector<double> va = a.solve_on_grid(cluster_density());
  const std::vector<double> vb = b.solve_on_grid(cluster_density());
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0);
}

TEST(HartreeBackendDispatch, AutoFollowsTheCostModel) {
  const HartreeContext ctx(cluster_grid(), 6, HartreeBackend::Auto,
                           FmmOptions{});
  const std::vector<double> v = ctx.solve_on_grid(cluster_density());
  ASSERT_EQ(v.size(), cluster_grid().size());
  const FmmStats& st = ctx.stats();
  EXPECT_GT(st.direct_flops, 0.0);
  EXPECT_GT(st.fmm_flops, 0.0);
  const HartreeBackend expect = st.fmm_flops < st.direct_flops
                                    ? HartreeBackend::Fmm
                                    : HartreeBackend::Direct;
  EXPECT_EQ(st.resolved, expect);
}

// A context is shared const by concurrent serve workers: two threads
// solving on one context at once must each get the single-threaded result
// bit for bit (and, under TSan, race on nothing — the Auto/Fmm geometry is
// built by whichever thread gets there first).
TEST(HartreeBackendDispatch, ConcurrentSolvesOnOneContextAreRaceFree) {
  for (HartreeBackend backend :
       {HartreeBackend::Direct, HartreeBackend::Auto, HartreeBackend::Fmm}) {
    const HartreeContext ctx(cluster_grid(), 6, backend, FmmOptions{});
    std::vector<double> a;
    std::vector<double> b;
    std::thread ta([&] { a = ctx.solve_on_grid(cluster_density()); });
    std::thread tb([&] {
      b = ctx.solve_on_grid(cluster_density(), ctx.make_plan());
    });
    ta.join();
    tb.join();
    const std::vector<double> serial = ctx.solve_on_grid(cluster_density());
    EXPECT_EQ(a, serial) << static_cast<int>(backend);
    EXPECT_EQ(b, serial) << static_cast<int>(backend);
  }
}

TEST(HartreeBackendDispatch, FmmOrderBelowLmaxIsRejected) {
  FmmOptions opt;
  opt.order = 4;
  EXPECT_THROW(HartreeContext(cluster_grid(), 6, HartreeBackend::Fmm, opt),
               std::exception);
}

}  // namespace
}  // namespace swraman::fmm
