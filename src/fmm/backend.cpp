#include "fmm/backend.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>

#include "common/error.hpp"
#include "fmm/kernel.hpp"
#include "fmm/traversal.hpp"
#include "fmm/tree.hpp"
#include "grid/ylm.hpp"
#include "obs/obs.hpp"
#include "sunway/arch.hpp"
#include "sunway/cpe_cluster.hpp"
#include "sunway/kernels.hpp"

namespace swraman::fmm {

struct HartreeContext::Geometry {
  FmmKernel kernel;
  std::unique_ptr<Octree> sources;  // atom centers, extent = spline radius
  std::unique_ptr<Octree> targets;  // grid points
  // M2L pairs grouped per target cell (disjoint target slices -> the CPE
  // kernel writes without conflicts).
  std::vector<std::size_t> m2l_targets;
  std::vector<std::size_t> m2l_begin;  // size m2l_targets.size() + 1
  std::vector<std::size_t> m2l_sources;
  // Every target leaf, with its (possibly empty) P2P source-leaf range.
  std::vector<std::size_t> target_leaves;
  std::vector<std::size_t> p2p_begin;  // size target_leaves.size() + 1
  std::vector<std::size_t> p2p_sources;
  std::vector<Vec3> points_sorted;  // grid points in target-tree order
  double p2p_point_atom_pairs = 0.0;
  double direct_flops = 0.0;
  double fmm_flops = 0.0;

  explicit Geometry(int order) : kernel(order) {}
};

HartreeContext::HartreeContext(const grid::MolecularGrid& grid, int lmax,
                               HartreeBackend backend, FmmOptions options)
    : grid_(grid),
      solver_(grid, lmax),
      backend_(backend),
      options_(options) {
  SWRAMAN_REQUIRE(options_.order >= lmax,
                  "HartreeContext: FMM order must cover multipole lmax");
}

HartreeContext::~HartreeContext() = default;

const HartreeContext::Geometry& HartreeContext::geometry() const {
  std::call_once(geo_once_, [this] { geo_ = build_geometry(); });
  return *geo_;
}

std::unique_ptr<const HartreeContext::Geometry>
HartreeContext::build_geometry() const {
  SWRAMAN_TRACE_SPAN(span, "hartree.fmm.build");
  auto g = std::make_unique<Geometry>(options_.order);

  // Source tree over atom centers; each atom's extent is its outermost
  // shell radius so MAC-accepted pairs sit strictly in the analytic far
  // field of every member atom.
  std::vector<Vec3> centers(grid_.atoms.size());
  for (std::size_t a = 0; a < grid_.atoms.size(); ++a) {
    centers[a] = grid_.atoms[a].pos;
  }
  std::vector<double> extent(grid_.atoms.size(), 0.0);
  for (const grid::ShellInfo& sh : grid_.shells) {
    std::size_t a = static_cast<std::size_t>(sh.atom);
    extent[a] = std::max(extent[a], sh.radius);
  }
  OctreeOptions src_opt;
  src_opt.leaf_size = options_.source_leaf_size;
  g->sources = std::make_unique<Octree>(centers, extent, src_opt);

  OctreeOptions tgt_opt;
  tgt_opt.leaf_size = options_.target_leaf_size;
  g->targets = std::make_unique<Octree>(grid_.points,
                                        std::vector<double>{}, tgt_opt);
  g->points_sorted.resize(grid_.points.size());
  for (std::size_t i = 0; i < grid_.points.size(); ++i) {
    g->points_sorted[i] = grid_.points[g->targets->body_order()[i]];
  }

  const InteractionLists lists =
      traverse(*g->targets, *g->sources, options_.theta);

  // Group M2L by target cell (stable bucket sort over cell index).
  {
    std::vector<std::vector<std::size_t>> by_target(g->targets->cells().size());
    for (const CellPair& pr : lists.m2l) by_target[pr.target].push_back(pr.source);
    g->m2l_begin.push_back(0);
    for (std::size_t t = 0; t < by_target.size(); ++t) {
      if (by_target[t].empty()) continue;
      g->m2l_targets.push_back(t);
      g->m2l_sources.insert(g->m2l_sources.end(), by_target[t].begin(),
                            by_target[t].end());
      g->m2l_begin.push_back(g->m2l_sources.size());
    }
  }

  // Group P2P by target leaf; keep every leaf (L2P runs regardless).
  {
    const auto& tcells = g->targets->cells();
    std::vector<std::vector<std::size_t>> by_leaf(tcells.size());
    for (const CellPair& pr : lists.p2p) by_leaf[pr.target].push_back(pr.source);
    g->p2p_begin.push_back(0);
    for (std::size_t t = 0; t < tcells.size(); ++t) {
      if (!tcells[t].is_leaf()) continue;
      g->target_leaves.push_back(t);
      g->p2p_sources.insert(g->p2p_sources.end(), by_leaf[t].begin(),
                            by_leaf[t].end());
      g->p2p_begin.push_back(g->p2p_sources.size());
      for (std::size_t s : by_leaf[t]) {
        g->p2p_point_atom_pairs +=
            static_cast<double>(tcells[t].n_bodies) *
            static_cast<double>(g->sources->cells()[s].n_bodies);
      }
    }
  }

  // Cost-model crossover estimate (flops; the Auto selector's currency),
  // with each (point, atom) evaluation priced as kernel1 charges it.
  const std::size_t n_lm = grid::n_lm(solver_.lmax());
  const double c_pa = sunway::point_atom_cost(n_lm).flops;
  const double n_points = static_cast<double>(grid_.points.size());
  const double n_atoms = static_cast<double>(grid_.atoms.size());
  g->direct_flops = n_points * n_atoms * c_pa;
  const double translate = g->kernel.m2l_flops();  // O(p^4), M2M/L2L alike
  g->fmm_flops =
      static_cast<double>(g->m2l_sources.size()) * translate +
      g->p2p_point_atom_pairs * c_pa +
      n_points * g->kernel.l2p_flops() +
      (n_atoms + static_cast<double>(g->sources->cells().size()) +
       static_cast<double>(g->targets->cells().size())) *
          0.5 * translate;

  if (span.active()) {
    span.attr("source_cells", static_cast<double>(g->sources->cells().size()));
    span.attr("target_cells", static_cast<double>(g->targets->cells().size()));
    span.attr("m2l_pairs", static_cast<double>(g->m2l_sources.size()));
    span.attr("p2p_pairs", static_cast<double>(g->p2p_sources.size()));
    span.attr("direct_flops", g->direct_flops);
    span.attr("fmm_flops", g->fmm_flops);
  }
  obs::count("hartree.fmm.m2l.pairs",
             static_cast<double>(g->m2l_sources.size()));
  obs::count("hartree.fmm.p2p.pairs",
             static_cast<double>(g->p2p_sources.size()));
  return g;
}

HartreeBackend HartreeContext::resolve_backend() const {
  if (backend_ != HartreeBackend::Auto) return backend_;
  const Geometry& g = geometry();
  return g.fmm_flops < g.direct_flops ? HartreeBackend::Fmm
                                      : HartreeBackend::Direct;
}

FmmStats HartreeContext::stats() const {
  FmmStats st;
  st.resolved = resolve_backend();
  if (backend_ == HartreeBackend::Direct) return st;
  const Geometry& g = geometry();
  st.n_source_cells = g.sources->cells().size();
  st.n_target_cells = g.targets->cells().size();
  st.n_m2l_pairs = g.m2l_sources.size();
  st.n_p2p_pairs = g.p2p_sources.size();
  st.direct_flops = g.direct_flops;
  st.fmm_flops = g.fmm_flops;
  st.max_error_bound = max_error_bound_.load(std::memory_order_relaxed);
  return st;
}

hartree::GridPlan HartreeContext::make_plan() const {
  if (resolve_backend() == HartreeBackend::Direct) return solver_.make_plan();
  return hartree::GridPlan{};
}

std::vector<double> HartreeContext::solve_on_grid(
    const std::vector<double>& density) const {
  return solve_on_grid(density, hartree::GridPlan{});
}

std::vector<double> HartreeContext::solve_on_grid(
    const std::vector<double>& density, const hartree::GridPlan& plan) const {
  if (resolve_backend() == HartreeBackend::Direct) {
    // Verbatim dense path: bitwise identical to the pre-FMM solver.
    return solver_.solve_on_grid(density, plan);
  }
  SWRAMAN_TRACE_SCOPE("hartree.poisson");
  const hartree::MultipolePotential pot = solver_.solve(density, &plan);
  return fmm_on_grid(pot);
}

std::vector<double> HartreeContext::fmm_on_grid(
    const hartree::MultipolePotential& pot) const {
  const Geometry& g = geometry();
  const FmmKernel& K = g.kernel;
  const int p = options_.order;
  const int lmax = pot.lmax();
  const std::size_t nm = nm_count(p);
  const std::size_t n_lm = grid::n_lm(lmax);
  const auto& scells = g.sources->cells();
  const auto& tcells = g.targets->cells();
  const std::size_t n_atoms = pot.n_atoms();
  SWRAMAN_REQUIRE(n_atoms == grid_.atoms.size(),
                  "fmm_on_grid: potential/grid atom count mismatch");

  // A cluster model per evaluation: concurrent solves on one context
  // share no CPE counters.
  std::optional<sunway::CpeCluster> cluster;
  if (options_.use_cpe) cluster.emplace(sunway::sw26010pro());

  // --- upward: atom moments -> leaf multipoles -> cell multipoles ---
  std::vector<Cplx> multipoles(scells.size() * nm, Cplx{});
  std::vector<Cplx> atom_m(n_atoms * nm, Cplx{});
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.upward");
    FmmKernel::Workspace ws;
    std::vector<double> qlm(n_lm);
    for (std::size_t a = 0; a < n_atoms; ++a) {
      for (std::size_t lm = 0; lm < n_lm; ++lm) qlm[lm] = pot.moment(a, lm);
      K.atom_moments_to_multipole(qlm.data(), lmax, &atom_m[a * nm]);
    }
    const std::vector<std::size_t>& order = g.sources->body_order();
    for (std::size_t ci = scells.size(); ci-- > 0;) {
      const Cell& c = scells[ci];
      Cplx* M = &multipoles[ci * nm];
      if (c.is_leaf()) {
        for (std::size_t i = c.first_body; i < c.first_body + c.n_bodies;
             ++i) {
          const std::size_t a = order[i];
          K.m2m(&atom_m[a * nm], pot.centers()[a] - c.center, M, ws);
        }
      } else {
        for (int k = 0; k < c.n_children; ++k) {
          const std::size_t ch = c.first_child + static_cast<std::size_t>(k);
          K.m2m(&multipoles[ch * nm], scells[ch].center - c.center, M, ws);
        }
      }
    }
    if (span.active()) span.attr("atoms", static_cast<double>(n_atoms));
  }

  // --- traversal: M2L over the precomputed well-separated pair lists ---
  std::vector<Cplx> locals(tcells.size() * nm, Cplx{});
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.traversal");
    const double pair_flops = K.m2l_flops();
    auto m2l_body = [&](sunway::CpeContext* ctx, std::size_t lo,
                        std::size_t hi) {
      FmmKernel::Workspace ws;
      for (std::size_t gi = lo; gi < hi; ++gi) {
        const std::size_t t = g.m2l_targets[gi];
        Cplx* acc = nullptr;
        Cplx* lbuf = nullptr;
        Cplx* sbuf = nullptr;
        if (ctx) {
          ctx->ldm().reset();
          lbuf = ctx->ldm().allocate<Cplx>(nm);
          sbuf = ctx->ldm().allocate<Cplx>(nm);
          std::fill(lbuf, lbuf + nm, Cplx{});
          acc = lbuf;
        } else {
          acc = &locals[t * nm];
        }
        for (std::size_t k = g.m2l_begin[gi]; k < g.m2l_begin[gi + 1]; ++k) {
          const std::size_t s = g.m2l_sources[k];
          const Cplx* M = &multipoles[s * nm];
          if (ctx) {
            ctx->dma_get(sbuf, M, nm);
            M = sbuf;
          }
          const Vec3 d = scells[s].center - tcells[t].center;
          K.m2l(M, d, acc, ws);
          if (ctx) ctx->charge_flops(pair_flops);
        }
        if (ctx) ctx->dma_put(lbuf, &locals[t * nm], nm);
      }
    };
    if (cluster) {
      const sunway::CpeCounters before = cluster->total();
      cluster->run("fmmM2L", [&](sunway::CpeContext& ctx) {
        const auto [lo, hi] = ctx.my_slice(g.m2l_targets.size());
        m2l_body(&ctx, lo, hi);
      });
      sunway::attach_kernel_span_attrs(
          span, *cluster, before,
          static_cast<double>(g.m2l_sources.size()), 0.85);
    } else {
      m2l_body(nullptr, 0, g.m2l_targets.size());
    }
  }

  // --- downward: locals to children (L2L), then L2P + exact near field ---
  const std::vector<std::size_t>& torder = g.targets->body_order();
  std::vector<double> v_sorted(grid_.points.size(), 0.0);
  {
    SWRAMAN_TRACE_SPAN(span, "hartree.fmm.downward");
    {
      FmmKernel::Workspace ws;
      for (std::size_t ci = 1; ci < tcells.size(); ++ci) {
        const Cell& c = tcells[ci];
        K.l2l(&locals[c.parent * nm], c.center - tcells[c.parent].center,
              &locals[ci * nm], ws);
      }
    }

    const sunway::PointAtomCost pair = sunway::point_atom_cost(n_lm);
    const double lp_flops = K.l2p_flops();
    const std::vector<std::size_t>& sorder = g.sources->body_order();
    auto p2p_body = [&](sunway::CpeContext* ctx, std::size_t lo,
                        std::size_t hi) {
      FmmKernel::Workspace ws;
      hartree::MultipolePotential::Workspace mws;
      for (std::size_t li = lo; li < hi; ++li) {
        const std::size_t t = g.target_leaves[li];
        const Cell& tc = tcells[t];
        const Vec3* coords = &g.points_sorted[tc.first_body];
        double* vout = &v_sorted[tc.first_body];
        Cplx* lbuf = nullptr;
        if (ctx) {
          ctx->ldm().reset();
          Vec3* cb = ctx->ldm().allocate<Vec3>(tc.n_bodies);
          double* vb = ctx->ldm().allocate<double>(tc.n_bodies);
          lbuf = ctx->ldm().allocate<Cplx>(nm);
          ctx->dma_get(cb, coords, tc.n_bodies);
          ctx->dma_get(lbuf, &locals[t * nm], nm);
          coords = cb;
          vout = vb;
        }
        const Cplx* L = ctx ? lbuf : &locals[t * nm];
        for (std::size_t k = 0; k < tc.n_bodies; ++k) {
          double v = K.l2p(L, coords[k] - tc.center, ws);
          if (ctx) ctx->charge_flops(lp_flops);
          for (std::size_t si = g.p2p_begin[li]; si < g.p2p_begin[li + 1];
               ++si) {
            const Cell& sc = scells[g.p2p_sources[si]];
            for (std::size_t bi = sc.first_body;
                 bi < sc.first_body + sc.n_bodies; ++bi) {
              v += pot.value_atom(sorder[bi], coords[k], mws);
              if (ctx) {
                ctx->counters().dma_bytes += pair.dma_bytes;
                ctx->counters().dma_transfers += pair.dma_transfers;
                ctx->charge_flops(pair.flops);
              }
            }
          }
          vout[k] = v;
        }
        if (ctx) ctx->dma_put(vout, &v_sorted[tc.first_body], tc.n_bodies);
      }
    };
    if (cluster) {
      SWRAMAN_TRACE_SPAN(p2p_span, "hartree.fmm.p2p");
      const sunway::CpeCounters before = cluster->total();
      cluster->run("fmmP2P", [&](sunway::CpeContext& ctx) {
        const auto [lo, hi] = ctx.my_slice(g.target_leaves.size());
        p2p_body(&ctx, lo, hi);
      });
      sunway::attach_kernel_span_attrs(
          p2p_span, *cluster, before,
          static_cast<double>(grid_.points.size()), 0.85);
    } else {
      p2p_body(nullptr, 0, g.target_leaves.size());
    }
  }

  // Analytic truncation bound, accumulated down the tree so every leaf sees
  // its own M2L pairs plus every ancestor's.
  if (options_.track_error_bound) {
    std::vector<std::vector<double>> absmom(
        scells.size(), std::vector<double>(static_cast<std::size_t>(lmax) + 1,
                                           0.0));
    const std::vector<std::size_t>& sorder = g.sources->body_order();
    for (std::size_t ci = 0; ci < scells.size(); ++ci) {
      const Cell& c = scells[ci];
      for (std::size_t i = c.first_body; i < c.first_body + c.n_bodies; ++i) {
        const Cplx* M = &atom_m[sorder[i] * nm];
        for (int l = 0; l <= lmax; ++l) {
          for (int m = -l; m <= l; ++m) {
            absmom[ci][static_cast<std::size_t>(l)] +=
                std::abs(M[nm_index(l, m)]);
          }
        }
      }
    }
    std::vector<double> cell_bound(tcells.size(), 0.0);
    for (std::size_t gi = 0; gi < g.m2l_targets.size(); ++gi) {
      const std::size_t t = g.m2l_targets[gi];
      for (std::size_t k = g.m2l_begin[gi]; k < g.m2l_begin[gi + 1]; ++k) {
        const std::size_t s = g.m2l_sources[k];
        cell_bound[t] += m2l_error_bound(
            absmom[s], scells[s].radius, tcells[t].radius,
            (scells[s].center - tcells[t].center).norm(), p);
      }
    }
    double worst = 0.0;
    for (std::size_t ci = 0; ci < tcells.size(); ++ci) {
      if (ci != 0) cell_bound[ci] += cell_bound[tcells[ci].parent];
      if (tcells[ci].is_leaf()) worst = std::max(worst, cell_bound[ci]);
    }
    max_error_bound_.store(worst, std::memory_order_relaxed);
  }

  std::vector<double> v(grid_.points.size());
  for (std::size_t i = 0; i < v.size(); ++i) v[torder[i]] = v_sorted[i];
  return v;
}

}  // namespace swraman::fmm
