#include "sunway/kernels.hpp"

#include <algorithm>
#include <cmath>

#include "grid/ylm.hpp"
#include "obs/obs.hpp"

namespace swraman::sunway {

// The counter deltas the run produced (flops, DMA traffic, RMA traffic) and
// the modeled machine time — cycles at the executing core's clock — for the
// baseline and the fully optimized variant. Only evaluated when tracing is
// on; the cost model itself never runs on the disabled path.
void attach_kernel_span_attrs(obs::ScopedSpan& span, const CpeCluster& cluster,
                              const CpeCounters& before, double elements,
                              double vectorizable_fraction) {
  if (!span.active()) return;
  const CpeCounters after = cluster.total();
  const double flops = after.flops - before.flops;
  const double dma_bytes = after.dma_bytes - before.dma_bytes;
  const double dma_transfers = after.dma_transfers - before.dma_transfers;
  const double rma_bytes = after.rma_bytes - before.rma_bytes;
  span.attr("elements", elements);
  span.attr("flops", flops);
  span.attr("dma_bytes", dma_bytes);
  span.attr("dma_transfers", dma_transfers);
  if (rma_bytes > 0.0) span.attr("rma_bytes", rma_bytes);
  obs::count("sunway.dma.bytes", dma_bytes);
  obs::count("sunway.kernel.flops", flops);
  if (elements <= 0.0) return;
  KernelWorkload w;
  w.elements = elements;
  w.flops_per_element = flops / elements;
  w.stream_bytes_per_element = dma_bytes / elements;
  w.irregular_bytes_per_element =
      (after.direct_mem_accesses - before.direct_mem_accesses) *
      sizeof(double) / elements;
  w.vectorizable_fraction = vectorizable_fraction;
  span.attr("modeled_cycles_mpe",
            modeled_cycles(w, cluster.arch(), Variant::MpeScalar));
  span.attr("modeled_cycles_cpe",
            modeled_cycles(w, cluster.arch(), Variant::CpeTiledDbSimd));
  span.attr("modeled_time_cpe_s",
            modeled_time(w, cluster.arch(), Variant::CpeTiledDbSimd));
}

PointAtomCost point_atom_cost(std::size_t n_lm) {
  PointAtomCost c;
  c.flops = 12.0 * static_cast<double>(n_lm) + 30.0;
  c.dma_bytes = static_cast<double>(4 * n_lm * sizeof(double));
  c.dma_transfers = 1.0 / 16.0;
  return c;
}

void real_space_potential_cpe(CpeCluster& cluster,
                              const hartree::MultipolePotential& potential,
                              const Vec3* points, std::size_t n, double* out) {
  SWRAMAN_TRACE_SPAN(span, "sunway.kernel1");
  const CpeCounters before = cluster.total();
  const PointAtomCost pair = point_atom_cost(grid::n_lm(potential.lmax()));
  cluster.run("kernel1", [&](CpeContext& ctx) {
    const auto [lo, hi] = ctx.my_slice(n);
    if (lo >= hi) return;
    // Tile the point slice through LDM: coordinates in, potentials out.
    const std::size_t tile =
        std::max<std::size_t>(1, ctx.ldm().capacity() / 4 / sizeof(Vec3));
    hartree::MultipolePotential::Workspace ws;
    for (std::size_t base = lo; base < hi; base += tile) {
      ctx.ldm().reset();
      const std::size_t count = std::min(tile, hi - base);
      Vec3* coords = ctx.ldm().allocate<Vec3>(count);
      double* vout = ctx.ldm().allocate<double>(count);
      ctx.dma_get(coords, points + base, count);
      for (std::size_t k = 0; k < count; ++k) {
        vout[k] = potential.value(coords[k], ws);
        for (std::size_t a = 0; a < potential.n_atoms(); ++a) {
          ctx.counters().dma_bytes += pair.dma_bytes;
          ctx.counters().dma_transfers += pair.dma_transfers;
          ctx.charge_flops(pair.flops);
        }
      }
      ctx.dma_put(vout, out + base, count);
    }
  });
  attach_kernel_span_attrs(span, cluster, before, static_cast<double>(n), 0.9);
}

ReciprocalTables build_reciprocal_tables(const hartree::Ewald& ewald) {
  ReciprocalTables t;
  t.g = ewald.g_vectors();
  t.coef = ewald.coefficients();
  t.str_cos = ewald.structure_cos();
  t.str_sin = ewald.structure_sin();
  t.gather_index.resize(t.g.size());
  // The paper's k_points_es indirection: a strided permutation that breaks
  // unit-stride access from the kernel's point of view (cross-host-kernel
  // analysis recovers the contiguity).
  const std::size_t m = t.g.size();
  const std::size_t stride = std::max<std::size_t>(1, m / 7);
  for (std::size_t k = 0; k < m; ++k) {
    t.gather_index[k] = (k * stride) % m;
  }
  return t;
}

namespace {

double reciprocal_point(const ReciprocalTables& t, const Vec3& p) {
  double v = 0.0;
  for (std::size_t k = 0; k < t.g.size(); ++k) {
    const std::size_t j = t.gather_index[k];
    const double phase = dot(t.g[j], p);
    v += t.coef[j] * (std::cos(phase) * t.str_cos[j] +
                      std::sin(phase) * t.str_sin[j]);
  }
  return v;
}

}  // namespace

void reciprocal_potential(const ReciprocalTables& tables, const Vec3* points,
                          std::size_t n, double* out) {
  for (std::size_t p = 0; p < n; ++p) {
    out[p] = reciprocal_point(tables, points[p]);
  }
}

void reciprocal_potential_cpe(CpeCluster& cluster,
                              const ReciprocalTables& tables,
                              const Vec3* points, std::size_t n, double* out) {
  SWRAMAN_TRACE_SPAN(span, "sunway.kernel2");
  const CpeCounters before = cluster.total();
  const std::size_t m = tables.g.size();
  cluster.run("kernel2", [&](CpeContext& ctx) {
    const auto [lo, hi] = ctx.my_slice(n);
    if (lo >= hi) return;
    ctx.ldm().reset();
    // Static tiling (Fig. 5): 60 KB of regular tables; the remaining LDM
    // buffers the irregularly gathered structure factors.
    const std::size_t g_tile = std::min(
        m, static_cast<std::size_t>(60 * 1024) / (5 * sizeof(double)));
    Vec3* gv = ctx.ldm().allocate<Vec3>(g_tile);
    double* cf = ctx.ldm().allocate<double>(g_tile);
    double* sc = ctx.ldm().allocate<double>(g_tile);
    double* ss = ctx.ldm().allocate<double>(g_tile);

    for (std::size_t p = lo; p < hi; ++p) {
      double v = 0.0;
      for (std::size_t base = 0; base < m; base += g_tile) {
        const std::size_t count = std::min(g_tile, m - base);
        // Gathered loads resolved to contiguous tiles after the
        // cross-host-kernel analysis; charge the DMA traffic once per tile
        // pass (shared across the point loop in the real code; modeled
        // per-point/64 to reflect table reuse).
        if (p == lo) {
          for (std::size_t k = 0; k < count; ++k) {
            const std::size_t j = tables.gather_index[base + k];
            gv[k] = tables.g[j];
            cf[k] = tables.coef[j];
            sc[k] = tables.str_cos[j];
            ss[k] = tables.str_sin[j];
          }
          ctx.counters().dma_bytes +=
              static_cast<double>(count * 6 * sizeof(double));
          ctx.counters().dma_transfers += 4.0;
        }
        for (std::size_t k = 0; k < count; ++k) {
          const double phase = dot(gv[k], points[p]);
          v += cf[k] * (std::cos(phase) * sc[k] + std::sin(phase) * ss[k]);
        }
        ctx.charge_flops(40.0 * static_cast<double>(count));
      }
      out[p] = v;
    }
  });
  attach_kernel_span_attrs(span, cluster, before, static_cast<double>(n), 0.9);
}

KernelWorkload run_density_batches(CpeCluster& cluster,
                                   const std::vector<BatchShape>& batches) {
  SWRAMAN_TRACE_SPAN(span, "sunway.n1");
  const CpeCounters before = cluster.total();
  double elements = 0.0;
  cluster.run("n1", [&](CpeContext& ctx) {
    for (std::size_t b = ctx.id(); b < batches.size();
         b += static_cast<std::size_t>(ctx.n_cpes())) {
      const BatchShape& sh = batches[b];
      ctx.ldm().reset();
      // Tile the local density-matrix block and basis values through LDM.
      const std::size_t row_tile = std::max<std::size_t>(
          1, std::min(sh.n_fns, ctx.ldm().capacity() / 3 /
                                    (sh.n_points * sizeof(double) + 1)));
      for (std::size_t r0 = 0; r0 < sh.n_fns; r0 += row_tile) {
        const std::size_t rows = std::min(row_tile, sh.n_fns - r0);
        ctx.counters().dma_bytes += static_cast<double>(
            rows * sh.n_points * sizeof(double) +  // values tile
            rows * sh.n_fns * sizeof(double));     // P block rows
        ctx.counters().dma_transfers += 2.0;
        ctx.charge_flops(2.0 * static_cast<double>(rows) *
                         static_cast<double>(sh.n_fns) *
                         static_cast<double>(sh.n_points));
      }
      ctx.counters().dma_bytes +=
          static_cast<double>(sh.n_points * sizeof(double));  // n(r) out
      ctx.counters().dma_transfers += 1.0;
    }
  });
  for (const BatchShape& sh : batches) {
    elements += static_cast<double>(sh.n_points);
  }
  attach_kernel_span_attrs(span, cluster, before, elements, 0.85);
  return cluster.workload("n1", elements, 0.85);
}

KernelWorkload run_hamiltonian_batches(CpeCluster& cluster,
                                       const std::vector<BatchShape>& batches) {
  SWRAMAN_TRACE_SPAN(span, "sunway.h1");
  const CpeCounters before = cluster.total();
  double elements = 0.0;
  cluster.run("H1", [&](CpeContext& ctx) {
    for (std::size_t b = ctx.id(); b < batches.size();
         b += static_cast<std::size_t>(ctx.n_cpes())) {
      const BatchShape& sh = batches[b];
      ctx.ldm().reset();
      const std::size_t row_tile = std::max<std::size_t>(
          1, std::min(sh.n_fns, ctx.ldm().capacity() / 3 /
                                    (sh.n_points * sizeof(double) + 1)));
      for (std::size_t r0 = 0; r0 < sh.n_fns; r0 += row_tile) {
        const std::size_t rows = std::min(row_tile, sh.n_fns - r0);
        ctx.counters().dma_bytes += static_cast<double>(
            rows * sh.n_points * sizeof(double) * 2);  // values + scaled
        ctx.counters().dma_transfers += 2.0;
        // M_loc = values * scaled^T over this row stripe.
        ctx.charge_flops(2.0 * static_cast<double>(rows) *
                         static_cast<double>(sh.n_fns) *
                         static_cast<double>(sh.n_points));
      }
      // Scatter-add of the local matrix: the RMA distributed reduction.
      ctx.charge_rma(static_cast<double>(sh.n_fns * sh.n_fns) *
                     1.5 * sizeof(double));
      ctx.charge_flops(static_cast<double>(sh.n_fns * sh.n_fns));
      elements += 0.0;
    }
  });
  for (const BatchShape& sh : batches) {
    elements += static_cast<double>(sh.n_points);
  }
  attach_kernel_span_attrs(span, cluster, before, elements, 0.9);
  return cluster.workload("H1", elements, 0.9);
}

}  // namespace swraman::sunway
