#pragma once

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"
#include "hartree/ewald.hpp"
#include "hartree/multipole.hpp"
#include "obs/trace.hpp"
#include "sunway/cpe_cluster.hpp"

// The DFPT hotspot kernels in their Sunway form (paper Sec. 3.2):
//
//  * kernel1 — real-space response potential: cubic-spline interpolation
//    (CSI, Algorithm 2) of the per-atom multipole channels. The tables are
//    hartree::MultipolePotential's own structure-of-arrays [knot][lm] rows
//    and the evaluator is its value(): one format, one evaluator, staged
//    here through LDM point tiles.
//  * kernel2 — reciprocal-space potential update: the Ewald G-sum with the
//    irregular structure-factor gather (the "WPxy" pattern of Fig. 5).
//  * n1 / H1 batch kernels — response density and response Hamiltonian as
//    batch-local matrix work, executed on the CPE model for operation
//    counting (their numerics live in scf::ScfEngine).
//
// Host functions produce reference results; *_cpe variants run on the
// CpeCluster with LDM tiling + DMA counting and must match bit-for-bit
// (same arithmetic, different orchestration).

namespace swraman::sunway {

// Attaches the cost model's view of a kernel execution to its trace span:
// counter deltas since `before` (flops, DMA, RMA) plus the modeled cycles
// for the MPE-scalar and CPE-tiled variants — the attributes
// scripts/hotspots.py ranks phases by. Shared by every CPE-modeled kernel
// in the repo (kernel1/kernel2/n1/H1 here, fmmM2L/fmmP2P in src/fmm).
void attach_kernel_span_attrs(obs::ScopedSpan& span, const CpeCluster& cluster,
                              const CpeCounters& before, double elements,
                              double vectorizable_fraction);

// --- kernel1: CSI real-space potential ---

// Modeled CPE cost of one (point, atom) evaluation of
// MultipolePotential::value_atom with n_lm channels. kernel1, the FMM near
// field (P2P) and the FMM Auto crossover all price a pair this way.
struct PointAtomCost {
  double flops = 0.0;          // channel and Y_lm arithmetic
  double dma_bytes = 0.0;      // the interval's 4-row x n_lm table block
  double dma_transfers = 0.0;  // blocks batch up, 16 per transfer
};
[[nodiscard]] PointAtomCost point_atom_cost(std::size_t n_lm);

// CPE-cluster execution of MultipolePotential::value: points tiled over
// CPEs and through LDM, each charged one PointAtomCost per atom.
// out[i] is bitwise equal to potential.value(points[i]).
void real_space_potential_cpe(CpeCluster& cluster,
                              const hartree::MultipolePotential& potential,
                              const Vec3* points, std::size_t n, double* out);

// --- kernel2: reciprocal-space potential ---

struct ReciprocalTables {
  std::vector<Vec3> g;
  std::vector<double> coef;      // "electrostatic coef" of Fig. 5
  std::vector<double> str_cos;   // the irregularly gathered WPxy data
  std::vector<double> str_sin;
  std::vector<std::size_t> gather_index;  // k_points_es-style indirection
};

ReciprocalTables build_reciprocal_tables(const hartree::Ewald& ewald);

void reciprocal_potential(const ReciprocalTables& tables, const Vec3* points,
                          std::size_t n, double* out);

void reciprocal_potential_cpe(CpeCluster& cluster,
                              const ReciprocalTables& tables,
                              const Vec3* points, std::size_t n, double* out);

// --- n1 / H1 batch kernels (operation-count models on real batch shapes) --

struct BatchShape {
  std::size_t n_fns = 0;
  std::size_t n_points = 0;
};

// Executes the response-density batch contraction n(r) = sum_uv P_uv
// chi_u chi_v on synthetic data of the given shapes, tiling through LDM;
// returns the summarizing workload.
KernelWorkload run_density_batches(CpeCluster& cluster,
                                   const std::vector<BatchShape>& batches);

// Response-Hamiltonian batch integration + scatter-add (the distributed
// reduction feeds rma_reduce).
KernelWorkload run_hamiltonian_batches(CpeCluster& cluster,
                                       const std::vector<BatchShape>& batches);

}  // namespace swraman::sunway
