// Figure 12: performance of the response-potential (V1) calculation under
// the successive Sunway optimizations — DMA loop tiling, double buffering,
// 512-bit SIMD — relative to the original MPE version, for the six
// silicon-solid cases of Table 1.
//
// Paper: tiling 10-15x, +DB ~16x, +SIMD ~20x. The speedups here emerge
// from the calibrated SW26010Pro cost model driven by the operation counts
// of the implemented CSI/Ewald kernels (see DESIGN.md).
//
// Additionally cross-checks the *functional* kernel: the CPE-cluster
// execution of kernel1 must reproduce MultipolePotential::value
// bit-for-bit.

#include <cstdio>
#include <vector>

#include "core/swraman.hpp"

int main() {
  using namespace swraman;
  using namespace swraman::sunway;
  log::set_level(log::Level::Warn);

  const ArchParams sw = sw26010pro();
  const auto& targets = core::paper_targets();

  std::printf("=== Fig. 12: response potential (V1) optimization steps ===\n");
  std::printf("%-5s %14s %14s %14s   (paper: %.0f-%.0fx / %.0fx / %.0fx)\n",
              "case", "Tiling", "Tiling+DB", "Tiling+DB+SIMD",
              targets.tiling_speedup_lo, targets.tiling_speedup_hi,
              targets.tiling_db_speedup, targets.tiling_db_simd_speedup);
  for (const core::SiCase& c : core::table1_cases()) {
    const KernelWorkload w = core::si_case_v1(c);
    const double mpe = modeled_time(w, sw, Variant::MpeScalar);
    std::printf("%-5s %13.1fx %13.1fx %13.1fx\n", c.name,
                mpe / modeled_time(w, sw, Variant::CpeTiled),
                mpe / modeled_time(w, sw, Variant::CpeTiledDb),
                mpe / modeled_time(w, sw, Variant::CpeTiledDbSimd));
  }

  // Functional cross-check on a real multipole potential.
  std::printf("\nFunctional kernel validation (real two-center density):\n");
  const std::vector<grid::AtomSite> atoms = {{8, {0, 0, 0}},
                                             {1, {0, 0, 1.8}}};
  grid::GridSettings gs;
  gs.level = grid::GridLevel::Tight;
  const grid::MolecularGrid g = grid::build_molecular_grid(atoms, gs);
  const hartree::MultipoleSolver solver(g, 6);
  std::vector<double> density(g.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    density[p] = std::exp(-g.points[p].norm2());
  }
  const hartree::MultipolePotential pot = solver.solve(density);

  const std::size_t n = 20000;
  std::vector<Vec3> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {0.01 * static_cast<double>(i % 173) - 0.9,
              0.013 * static_cast<double>(i % 131) - 0.8,
              0.007 * static_cast<double>(i % 311)};
  }
  CpeCluster cluster(sw);
  std::vector<double> out_cpe(n);
  real_space_potential_cpe(cluster, pot, pts.data(), n, out_cpe.data());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out_cpe[i] != pot.value(pts[i])) ++mismatches;
  }
  std::printf("  CPE-cluster kernel1 vs MultipolePotential::value: %zu of %zu "
              "points differ (LDM peak %zu B, %.1f MB DMA)\n",
              mismatches, n, cluster.per_cpe()[0].ldm_peak,
              cluster.total().dma_bytes / 1e6);
  return mismatches == 0 ? 0 : 1;
}
