// The paper's three-level parallelization (Fig. 4), end to end and
// functional:
//
//   level 1 — geometry sub-groups: the communicator splits into
//             sub-communicators, each computing the polarizability of one
//             displaced geometry (embarrassingly parallel);
//   level 2 — batch distribution: within a group, integration batches are
//             assigned by Algorithm 1 and every grid-reduced quantity goes
//             through the group Allreduce;
//   level 3 — CPE acceleration: the CSI response-potential kernel of one
//             batch set executes on the functional CPE-cluster model.
//
//   $ ./three_level_parallel

#include <cstdio>

#include "core/swraman.hpp"

int main() {
  using namespace swraman;
  log::set_level(log::Level::Warn);

  // Level 1 + 2: 4 ranks, 2 geometry groups, distributed SCF + DFPT.
  std::printf("Levels 1+2: 4 ranks -> 2 geometry groups x 2 ranks each\n");
  double alphas[2] = {};
  parallel::run_spmd(4, [&](parallel::Communicator& world) {
    const int geometry = static_cast<int>(world.rank() / 2);
    parallel::Communicator group = world.split(geometry);

    // Two displaced H2 geometries (the 6N displacement pattern of Eq. 5).
    const auto mol = molecules::h2(geometry == 0 ? 1.43 : 1.47);

    scf::GridPartition part;
    part.rank = group.rank();
    part.n_ranks = group.size();
    part.allreduce = [&group](double* data, std::size_t n) {
      std::vector<double> buf(data, data + n);
      group.allreduce(buf,
                      parallel::AllreduceAlgorithm::ReduceScatterAllgather);
      std::copy(buf.begin(), buf.end(), data);
    };

    scf::ScfEngine engine(mol, {}, part);
    const scf::GroundState gs = engine.solve();
    dfpt::DfptEngine dfpt(engine, gs);
    const double a_zz = dfpt.polarizability()(2, 2);
    if (group.rank() == 0) alphas[geometry] = a_zz;
  });
  std::printf("  geometry 0 (1.43 Bohr): alpha_zz = %.4f\n", alphas[0]);
  std::printf("  geometry 1 (1.47 Bohr): alpha_zz = %.4f\n", alphas[1]);
  std::printf("  d(alpha_zz)/dR ~ %.3f Bohr^2 (enters Eq. 5)\n\n",
              (alphas[1] - alphas[0]) / 0.04);

  // Level 3: the same response-potential evaluation, executed through the
  // CPE-cluster model with LDM tiling (operation counts -> cost model).
  std::printf("Level 3: CSI kernel on the 64-CPE model\n");
  const auto mol = molecules::h2();
  scf::ScfEngine engine(mol, {});
  const scf::GroundState gs = engine.solve();
  const std::vector<double> n = engine.density_on_grid(gs.density);
  const hartree::MultipolePotential pot = engine.poisson().solve(n);

  sunway::CpeCluster cluster(sunway::sw26010pro());
  std::vector<double> v(engine.grid().size());
  sunway::real_space_potential_cpe(cluster, pot, engine.grid().points.data(),
                                   engine.grid().size(), v.data());
  const sunway::KernelWorkload w = cluster.workload(
      "V_H", static_cast<double>(engine.grid().size()), 0.5);
  std::printf("  %zu grid points on %d CPEs: %.1f Mflop, %.1f MB DMA\n",
              engine.grid().size(), cluster.arch().n_pes,
              w.total_flops() / 1e6, cluster.total().dma_bytes / 1e6);
  std::printf("  modeled CG time: MPE %.3f ms -> Tiling+DB+SIMD %.3f ms "
              "(%.1fx)\n",
              1e3 * modeled_time(w, cluster.arch(),
                                 sunway::Variant::MpeScalar),
              1e3 * modeled_time(w, cluster.arch(),
                                 sunway::Variant::CpeTiledDbSimd),
              modeled_time(w, cluster.arch(), sunway::Variant::MpeScalar) /
                  modeled_time(w, cluster.arch(),
                               sunway::Variant::CpeTiledDbSimd));
  return 0;
}
