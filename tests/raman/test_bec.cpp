#include "raman/bec.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfpt/dfpt_engine.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"
#include "obs/report.hpp"
#include "scf/forces.hpp"
#include "scf/scf_engine.hpp"

// The Born-effective-charge fast tier (raman/bec.hpp): stencil algebra on
// synthetic quadratic force fields, the coarse-grid plumbing (field-force
// accounting, checkpoint kill/replay), and the golden accuracy-vs-speed
// gate proving the 13-point tier against full DFPT on water.

namespace swraman::raman {
namespace {

std::vector<grid::AtomSite> h2() {
  return {{1, {0.0, 0.0, 0.0}}, {1, {0.0, 0.0, 1.45}}};
}

std::vector<grid::AtomSite> water() {
  return {{8, {0.0, 0.0, 0.3268247149}},
          {1, {1.2518316921, 0.0, 0.9437281316}},
          {1, {-1.2518316921, 0.0, 0.9437281316}}};
}

// Coarse plumbing grid: fast, qualitative only (see the accuracy envelope
// note in bec.hpp).
BecOptions coarse_options() {
  BecOptions opt;
  opt.vibrations.scf.grid.n_radial = 16;
  opt.vibrations.scf.grid.angular_order = 7;
  return opt;
}

// Synthetic records with forces exactly quadratic in the field,
//   F_k(E) = f0_k + sum_a Z(k,a) E_a + 1/2 sum_ab A(k,ab) E_a E_b,
// which the 13-point stencil differentiates without truncation error.
std::vector<GeometryRecord> quadratic_records(const linalg::Matrix& z,
                                              const linalg::Matrix& a,
                                              double e) {
  const std::size_t n_coords = z.rows();
  std::vector<GeometryRecord> records(
      static_cast<std::size_t>(n_field_points()));
  for (int idx = 0; idx < n_field_points(); ++idx) {
    const Vec3 field = field_vector(idx, e);
    const double ef[3] = {field.x, field.y, field.z};
    GeometryRecord& rec = records[static_cast<std::size_t>(idx)];
    rec.forces.resize(n_coords);
    for (std::size_t k = 0; k < n_coords; ++k) {
      double f = 0.125 * static_cast<double>(k + 1);  // field-free offset
      for (std::size_t ai = 0; ai < 3; ++ai) {
        f += z(k, ai) * ef[ai];
        for (std::size_t bi = 0; bi < 3; ++bi) {
          f += 0.5 * a(k, 3 * ai + bi) * ef[ai] * ef[bi];
        }
      }
      rec.forces[k] = f;
    }
  }
  return records;
}

TEST(Bec, StencilIsThePaperThirteenPoints) {
  ASSERT_EQ(n_field_points(), 13);
  EXPECT_EQ(field_direction(0), (std::array<int, 3>{0, 0, 0}));
  // Signed axes come in +/- pairs, axis a at indices 1+2a / 2+2a.
  for (int a = 0; a < 3; ++a) {
    const std::array<int, 3> plus = field_direction(1 + 2 * a);
    const std::array<int, 3> minus = field_direction(2 + 2 * a);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(plus[static_cast<std::size_t>(i)], i == a ? 1 : 0);
      EXPECT_EQ(minus[static_cast<std::size_t>(i)],
                -plus[static_cast<std::size_t>(i)]);
    }
  }
  // Pair points are +/- (e_a + e_b) with two nonzero entries.
  std::set<std::array<int, 3>> seen;
  for (int idx = 7; idx < 13; ++idx) {
    const std::array<int, 3> d = field_direction(idx);
    int nonzero = 0;
    for (int v : d) nonzero += v != 0;
    EXPECT_EQ(nonzero, 2) << "pair stencil point " << idx;
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six signed pairs distinct
  const Vec3 v = field_vector(1, 0.01);
  EXPECT_DOUBLE_EQ(v.x, 0.01);
  EXPECT_DOUBLE_EQ(v.y, 0.0);
  EXPECT_THROW(field_direction(13), Error);
  EXPECT_THROW(field_direction(-1), Error);
}

TEST(Bec, StencilRecoversQuadraticForceFieldExactly) {
  const std::size_t n_coords = 6;
  linalg::Matrix z(n_coords, 3);
  linalg::Matrix a(n_coords, 9);
  for (std::size_t k = 0; k < n_coords; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      z(k, j) = 0.3 * static_cast<double>(k) - 0.7 * static_cast<double>(j);
    }
    for (std::size_t ai = 0; ai < 3; ++ai) {
      for (std::size_t bi = ai; bi < 3; ++bi) {
        const double v = 0.11 * static_cast<double>(k + 1) +
                         0.05 * static_cast<double>(ai + 2 * bi);
        a(k, 3 * ai + bi) = v;
        a(k, 3 * bi + ai) = v;  // d^2F/dE_a dE_b is symmetric
      }
    }
  }
  const double e = 1e-2;
  const std::vector<GeometryRecord> records = quadratic_records(z, a, e);
  linalg::Matrix dalpha;
  linalg::Matrix dmu;
  bec_derivatives(records, e, n_coords, /*enforce_sum_rule=*/false, &dalpha,
                  &dmu);
  for (std::size_t k = 0; k < n_coords; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dmu(k, j), z(k, j), 1e-10) << k << "," << j;
    }
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(dalpha(k, j), a(k, j), 1e-8) << k << "," << j;
      // The stencil fills both (a,b) and (b,a) from one cross formula.
      EXPECT_EQ(dalpha(k, 3 * (j % 3) + j / 3), dalpha(k, j));
    }
  }
}

TEST(Bec, SumRuleProjectionZeroesPerDirectionColumnSums) {
  const std::size_t n_coords = 9;  // 3 atoms
  linalg::Matrix z(n_coords, 3);
  linalg::Matrix a(n_coords, 9);
  std::uint64_t s = 42;
  const auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5;
  };
  for (std::size_t k = 0; k < n_coords; ++k) {
    for (std::size_t j = 0; j < 3; ++j) z(k, j) = next();
    for (std::size_t ai = 0; ai < 3; ++ai) {
      for (std::size_t bi = ai; bi < 3; ++bi) {
        const double v = next();
        a(k, 3 * ai + bi) = v;
        a(k, 3 * bi + ai) = v;
      }
    }
  }
  const double e = 1e-2;
  linalg::Matrix dalpha;
  linalg::Matrix dmu;
  bec_derivatives(quadratic_records(z, a, e), e, n_coords, true, &dalpha,
                  &dmu);
  // Translation sum rule: summing any column over the atoms, per
  // Cartesian displacement direction, gives zero after the projection.
  for (int c = 0; c < 3; ++c) {
    for (std::size_t j = 0; j < 9; ++j) {
      double sum = 0.0;
      for (std::size_t at = 0; at < 3; ++at) {
        sum += dalpha(3 * at + static_cast<std::size_t>(c), j);
      }
      EXPECT_NEAR(sum, 0.0, 1e-12);
    }
    for (std::size_t j = 0; j < 3; ++j) {
      double sum = 0.0;
      for (std::size_t at = 0; at < 3; ++at) {
        sum += dmu(3 * at + static_cast<std::size_t>(c), j);
      }
      EXPECT_NEAR(sum, 0.0, 1e-12);
    }
  }
}

TEST(Bec, RejectsMalformedInputs) {
  std::vector<GeometryRecord> records(13);
  for (auto& r : records) r.forces.assign(6, 0.0);
  linalg::Matrix da;
  linalg::Matrix dm;
  std::vector<GeometryRecord> short_records(records.begin(),
                                            records.end() - 1);
  EXPECT_THROW(bec_derivatives(short_records, 1e-2, 6, true, &da, &dm),
               Error);
  EXPECT_THROW(bec_derivatives(records, 0.0, 6, true, &da, &dm), Error);
  EXPECT_THROW(bec_derivatives(records, 1e-2, 7, true, &da, &dm), Error);
  EXPECT_THROW(finite_field_polarizability(short_records, 1e-2), Error);
  EXPECT_THROW(BecCalculator({}, BecOptions{}), Error);
  BecOptions bad;
  bad.field_strength = -1.0;
  EXPECT_THROW(BecCalculator(h2(), bad), Error);
}

TEST(Bec, UnconvergedFieldScfThrowsConvergenceError) {
  // Three SCF iterations never converge (the exit needs iter > 3): the
  // field loop raises the same error type as serve's RealEngine after its
  // bounded retry, and counts no field force.
  fault::ScopedFaults guard;
  BecOptions opt = coarse_options();
  opt.vibrations.scf.max_iterations = 3;
  BecCalculator calc(h2(), opt);
  EXPECT_THROW((void)calc.polarizability_derivatives(), ConvergenceError);
  EXPECT_EQ(calc.n_field_forces(), 0);
}

TEST(Bec, H2ComputeCountsFieldForcesNotPolarizabilities) {
  fault::ScopedFaults guard;
  BecCalculator calc(h2(), coarse_options());
  const RamanSpectrum spec = calc.compute();
  // The fast tier performs exactly the 13 stencil evaluations and zero
  // displaced polarizabilities — the counter regression the capacity
  // bench keys off.
  EXPECT_EQ(spec.n_field_forces, 13);
  EXPECT_EQ(spec.n_polarizabilities, 0);
  EXPECT_EQ(calc.n_field_forces(), 13);
  ASSERT_EQ(spec.modes.size(), 1u);  // the sigma_g stretch
  EXPECT_GT(spec.modes[0].frequency_cm, 1000.0);
  EXPECT_GE(spec.modes[0].activity, 0.0);
  EXPECT_TRUE(std::isfinite(spec.modes[0].activity));
}

void expect_bitwise_equal(double x, double y, const char* what, int idx) {
  EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
      << what << " of field " << idx << ": " << x << " vs " << y;
}

TEST(Bec, RankParallelMatchesSerialBitwise) {
  // The calculator solves the 13 field SCFs as host_ranks() ranks, then
  // the forces on the calling thread; the reference runs serve's
  // field_point serially, in stencil order, on one shared evaluator.
  fault::ScopedFaults guard;
  const BecOptions opt = coarse_options();
  BecCalculator calc(water(), opt);
  obs::set_enabled(true);
  obs::reset_for_testing();
  const std::vector<GeometryRecord> records = calc.field_records();
  const std::vector<obs::SpanRecord> spans = obs::snapshot();
  obs::set_enabled(false);
  obs::reset_for_testing();
  EXPECT_EQ(calc.n_field_forces(), n_field_points());

  const scf::ForceEvaluator forces(water(), opt.vibrations.scf);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(n_field_points()));
  for (int idx = 0; idx < n_field_points(); ++idx) {
    const GeometryRecord want = field_point(
        water(), opt.vibrations.scf, opt.field_strength, idx, forces);
    const GeometryRecord& got = records[static_cast<std::size_t>(idx)];
    for (std::size_t a = 0; a < 3; ++a) {
      expect_bitwise_equal(got.dipole[a], want.dipole[a], "dipole", idx);
    }
    ASSERT_EQ(got.forces.size(), want.forces.size());
    for (std::size_t k = 0; k < want.forces.size(); ++k) {
      expect_bitwise_equal(got.forces[k], want.forces[k], "force", idx);
    }
  }

  // Every field span nests under the loop span, rank threads included.
  std::size_t fields = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name != "raman.bec.field") continue;
    ++fields;
    EXPECT_EQ(s.path, "raman.bec.fields/raman.bec.field");
  }
  EXPECT_EQ(fields, static_cast<std::size_t>(n_field_points()));
  for (const obs::PhaseNode& p : obs::aggregate_phases(spans)) {
    EXPECT_GE(p.self_s, 0.0) << p.path;
  }
}

TEST(Bec, CheckpointKillReplayIsFreeAndBitwise) {
  fault::ScopedFaults guard;
  obs::set_enabled(true);
  obs::Registry::instance().reset_for_testing();
  const std::string path = ::testing::TempDir() + "bec_ckpt_h2.txt";
  std::remove(path.c_str());

  BecOptions opt = coarse_options();
  opt.checkpoint_path = path;

  // A clean uncheckpointed run is the reference the replay must match
  // bitwise (stored records round-trip at %.17g).
  linalg::Matrix want_da;
  linalg::Matrix want_dm;
  {
    BecCalculator clean(h2(), coarse_options());
    want_da = clean.polarizability_derivatives();
    want_dm = clean.dipole_derivatives();
  }

  // Run 1: the process dies right after the 5th fresh field record became
  // durable.
  {
    fault::FaultSpec fs;
    fs.fire_at = 5;
    fault::FaultInjector::instance().configure(fault::kBecKill, fs);
    BecCalculator calc(h2(), opt);
    EXPECT_THROW(calc.polarizability_derivatives(), FaultInjected);
    EXPECT_EQ(calc.n_field_forces(), 5);
    fault::reset();
  }

  // Run 2: replays the 5 durable stencil points and evaluates only the
  // missing 8 — no re-executed field tasks.
  {
    BecCalculator resumed(h2(), opt);
    const linalg::Matrix da = resumed.polarizability_derivatives();
    const linalg::Matrix& dm = resumed.dipole_derivatives();
    EXPECT_EQ(resumed.n_field_forces(), 8);
    const auto counters = obs::Registry::instance().counter_values();
    const auto hits = counters.find("checkpoint.hits");
    ASSERT_NE(hits, counters.end());
    EXPECT_EQ(hits->second, 5.0);
    ASSERT_EQ(da.rows(), want_da.rows());
    for (std::size_t k = 0; k < da.rows(); ++k) {
      for (std::size_t j = 0; j < 9; ++j) {
        EXPECT_EQ(da(k, j), want_da(k, j)) << k << "," << j;
      }
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(dm(k, j), want_dm(k, j)) << k << "," << j;
      }
    }
  }
  std::remove(path.c_str());
  obs::Registry::instance().reset_for_testing();
  obs::set_enabled(false);
}

// The headline golden gate (ISSUE 9, DESIGN.md S15): on water at the
// golden grid the bec tier reproduces the full-DFPT spectrum within the
// documented tolerances while running >= 5x fewer engine solves. The
// Hessian/normal modes are shared — the tiers differ only in how the
// derivative tensors are obtained, which is exactly the paper's claim.
TEST(BecGolden, WaterMatchesDfptWithinToleranceAtFiveXFewerEvals) {
  fault::ScopedFaults guard;
  obs::set_enabled(true);
  obs::Registry::instance().reset_for_testing();
  const std::vector<grid::AtomSite> atoms = water();
  RamanOptions ropt;
  ropt.vibrations.scf.grid.n_radial = 28;
  ropt.vibrations.scf.grid.angular_order = 13;
  BecOptions bopt;
  bopt.vibrations = ropt.vibrations;

  const auto solves = [] {
    const auto counters = obs::Registry::instance().counter_values();
    double n = 0.0;
    for (const char* name : {"scf.solves", "dfpt.response.solves"}) {
      const auto it = counters.find(name);
      if (it != counters.end()) n += it->second;
    }
    return n;
  };

  // Fast tier: 13 finite-field SCF solves, no DFPT responses.
  BecCalculator bec(atoms, bopt);
  const std::vector<GeometryRecord> records = bec.field_records();
  const double bec_evals = solves();
  EXPECT_EQ(bec_evals, 13.0);
  linalg::Matrix da_bec;
  linalg::Matrix dm_bec;
  bec_derivatives(records, bopt.field_strength, 9, true, &da_bec, &dm_bec);

  // Full tier: 6N displaced SCF+DFPT runs.
  obs::Registry::instance().reset_for_testing();
  RamanCalculator full(atoms, ropt);
  const linalg::Matrix da_dfpt = full.polarizability_derivatives();
  const linalg::Matrix& dm_dfpt = full.dipole_derivatives();
  const double dfpt_evals = solves();
  obs::set_enabled(false);
  EXPECT_GE(dfpt_evals, 5.0 * bec_evals)
      << "bec tier lost its >=5x evaluation advantage";

  // Equilibrium polarizability: the finite-field dipole derivative is
  // Pulay-free, so it pins the field machinery against DFPT tightly.
  scf::ScfEngine eng(atoms, ropt.vibrations.scf);
  const scf::GroundState gs = eng.solve();
  dfpt::DfptEngine dfpt(eng, gs, ropt.dfpt);
  const linalg::Matrix alpha_dfpt = dfpt.polarizability();
  const linalg::Matrix alpha_ff =
      finite_field_polarizability(records, bopt.field_strength);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(alpha_ff(i, j), alpha_dfpt(i, j), 5e-3) << i << "," << j;
    }
  }

  // Derivative tensors: golden tolerances from DESIGN.md S15 (measured
  // max errors 0.013 / 0.043 at this grid, gated with ~2x headroom).
  for (std::size_t k = 0; k < 9; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(dm_bec(k, j), dm_dfpt(k, j), 0.03) << "dmu " << k;
    }
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_NEAR(da_bec(k, j), da_dfpt(k, j), 0.08) << "dalpha " << k;
    }
  }

  // Mode-level gate: identical shared modes, activities within 5%.
  const linalg::Matrix hess = energy_hessian(atoms, ropt.vibrations, 1);
  const NormalModes modes =
      normal_modes(atoms, hess, ropt.vibrations.project_rigid_body);
  const RamanSpectrum spec_bec =
      assemble_spectrum(atoms, modes, da_bec, dm_bec, ropt.mode_floor_cm);
  const RamanSpectrum spec_dfpt =
      assemble_spectrum(atoms, modes, da_dfpt, dm_dfpt, ropt.mode_floor_cm);
  ASSERT_EQ(spec_bec.modes.size(), spec_dfpt.modes.size());
  ASSERT_GE(spec_bec.modes.size(), 2u);
  bool compared = false;
  for (std::size_t m = 0; m < spec_bec.modes.size(); ++m) {
    const RamanMode& b = spec_bec.modes[m];
    const RamanMode& d = spec_dfpt.modes[m];
    EXPECT_EQ(b.frequency_cm, d.frequency_cm);  // same Hessian, bitwise
    if (d.activity < 1.0) continue;  // silent modes: absolute gate only
    EXPECT_NEAR(b.activity / d.activity, 1.0, 0.05)
        << "mode " << m << " at " << d.frequency_cm << " cm-1";
    EXPECT_NEAR(b.depolarization, d.depolarization, 0.05);
    compared = true;
  }
  EXPECT_TRUE(compared) << "no Raman-active mode survived the floor";
}

}  // namespace
}  // namespace swraman::raman
