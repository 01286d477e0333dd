#include "raman/bec.hpp"

#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/comm.hpp"
#include "raman/checkpoint.hpp"
#include "robustness/fault.hpp"
#include "scf/scf_engine.hpp"

namespace swraman::raman {

namespace {

// Stencil table: idx 0 zero field, 1..6 signed axes, 7..12 signed axis
// pairs (see bec.hpp). Order is load-bearing — checkpoint records and
// serve cache keys are keyed by the index.
constexpr std::array<std::array<int, 3>, 13> kStencil = {{
    {0, 0, 0},
    {+1, 0, 0},
    {-1, 0, 0},
    {0, +1, 0},
    {0, -1, 0},
    {0, 0, +1},
    {0, 0, -1},
    {+1, +1, 0},
    {-1, -1, 0},
    {0, +1, +1},
    {0, -1, -1},
    {+1, 0, +1},
    {-1, 0, -1},
}};

// Stencil indices of +/- E e_a and +/- E (e_a + e_b).
constexpr int axis_plus(int a) { return 1 + 2 * a; }
constexpr int axis_minus(int a) { return 2 + 2 * a; }
constexpr int pair_plus(int a, int b) {
  // (0,1) -> 7, (1,2) -> 9, (0,2) -> 11, symmetric in (a, b).
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  return lo == 0 ? (hi == 1 ? 7 : 11) : 9;
}
constexpr int pair_minus(int a, int b) { return pair_plus(a, b) + 1; }

}  // namespace

int n_field_points() { return static_cast<int>(kStencil.size()); }

std::array<int, 3> field_direction(int idx) {
  SWRAMAN_REQUIRE(idx >= 0 && idx < n_field_points(),
                  "field_direction: stencil index out of range");
  return kStencil[static_cast<std::size_t>(idx)];
}

Vec3 field_vector(int idx, double strength) {
  const std::array<int, 3> d = field_direction(idx);
  return {strength * d[0], strength * d[1], strength * d[2]};
}

void bec_derivatives(const std::vector<GeometryRecord>& records,
                     double field_strength, std::size_t n_coords,
                     bool enforce_sum_rule, linalg::Matrix* dalpha,
                     linalg::Matrix* dmu) {
  SWRAMAN_REQUIRE(records.size() == static_cast<std::size_t>(n_field_points()),
                  "bec_derivatives: expected one record per stencil point");
  SWRAMAN_REQUIRE(field_strength > 0.0,
                  "bec_derivatives: field strength must be positive");
  for (const GeometryRecord& r : records) {
    SWRAMAN_REQUIRE(r.forces.size() == n_coords,
                    "bec_derivatives: record forces have wrong length");
  }
  const double e = field_strength;
  linalg::Matrix da(n_coords, 9);
  linalg::Matrix dm(n_coords, 3);
  for (std::size_t k = 0; k < n_coords; ++k) {
    const double f0 = records[0].forces[k];
    for (int a = 0; a < 3; ++a) {
      const double fp = records[static_cast<std::size_t>(axis_plus(a))].forces[k];
      const double fm =
          records[static_cast<std::size_t>(axis_minus(a))].forces[k];
      // Z*_{k,a} = dF_k/dE_a = dmu_a/dR_k.
      dm(k, static_cast<std::size_t>(a)) = (fp - fm) / (2.0 * e);
      // d alpha_aa / dR_k = d^2 F_k / dE_a^2.
      da(k, static_cast<std::size_t>(4 * a)) = (fp + fm - 2.0 * f0) / (e * e);
    }
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        const double fpp =
            records[static_cast<std::size_t>(pair_plus(a, b))].forces[k];
        const double fmm =
            records[static_cast<std::size_t>(pair_minus(a, b))].forces[k];
        const double fa_p =
            records[static_cast<std::size_t>(axis_plus(a))].forces[k];
        const double fa_m =
            records[static_cast<std::size_t>(axis_minus(a))].forces[k];
        const double fb_p =
            records[static_cast<std::size_t>(axis_plus(b))].forces[k];
        const double fb_m =
            records[static_cast<std::size_t>(axis_minus(b))].forces[k];
        // d alpha_ab / dR_k = d^2 F_k / dE_a dE_b from the diagonal-pair
        // stencil: [F(+ab) + F(-ab) - F(+-a) - F(+-b) + 2 F(0)] / 2 E^2.
        const double cross =
            (fpp + fmm - fa_p - fa_m - fb_p - fb_m + 2.0 * f0) /
            (2.0 * e * e);
        da(k, static_cast<std::size_t>(3 * a + b)) = cross;
        da(k, static_cast<std::size_t>(3 * b + a)) = cross;
      }
    }
  }
  if (enforce_sum_rule) {
    // Translation sum rule: displacing every atom together changes
    // neither mu nor alpha, so each column must sum to zero over atoms
    // per Cartesian direction. Subtracting the atomic mean removes the
    // rigid part of the missing Pulay contribution.
    const std::size_t n_atoms = n_coords / 3;
    if (n_atoms > 0) {
      for (int c = 0; c < 3; ++c) {
        for (std::size_t j = 0; j < 9; ++j) {
          double mean = 0.0;
          for (std::size_t at = 0; at < n_atoms; ++at) {
            mean += da(3 * at + static_cast<std::size_t>(c), j);
          }
          mean /= static_cast<double>(n_atoms);
          for (std::size_t at = 0; at < n_atoms; ++at) {
            da(3 * at + static_cast<std::size_t>(c), j) -= mean;
          }
        }
        for (std::size_t j = 0; j < 3; ++j) {
          double mean = 0.0;
          for (std::size_t at = 0; at < n_atoms; ++at) {
            mean += dm(3 * at + static_cast<std::size_t>(c), j);
          }
          mean /= static_cast<double>(n_atoms);
          for (std::size_t at = 0; at < n_atoms; ++at) {
            dm(3 * at + static_cast<std::size_t>(c), j) -= mean;
          }
        }
      }
    }
  }
  if (dalpha != nullptr) *dalpha = std::move(da);
  if (dmu != nullptr) *dmu = std::move(dm);
}

linalg::Matrix finite_field_polarizability(
    const std::vector<GeometryRecord>& records, double field_strength) {
  SWRAMAN_REQUIRE(records.size() == static_cast<std::size_t>(n_field_points()),
                  "finite_field_polarizability: expected 13 records");
  SWRAMAN_REQUIRE(field_strength > 0.0,
                  "finite_field_polarizability: positive field required");
  linalg::Matrix alpha(3, 3);
  for (int b = 0; b < 3; ++b) {
    const GeometryRecord& plus = records[static_cast<std::size_t>(axis_plus(b))];
    const GeometryRecord& minus =
        records[static_cast<std::size_t>(axis_minus(b))];
    for (int a = 0; a < 3; ++a) {
      // alpha_ab = dmu_a/dE_b; the sign convention matches gs.dipole
      // (nuclei minus electrons) with v_field = +E.r in solve_attempt.
      alpha(static_cast<std::size_t>(a), static_cast<std::size_t>(b)) =
          (plus.dipole[static_cast<std::size_t>(a)] -
           minus.dipole[static_cast<std::size_t>(a)]) /
          (2.0 * field_strength);
    }
  }
  return alpha;
}

scf::GroundState field_scf(const std::vector<grid::AtomSite>& atoms,
                           const scf::ScfOptions& scf_options,
                           double strength, int idx) {
  scf::ScfOptions opts = scf_options;
  opts.electric_field = field_vector(idx, strength);
  scf::ScfEngine engine(atoms, opts);
  scf::GroundState gs = engine.solve();
  if (!gs.converged) {
    throw ConvergenceError("finite-field SCF did not converge");
  }
  return gs;
}

GeometryRecord field_record(const scf::GroundState& gs, const Vec3& field,
                            const scf::ForceEvaluator& forces) {
  GeometryRecord rec;
  rec.forces = forces.forces(gs, field);
  for (std::size_t i = 0; i < 3; ++i) {
    rec.dipole[i] = gs.dipole[static_cast<int>(i)];
  }
  return rec;
}

GeometryRecord field_point(const std::vector<grid::AtomSite>& atoms,
                           const scf::ScfOptions& scf_options,
                           double strength, int idx,
                           const scf::ForceEvaluator& forces) {
  return field_record(field_scf(atoms, scf_options, strength, idx),
                      field_vector(idx, strength), forces);
}

BecCalculator::BecCalculator(std::vector<grid::AtomSite> atoms,
                             BecOptions options)
    : atoms_(std::move(atoms)), options_(std::move(options)) {
  SWRAMAN_REQUIRE(!atoms_.empty(), "BecCalculator: no atoms");
  SWRAMAN_REQUIRE(options_.field_strength > 0.0,
                  "BecCalculator: field strength must be positive");
}

std::vector<GeometryRecord> BecCalculator::field_records() {
  SWRAMAN_TRACE_SPAN(span, "raman.bec.fields");
  const int n = n_field_points();
  if (span.active()) span.attr("points", static_cast<double>(n));
  Checkpoint ckpt;
  if (!options_.checkpoint_path.empty()) {
    // The header's displacement slot carries the field strength, so a
    // resume with a different field refuses to mix records.
    ckpt = Checkpoint(options_.checkpoint_path, atoms_,
                      options_.field_strength);
  }
  std::vector<TaskKey> keys;
  for (int idx = 0; idx < n; ++idx) {
    keys.emplace_back(static_cast<std::size_t>(idx), 0);
  }
  // The field SCFs run as ranks and keep their states; the forces follow
  // on this thread (see field_records in bec.hpp).
  std::vector<scf::GroundState> states(keys.size());
  std::unique_ptr<scf::ForceEvaluator> forces;
  return replay_or_evaluate(
      ckpt, keys, kDefaultTaskAttempts, fault::kBecKill,
      parallel::host_ranks(),
      [&](std::size_t idx) {
        SWRAMAN_TRACE_SPAN(field, "raman.bec.field");
        if (field.active()) field.attr("field", static_cast<double>(idx));
        states[idx] = field_scf(atoms_, options_.vibrations.scf,
                                options_.field_strength,
                                static_cast<int>(idx));
        return GeometryRecord{};
      },
      &n_field_forces_,
      [&](std::size_t idx, GeometryRecord& rec) {
        if (!forces) {
          forces = std::make_unique<scf::ForceEvaluator>(
              atoms_, options_.vibrations.scf);
        }
        rec = field_record(
            states[idx],
            field_vector(static_cast<int>(idx), options_.field_strength),
            *forces);
      });
}

linalg::Matrix BecCalculator::polarizability_derivatives() {
  SWRAMAN_TRACE_SPAN(span, "raman.bec.dalpha");
  const std::size_t n_coords = 3 * atoms_.size();
  if (span.active()) span.attr("coords", static_cast<double>(n_coords));
  const std::vector<GeometryRecord> records = field_records();
  linalg::Matrix dalpha;
  bec_derivatives(records, options_.field_strength, n_coords,
                  options_.enforce_sum_rule, &dalpha, &dmu_);
  return dalpha;
}

RamanSpectrum BecCalculator::compute() {
  SWRAMAN_TRACE_SPAN(span, "raman.bec.compute");
  if (span.active()) span.attr("atoms", static_cast<double>(atoms_.size()));

  // Step 1: Hessian and normal modes — identical to the full pipeline,
  // so frequencies agree near-exactly between the tiers.
  linalg::Matrix hess;
  {
    SWRAMAN_TRACE_SCOPE("raman.hessian");
    hess = energy_hessian(atoms_, options_.vibrations,
                          parallel::host_ranks());
  }
  const NormalModes modes =
      normal_modes(atoms_, hess, options_.vibrations.project_rigid_body);

  // Step 2: derivative tensors from the 13-point field stencil.
  const linalg::Matrix dalpha = polarizability_derivatives();

  // Steps 3 + 4: the shared Eq. 5 contraction and mode table.
  RamanSpectrum spec = assemble_spectrum(atoms_, modes, dalpha, dmu_,
                                         options_.mode_floor_cm);
  spec.n_polarizabilities = 0;
  spec.n_field_forces = n_field_forces_;
  return spec;
}

}  // namespace swraman::raman
