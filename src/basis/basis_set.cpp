#include "basis/basis_set.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "grid/ylm.hpp"

namespace swraman::basis {

BasisSet::BasisSet(std::vector<grid::AtomSite> atoms,
                   const SpeciesOptions& options)
    : atoms_(std::move(atoms)), options_(options) {
  SWRAMAN_REQUIRE(!atoms_.empty(), "BasisSet: no atoms");
  species_.reserve(atoms_.size());
  for (const grid::AtomSite& atom : atoms_) {
    species_.push_back(&species(atom.z, options_));
  }
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    const Species& sp = *species_[a];
    for (std::size_t f = 0; f < sp.fns.size(); ++f) {
      const int l = sp.fns[f].l;
      for (int m = -l; m <= l; ++m) {
        fns_.push_back({static_cast<int>(a), static_cast<int>(f), l, m});
      }
    }
  }
}

const Species& BasisSet::species_of(std::size_t atom) const {
  SWRAMAN_REQUIRE(atom < species_.size(), "species_of: atom index");
  return *species_[atom];
}

double BasisSet::n_electrons() const {
  double n = 0.0;
  for (const Species* sp : species_) n += sp->z_valence;
  return n;
}

double BasisSet::max_cutoff() const {
  double c = 0.0;
  for (const Species* sp : species_) {
    for (const RadialFn& fn : sp->fns) c = std::max(c, fn.cutoff);
  }
  return c;
}

std::vector<std::size_t> BasisSet::local_functions(const Vec3& center,
                                                   double radius) const {
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < fns_.size(); ++k) {
    const Fn& fn = fns_[k];
    const Species& sp = *species_[static_cast<std::size_t>(fn.atom)];
    const double cutoff = sp.fns[static_cast<std::size_t>(fn.species_fn)].cutoff;
    const double d =
        distance(center, atoms_[static_cast<std::size_t>(fn.atom)].pos);
    if (d <= cutoff + radius) ids.push_back(k);
  }
  return ids;
}

void BasisSet::evaluate(const std::vector<std::size_t>& fn_ids,
                        const Vec3* points, std::size_t n_points,
                        linalg::Matrix& values,
                        linalg::Matrix* laplacians) const {
  values = linalg::Matrix(fn_ids.size(), n_points);
  if (laplacians != nullptr) {
    *laplacians = linalg::Matrix(fn_ids.size(), n_points);
  }
  if (fn_ids.empty() || n_points == 0) return;

  // Group selected functions by atom so Y_lm is computed once per
  // (point, atom) pair.
  std::vector<std::vector<std::size_t>> by_atom(atoms_.size());
  int lmax = 0;
  for (std::size_t k = 0; k < fn_ids.size(); ++k) {
    const Fn& fn = fns_[fn_ids[k]];
    by_atom[static_cast<std::size_t>(fn.atom)].push_back(k);
    lmax = std::max(lmax, fn.l);
  }

  std::vector<double> ylm;
  grid::YlmWorkspace ylm_ws;
  for (std::size_t p = 0; p < n_points; ++p) {
    const Vec3& x = points[p];
    for (std::size_t a = 0; a < atoms_.size(); ++a) {
      if (by_atom[a].empty()) continue;
      const Species& sp = *species_[a];
      const Vec3 d = x - atoms_[a].pos;
      double r = d.norm();
      // Points essentially on the nucleus: clamp into the mesh.
      r = std::max(r, sp.mesh.r_min());
      grid::real_ylm(d, lmax, ylm, ylm_ws);

      const double t = sp.mesh.fractional_index(r);
      const double alpha = sp.mesh.alpha();
      for (std::size_t k : by_atom[a]) {
        const Fn& fn = fns_[fn_ids[k]];
        const RadialFn& rf = sp.fns[static_cast<std::size_t>(fn.species_fn)];
        if (r >= rf.cutoff) continue;  // matrices start zeroed
        const double y = ylm[grid::lm_index(fn.l, fn.m)];
        const double rv = rf.shape.value(t);
        values(k, p) = rv * y;
        if (laplacians != nullptr) {
          // Chain rule from index space: R' = R_t/(alpha r),
          // R'' = (R_tt/alpha^2 - R_t/alpha)/r^2.
          const double rt = rf.shape.derivative(t);
          const double rtt = rf.shape.second_derivative(t);
          const double r1 = rt / (alpha * r);
          const double r2 = (rtt / (alpha * alpha) - rt / alpha) / (r * r);
          const double ll = static_cast<double>(fn.l) * (fn.l + 1);
          (*laplacians)(k, p) = (r2 + 2.0 * r1 / r - ll * rv / (r * r)) * y;
        }
      }
    }
  }
}

double BasisSet::free_atom_density(const Vec3& point) const {
  double n = 0.0;
  for (std::size_t a = 0; a < atoms_.size(); ++a) {
    const double r = distance(point, atoms_[a].pos);
    n += species_[a]->density_value(r);
  }
  return n;
}

}  // namespace swraman::basis
