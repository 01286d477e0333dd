#pragma once

#include <cstddef>
#include <vector>

#include "common/vec3.hpp"

// Real spherical harmonics Y_lm on the unit sphere, with the standard
// quantum-chemistry ordering and normalization:
//
//   integral Y_lm Y_l'm' dOmega = delta_ll' delta_mm'
//
// Real harmonics are indexed by (l, m) with m = -l..l; m < 0 are the
// sin(|m| phi) combinations, m > 0 the cos(m phi) ones. The flat index is
// lm_index(l, m) = l*(l+1) + m, covering 0..(lmax+1)^2 - 1.

namespace swraman::grid {

constexpr std::size_t lm_index(int l, int m) {
  return static_cast<std::size_t>(l * (l + 1) + m);
}

constexpr std::size_t n_lm(int lmax) {
  return static_cast<std::size_t>((lmax + 1) * (lmax + 1));
}

// Scratch buffers for real_ylm: hold one per thread and the evaluation
// never heap-allocates after the first call (the hot Hartree / FMM
// per-point paths depend on this).
struct YlmWorkspace {
  std::vector<double> q;   // associated-Legendre table
  std::vector<double> cm;  // cos(m phi)
  std::vector<double> sm;  // sin(m phi)
};

// Evaluates all real Y_lm for l = 0..lmax at unit direction u into out
// (resized to n_lm(lmax)). u does not need to be normalized; the zero vector
// maps to the north pole. The Legendre recurrence coefficients come from a
// process-wide immutable table, so a call costs no sqrt or division per
// (l, m).
void real_ylm(const Vec3& u, int lmax, std::vector<double>& out,
              YlmWorkspace& ws);

// Convenience overload with internal scratch (allocates per call).
void real_ylm(const Vec3& u, int lmax, std::vector<double>& out);

// Convenience wrapper returning the vector.
std::vector<double> real_ylm(const Vec3& u, int lmax);

}  // namespace swraman::grid
