#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>

#include "raman/bec.hpp"
#include "raman/raman.hpp"

namespace swraman::serve {

raman::GeometryRecord RealEngine::evaluate(const TaskContext& ctx) {
  const JobSpec& spec = *ctx.spec;
  if (!ctx.field_force) {
    return raman::displaced_polarizability(spec.atoms, spec.options,
                                           ctx.coord, ctx.sign);
  }

  // Shared field-free displaced-sibling evaluator (see engine.hpp).
  std::shared_ptr<const scf::ForceEvaluator> evaluator;
  {
    Hash64 h;
    h.str("force-evaluator");
    h.u64(settings_fingerprint(spec));
    for (const auto& a : spec.atoms) {
      h.u64(static_cast<std::uint64_t>(a.z));
      h.f64(a.pos.x);
      h.f64(a.pos.y);
      h.f64(a.pos.z);
    }
    const std::uint64_t key = h.value();
    lockcheck::CheckedLock guard(forces_mutex_);
    if (!forces_ || forces_key_ != key) {
      forces_ = std::make_shared<const scf::ForceEvaluator>(
          spec.atoms, spec.options.vibrations.scf);
      forces_key_ = key;
    }
    evaluator = forces_;
  }
  return raman::field_point(spec.atoms, spec.options.vibrations.scf,
                            spec.bec_field, static_cast<int>(ctx.coord),
                            *evaluator);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

double unit_double(std::uint64_t bits) {
  // [0, 1) from the top 53 bits.
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

ModeledEngine::ModeledEngine(ModeledEngineOptions options)
    : options_(options) {}

raman::GeometryRecord ModeledEngine::evaluate(const TaskContext& ctx) {
  // The synthetic record is a pure function of (canonical key, seed): two
  // evaluations of the same content — whatever job, tenant, or schedule
  // asked for them — agree bitwise, which is what lets the bench assert
  // dedup changes nothing.
  std::uint64_t state = ctx.canonical_key ^ options_.seed;
  raman::GeometryRecord canonical;
  if (ctx.field_force) {
    // Field-force task: the record is a 3N force vector (plus the field
    // dipole), same deterministic-stream contract as displacements.
    canonical.forces.resize(ctx.n_forces);
    for (auto& f : canonical.forces) {
      f = 0.1 * (unit_double(splitmix64(state)) - 0.5);
    }
    for (int i = 0; i < 3; ++i) {
      canonical.dipole[i] = 0.2 * (unit_double(splitmix64(state)) - 0.5);
    }
  } else {
    for (int i = 0; i < 3; ++i) {
      for (int j = i; j < 3; ++j) {
        const double v = i == j
                             ? 4.0 + 2.0 * unit_double(splitmix64(state))
                             : 0.4 * (unit_double(splitmix64(state)) - 0.5);
        canonical.alpha[3 * i + j] = v;
        canonical.alpha[3 * j + i] = v;  // symmetric, like the real tensor
      }
      canonical.dipole[i] = 0.2 * (unit_double(splitmix64(state)) - 0.5);
    }
  }

  // Burn CPU proportional to the task's modeled cost so the scheduler
  // bench contends over paper-shaped work. Iteration-counted (not
  // wall-clocked): the amount of work is deterministic.
  const double target =
      ctx.cost_seconds * options_.iterations_per_modeled_second;
  const std::uint64_t iters = std::clamp(
      static_cast<std::uint64_t>(target), options_.min_iterations,
      options_.max_iterations);
  double acc = 0.0;
  std::uint64_t x = state | 1u;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xffff);
  }
  sink_.store(acc, std::memory_order_relaxed);

  // Own frame = inverse(to_canonical) applied to the canonical tensor, so
  // the service's map back to the canonical frame is an exact round trip.
  const AxisTransform from = inverse(ctx.to_canonical);
  raman::GeometryRecord rec;
  rec.alpha = apply_tensor(from, canonical.alpha);
  rec.dipole = apply_vector(from, canonical.dipole);
  if (!canonical.forces.empty()) {
    rec.forces = apply_forces(from, canonical.forces);
  }
  return rec;
}

}  // namespace swraman::serve
