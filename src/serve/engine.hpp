#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/lockcheck.hpp"
#include "scf/forces.hpp"
#include "serve/job.hpp"

// Displacement-task execution backends. The service hands a backend one
// task at a time:
//
//   RealEngine     the real solves, through the same task functions the
//                  serial calculators call: raman::displaced_polarizability
//                  (SCF + DFPT on the displaced molecule) and
//                  raman::field_point (finite-field SCF + forces, the
//                  two halves BecCalculator runs), so a served job
//                  reproduces the single-job pipeline bitwise.
//   ModeledEngine  deterministic synthetic evaluation for machine-scale
//                  systems (RBD, Table-1 silicon): the result is a pure
//                  function of (canonical key, seed) and the engine burns
//                  a calibrated amount of CPU proportional to the task's
//                  sunway-cost-model seconds, so scheduler benchmarks
//                  exercise real contention with paper-shaped costs.

namespace swraman::serve {

struct TaskContext {
  const JobSpec* spec = nullptr;
  std::size_t coord = 0;  // displacement coordinate, or field stencil index
  int sign = +1;          // 0 for field-force tasks
  std::uint64_t canonical_key = 0;
  AxisTransform to_canonical;    // canonical frame = T(own frame)
  double cost_seconds = 0.0;     // modeled cost of this evaluation
  bool field_force = false;      // bec tier: coord is the stencil index
  std::size_t n_forces = 0;      // 3N force components (field tasks only)
};

class DisplacementEngine {
 public:
  virtual ~DisplacementEngine() = default;
  // Polarizability + dipole of the displaced geometry — or, for a
  // field-force task, the 3N force vector at one field stencil point —
  // in the task's own frame. May throw (ConvergenceError, TimeoutError,
  // injected faults); the service owns the bounded retry.
  virtual raman::GeometryRecord evaluate(const TaskContext& ctx) = 0;
};

class RealEngine : public DisplacementEngine {
 public:
  raman::GeometryRecord evaluate(const TaskContext& ctx) override;

 private:
  // The 13 field stencil points of one bec job share the equilibrium
  // displaced-sibling engines, so the evaluator (a 6N engine build, no
  // SCF) is cached across tasks keyed by (geometry, settings). forces()
  // is const and safe to call concurrently; the shared_ptr keeps an old
  // evaluator alive for in-flight tasks while a new job swaps it out.
  lockcheck::CheckedMutex forces_mutex_{"serve.real.forces"};
  std::uint64_t forces_key_ = 0;
  std::shared_ptr<const scf::ForceEvaluator> forces_;
};

struct ModeledEngineOptions {
  std::uint64_t seed = 12345;
  // Spin iterations burned per modeled second. Trace jobs model at
  // roughly 1-2.5 s/task, so the default maps a displacement to ~1 ms of
  // real CPU (the xorshift loop retires ~1e9 iterations/s): long enough
  // to dominate scheduling overhead, short enough for second-scale
  // benches. Clamped to keep outliers bounded.
  double iterations_per_modeled_second = 400000.0;
  std::uint64_t min_iterations = 2000;
  std::uint64_t max_iterations = 5000000;
};

class ModeledEngine : public DisplacementEngine {
 public:
  explicit ModeledEngine(ModeledEngineOptions options = {});
  raman::GeometryRecord evaluate(const TaskContext& ctx) override;

 private:
  ModeledEngineOptions options_;
  // Spin-kernel results land here so the work cannot be optimized away.
  std::atomic<double> sink_{0.0};
};

// splitmix64: the deterministic stream behind modeled results.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace swraman::serve
