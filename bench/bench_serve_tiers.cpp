// Accuracy-tier capacity benchmark (DESIGN.md S15): the same water-scale
// Raman job priced through both accuracy tiers.
//
//   dfpt   the full tier: 6N displaced-geometry SCF+DFPT tasks per job.
//   bec    the Born-effective-charge tier: 13 finite-field force tasks
//          per job, whatever the atom count.
//
// Two measurements, one JSON artifact:
//
//   capacity   (modeled) a batch of identical water-scale jobs is pushed
//              through the service once per tier, dedup disabled so every
//              job pays its own cost; speedup = bec jobs/s over dfpt
//              jobs/s — the capacity multiplier admission control gets to
//              sell.
//   golden     (real engine) the golden water case from DESIGN.md S15:
//              the bec tier's derivative tensors and activities against
//              full DFPT on the golden grid, with the engine-evaluation
//              counts read from the obs counters. Gates the paper claim:
//              >= 5x fewer evaluations, activities within 5%.
//
// --json writes swraman-bench-v1 records (two serve-shaped capacity
// records plus one tiers record) consumed by scripts/check_perf_json.py;
// --skip-real skips the golden stage for quick local runs (the tiers
// record then carries the analytic stencil counts, flagged measured=0).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "raman/bec.hpp"
#include "serve/service.hpp"

namespace {

using namespace swraman;
using namespace swraman::serve;

struct RunStats {
  std::string series;
  std::size_t jobs = 0;
  std::size_t nominal_tasks = 0;
  std::size_t executed_tasks = 0;
  double seconds = 0.0;
  double throughput_per_s = 0.0;  // jobs / wall second
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double cache_hit_ratio = 0.0;
};

// Golden-water accuracy + cost numbers for the tiers record.
struct TierProof {
  bool measured = false;
  double dfpt_evals = 0.0;
  double bec_evals = 0.0;
  double max_activity_rel_err = 0.0;
  double max_dmu_err = 0.0;
  double max_dalpha_err = 0.0;
  double max_freq_abs_err_cm = 0.0;
  std::size_t active_modes = 0;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

JobSpec tier_spec(Tier tier, std::size_t n_atoms, int i) {
  JobSpec spec;
  spec.client = "bench";
  spec.name = std::string(tier == Tier::Bec ? "bec" : "dfpt") + "-" +
              std::to_string(i);
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  spec.tier = tier;
  return spec;
}

RunStats run_tier(const std::string& series, Tier tier, std::size_t n_jobs,
                  std::size_t n_workers) {
  ServiceOptions options;
  options.n_workers = n_workers;
  options.use_cache = false;  // capacity, not dedup: every job pays
  options.start_paused = true;
  RamanService service(options);
  std::vector<std::uint64_t> ids;
  ids.reserve(n_jobs);
  std::size_t nominal = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const JobSpec spec = tier_spec(tier, 3, static_cast<int>(i));
    nominal += estimate_job(spec).n_tasks;
    const SubmitResult res = service.submit(spec);
    if (!res.accepted) {
      std::printf("  (rejected '%s': %s)\n", spec.name.c_str(),
                  res.reason.c_str());
      continue;
    }
    ids.push_back(res.job_id);
  }
  const auto t0 = std::chrono::steady_clock::now();
  service.start();
  std::vector<double> latencies;
  latencies.reserve(ids.size());
  for (std::uint64_t id : ids) {
    const JobResult result = service.wait(id);
    if (result.status != JobStatus::Completed) {
      std::printf("  job %llu FAILED: %s\n",
                  static_cast<unsigned long long>(id), result.error.c_str());
      continue;
    }
    latencies.push_back(result.latency_s);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const ServiceStats stats = service.stats();

  RunStats out;
  out.series = series;
  out.jobs = latencies.size();
  out.nominal_tasks = nominal;
  out.executed_tasks = stats.tasks_executed;
  out.seconds = wall;
  out.throughput_per_s = static_cast<double>(out.jobs) / wall;
  out.p50_s = percentile(latencies, 0.50);
  out.p95_s = percentile(latencies, 0.95);
  out.p99_s = percentile(latencies, 0.99);
  out.cache_hit_ratio = stats.cache_hit_ratio;
  return out;
}

// The golden water case (DESIGN.md S15): real engines, golden grid,
// obs-counted evaluations. Mirrors tests/raman/test_bec.cpp BecGolden but
// reports numbers instead of asserting, so the JSON record carries the
// measured margins.
TierProof run_golden() {
  const std::vector<grid::AtomSite> atoms = {
      {8, {0.0, 0.0, 0.3268247149}},
      {1, {1.2518316921, 0.0, 0.9437281316}},
      {1, {-1.2518316921, 0.0, 0.9437281316}}};
  raman::RamanOptions ropt;
  ropt.vibrations.scf.grid.n_radial = 28;
  ropt.vibrations.scf.grid.angular_order = 13;
  raman::BecOptions bopt;
  bopt.vibrations = ropt.vibrations;

  obs::set_enabled(true);
  obs::Registry::instance().reset_for_testing();
  const auto solves = [] {
    const auto counters = obs::Registry::instance().counter_values();
    double n = 0.0;
    for (const char* name : {"scf.solves", "dfpt.response.solves"}) {
      const auto it = counters.find(name);
      if (it != counters.end()) n += it->second;
    }
    return n;
  };

  TierProof proof;
  proof.measured = true;

  raman::BecCalculator bec(atoms, bopt);
  const std::vector<raman::GeometryRecord> records = bec.field_records();
  proof.bec_evals = solves();
  linalg::Matrix da_bec;
  linalg::Matrix dm_bec;
  raman::bec_derivatives(records, bopt.field_strength, 9, true, &da_bec,
                         &dm_bec);

  obs::Registry::instance().reset_for_testing();
  raman::RamanCalculator full(atoms, ropt);
  const linalg::Matrix da_dfpt = full.polarizability_derivatives();
  const linalg::Matrix& dm_dfpt = full.dipole_derivatives();
  proof.dfpt_evals = solves();
  obs::set_enabled(false);

  for (std::size_t k = 0; k < 9; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      proof.max_dmu_err =
          std::max(proof.max_dmu_err, std::abs(dm_bec(k, j) - dm_dfpt(k, j)));
    }
    for (std::size_t j = 0; j < 9; ++j) {
      proof.max_dalpha_err = std::max(
          proof.max_dalpha_err, std::abs(da_bec(k, j) - da_dfpt(k, j)));
    }
  }

  const linalg::Matrix hess = raman::energy_hessian(atoms, ropt.vibrations, 1);
  const raman::NormalModes modes = raman::normal_modes(
      atoms, hess, ropt.vibrations.project_rigid_body);
  const raman::RamanSpectrum spec_bec = raman::assemble_spectrum(
      atoms, modes, da_bec, dm_bec, ropt.mode_floor_cm);
  const raman::RamanSpectrum spec_dfpt = raman::assemble_spectrum(
      atoms, modes, da_dfpt, dm_dfpt, ropt.mode_floor_cm);
  const std::size_t n_modes =
      std::min(spec_bec.modes.size(), spec_dfpt.modes.size());
  for (std::size_t m = 0; m < n_modes; ++m) {
    const raman::RamanMode& b = spec_bec.modes[m];
    const raman::RamanMode& d = spec_dfpt.modes[m];
    proof.max_freq_abs_err_cm = std::max(
        proof.max_freq_abs_err_cm, std::abs(b.frequency_cm - d.frequency_cm));
    if (d.activity < 1.0) continue;  // silent modes: no relative gate
    ++proof.active_modes;
    proof.max_activity_rel_err = std::max(
        proof.max_activity_rel_err, std::abs(b.activity / d.activity - 1.0));
  }
  return proof;
}

void write_json(const std::string& path, const std::vector<RunStats>& runs,
                double speedup, const TierProof& proof) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"swraman-bench-v1\",\n"
      << "  \"bench\": \"serve_tiers\",\n  \"records\": [\n";
  for (const RunStats& r : runs) {
    out << "    {\"series\": \"" << r.series << "\", \"jobs\": " << r.jobs
        << ", \"tasks\": " << r.nominal_tasks
        << ", \"executed_tasks\": " << r.executed_tasks
        << ", \"seconds\": " << r.seconds
        << ", \"throughput_per_s\": " << r.throughput_per_s
        << ", \"p50_s\": " << r.p50_s << ", \"p95_s\": " << r.p95_s
        << ", \"p99_s\": " << r.p99_s
        << ", \"cache_hit_ratio\": " << r.cache_hit_ratio << "},\n";
  }
  out << "    {\"series\": \"tiers\", \"speedup\": " << speedup
      << ", \"dfpt_evals\": " << proof.dfpt_evals
      << ", \"bec_evals\": " << proof.bec_evals
      << ", \"measured\": " << (proof.measured ? 1 : 0)
      << ", \"max_activity_rel_err\": " << proof.max_activity_rel_err
      << ", \"max_dmu_err\": " << proof.max_dmu_err
      << ", \"max_dalpha_err\": " << proof.max_dalpha_err
      << ", \"max_freq_abs_err_cm\": " << proof.max_freq_abs_err_cm
      << ", \"active_modes\": " << proof.active_modes << "}\n"
      << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

void print_stats(const RunStats& r) {
  std::printf(
      "%-6s  %3zu jobs  %4zu nominal / %4zu executed tasks  %7.3f s  "
      "%6.1f jobs/s  p50 %.3f  p95 %.3f  p99 %.3f\n",
      r.series.c_str(), r.jobs, r.nominal_tasks, r.executed_tasks, r.seconds,
      r.throughput_per_s, r.p50_s, r.p95_s, r.p99_s);
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Warn);
  std::string json_path;
  std::size_t n_workers = 4;
  std::size_t n_jobs = 32;
  bool skip_real = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      n_workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      n_jobs = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--skip-real") == 0) {
      skip_real = true;
    }
  }

  std::printf("bench_serve_tiers: %zu water-scale jobs per tier, %zu workers\n",
              n_jobs, n_workers);
  const RunStats dfpt = run_tier("modeled-dfpt", Tier::Dfpt, n_jobs, n_workers);
  print_stats(dfpt);
  const RunStats bec = run_tier("modeled-bec", Tier::Bec, n_jobs, n_workers);
  print_stats(bec);
  const double speedup = bec.throughput_per_s / dfpt.throughput_per_s;
  std::printf("capacity speedup (bec/dfpt): %.2fx\n\n", speedup);

  TierProof proof;
  if (skip_real) {
    // Analytic stencil counts for the water case (13 field solves vs
    // 18 displaced SCF + 54 DFPT responses), flagged as unmeasured.
    proof.bec_evals = static_cast<double>(raman::n_field_points());
    proof.dfpt_evals = 72.0;
    std::printf("golden water stage skipped (--skip-real)\n");
  } else {
    std::printf("golden water case (real engine, grid 28/13)...\n");
    proof = run_golden();
    std::printf(
        "  evals dfpt %.0f / bec %.0f (%.2fx)  dmu %.4f  dalpha %.4f  "
        "freq %.2e cm-1  activity rel %.4f over %zu active modes\n",
        proof.dfpt_evals, proof.bec_evals, proof.dfpt_evals / proof.bec_evals,
        proof.max_dmu_err, proof.max_dalpha_err, proof.max_freq_abs_err_cm,
        proof.max_activity_rel_err, proof.active_modes);
  }

  if (!json_path.empty()) write_json(json_path, {dfpt, bec}, speedup, proof);

  // Acceptance. Capacity: the 13-point tier must beat 6N displacements on
  // wall clock, not just task count. Accuracy (measured runs): the
  // DESIGN.md S15 golden tolerances with the >=5x evaluation claim.
  bool ok = true;
  if (speedup < 1.2) {
    std::printf("bench_serve_tiers: FAIL capacity speedup %.2f < 1.2\n",
                speedup);
    ok = false;
  }
  if (proof.dfpt_evals < 5.0 * proof.bec_evals) {
    std::printf("bench_serve_tiers: FAIL eval ratio %.2f < 5\n",
                proof.dfpt_evals / proof.bec_evals);
    ok = false;
  }
  if (proof.measured) {
    if (proof.active_modes == 0) {
      std::printf("bench_serve_tiers: FAIL no Raman-active mode\n");
      ok = false;
    }
    if (proof.max_activity_rel_err > 0.05) {
      std::printf("bench_serve_tiers: FAIL activity rel err %.4f > 0.05\n",
                  proof.max_activity_rel_err);
      ok = false;
    }
    if (proof.max_freq_abs_err_cm != 0.0) {
      std::printf("bench_serve_tiers: FAIL shared-Hessian frequencies differ\n");
      ok = false;
    }
    if (proof.max_dmu_err > 0.03 || proof.max_dalpha_err > 0.08) {
      std::printf("bench_serve_tiers: FAIL tensor errors %.4f / %.4f exceed "
                  "0.03 / 0.08\n",
                  proof.max_dmu_err, proof.max_dalpha_err);
      ok = false;
    }
  }
  std::printf("bench_serve_tiers: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
