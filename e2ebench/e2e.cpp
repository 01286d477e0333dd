// swraman_e2e: the workload half of the repo benchmark (README.md beside
// this file). run.py builds it and drives two subcommands:
//
//   swraman_e2e setup <workload> <seed> <root>
//       Builds the workload's first engine in a fresh process and prints
//       {"setup_s": ...}. run.py repeats it and reports the median.
//   swraman_e2e run <workload> <seed> <seconds> <trace 0|1> <out_dir> <root>
//       Runs timed rounds of the workload through the library's public
//       entry points, checks every output, and writes out_dir/result.json.
//       With trace=1 it runs one untraced round and two traced rounds,
//       writes the obs perf report (swraman-perf-v1) of the traced set-up
//       and of each traced round next to it, then times the scaling
//       ladder; run.py reads the per-layer numbers from those reports.
//
// The benchmark measures from outside: its own spans ("bench.*") wrap the
// public calls it makes, and every inner phase comes from the spans and
// counters the library already records.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/swraman.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "raman/bec.hpp"

namespace {

using namespace swraman;
using Atoms = std::vector<grid::AtomSite>;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Times fn() in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return seconds_since(t0);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// splitmix64: the workload generator, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

Atoms translated(Atoms atoms, const Vec3& t) {
  for (grid::AtomSite& a : atoms) a.pos = a.pos + t;
  return atoms;
}

Vec3 random_shift(Rng& rng, double max_bohr) {
  return {rng.uniform(-max_bohr, max_bohr), rng.uniform(-max_bohr, max_bohr),
          rng.uniform(-max_bohr, max_bohr)};
}

// ---------------------------------------------------------------------------
// Numerics and references

// The golden test's BFGS-relaxed water (tests/golden/test_golden_spectrum.cpp)
// — the geometry the golden spectrum belongs to.
Atoms golden_water() {
  return {{8, {0.0, 0.0, 0.3268247149}},
          {1, {1.2518316921, 0.0, 0.9437281316}},
          {1, {-1.2518316921, 0.0, 0.9437281316}}};
}

// The golden test's numerics: light grid, 16 radial shells, order 7.
raman::RamanOptions golden_raman_options() {
  raman::RamanOptions opt;
  opt.vibrations.scf.grid.n_radial = 16;
  opt.vibrations.scf.grid.angular_order = 7;
  return opt;
}

raman::BecOptions golden_bec_options() {
  raman::BecOptions opt;
  opt.vibrations = golden_raman_options().vibrations;
  return opt;
}

// Default light numerics with the flop-model Hartree backend selector.
scf::ScfOptions cluster_scf_options() {
  scf::ScfOptions opt;
  opt.hartree_backend = fmm::HartreeBackend::Auto;
  return opt;
}

constexpr std::size_t kClusterMonomers = 6;
// Experimental water fundamentals (bend, symmetric, antisymmetric stretch).
constexpr std::array<double, 3> kWaterFundamentalsCm = {1595.0, 3657.0,
                                                        3756.0};

struct GoldenMode {
  double frequency_cm = 0.0;
  double activity = 0.0;
  double depolarization = 0.0;
};

struct Golden {
  std::vector<GoldenMode> modes;
  double freq_tol_cm = 0.0;
  double activity_rel_tol = 0.0;
  double depol_tol = 0.0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  SWRAMAN_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Reads `constexpr double <name> = <value>;` from the golden test source,
// so the benchmark checks against the tolerances the test itself uses.
double source_constant(const std::string& source, const std::string& name) {
  const std::string key = "double " + name + " =";
  const std::size_t at = source.find(key);
  SWRAMAN_REQUIRE(at != std::string::npos,
                  "golden tolerance " + name + " not found");
  return std::strtod(source.c_str() + at + key.size(), nullptr);
}

// The checked-in golden water spectrum and the golden test's tolerances,
// read at run time so a regenerated golden carries over.
Golden load_golden(const std::string& root) {
  Golden g;
  std::istringstream lines(
      read_file(root + "/tests/golden/golden_water_raman.txt"));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    GoldenMode m;
    SWRAMAN_REQUIRE(static_cast<bool>(ss >> m.frequency_cm >> m.activity >>
                                      m.depolarization),
                    "golden file: malformed line '" + line + "'");
    g.modes.push_back(m);
  }
  const std::string test =
      read_file(root + "/tests/golden/test_golden_spectrum.cpp");
  g.freq_tol_cm = source_constant(test, "kFreqTolCm");
  g.activity_rel_tol = source_constant(test, "kActivityRelTol");
  g.depol_tol = source_constant(test, "kDepolTol");
  SWRAMAN_REQUIRE(!g.modes.empty() && g.freq_tol_cm > 0.0 &&
                      g.activity_rel_tol > 0.0 && g.depol_tol > 0.0,
                  "golden reference incomplete");
  return g;
}

// ---------------------------------------------------------------------------
// Results

struct Round {
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> latencies;        // one per job
  std::map<std::string, double> values;  // workload-specific numbers
  std::string perf;                      // perf report of a traced round
};

class Outcome {
 public:
  // Records one correctness check; a failure is also reported on stderr.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) fail(what);
  }
  void job(bool ok, const std::string& what) {
    ++jobs_;
    if (!ok) fail(what);
  }

  std::vector<Round> rounds;
  double setup_s = 0.0;
  std::string setup_perf;
  std::size_t n_points = 0;  // grid points of the workload's molecule
  std::size_t n_atoms = 0;
  std::map<std::string, std::vector<double>> ladder;

  [[nodiscard]] std::string json(const std::string& workload,
                                 std::uint64_t seed) const;

 private:
  void fail(const std::string& what) {
    ++failed_;
    failures_.push_back(what);
    std::fprintf(stderr, "e2e: FAILED %s\n", what.c_str());
  }

  int checks_ = 0;
  int jobs_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string num_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + num(v[i]);
  }
  return out + "]";
}

std::string quoted(const std::string& s) {
  return "\"" + obs::json_escape(s) + "\"";
}

std::string Outcome::json(const std::string& workload,
                          std::uint64_t seed) const {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string out = "{\"workload\": " + quoted(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"setup_s\": " + num(setup_s) +
                    ", \"setup_perf\": " + quoted(setup_perf) +
                    ", \"n_points\": " + std::to_string(n_points) +
                    ", \"n_atoms\": " + std::to_string(n_atoms) +
                    ", \"peak_rss_mb\": " +
                    num(static_cast<double>(ru.ru_maxrss) / 1024.0) +
                    ", \"checks\": " + std::to_string(checks_) +
                    ", \"jobs\": " + std::to_string(jobs_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + quoted(failures_[i]);
  }
  out += "], \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    out += std::string(i ? ", " : "") + "{\"traced\": " +
           (r.traced ? "true" : "false") + ", \"wall_s\": " + num(r.wall_s) +
           ", \"latencies\": " + num_list(r.latencies) +
           ", \"perf\": " + quoted(r.perf) + ", \"values\": {";
    bool first = true;
    for (const auto& [k, v] : r.values) {
      out += (first ? "" : ", ") + quoted(k) + ": " + num(v);
      first = false;
    }
    out += "}}";
  }
  out += "], \"ladder\": {";
  bool first = true;
  for (const auto& [k, v] : ladder) {
    out += (first ? "" : ", ") + quoted(k) + ": " + num_list(v);
    first = false;
  }
  return out + "}}";
}

// Spectrum checks shared by water_raman and serve_burst.
void check_golden(Outcome& out, const Golden& g,
                  const raman::RamanSpectrum& spec, const std::string& who) {
  out.check(spec.modes.size() == g.modes.size(),
            who + ": mode count " + std::to_string(spec.modes.size()) +
                " != golden " + std::to_string(g.modes.size()));
  const std::size_t n = std::min(spec.modes.size(), g.modes.size());
  for (std::size_t i = 0; i < n; ++i) {
    const raman::RamanMode& m = spec.modes[i];
    const GoldenMode& r = g.modes[i];
    const std::string tag = who + " mode " + std::to_string(i);
    out.check(std::abs(m.frequency_cm - r.frequency_cm) <= g.freq_tol_cm,
              tag + ": frequency " + num(m.frequency_cm) + " vs golden " +
                  num(r.frequency_cm));
    out.check(std::abs(m.activity - r.activity) <=
                  g.activity_rel_tol * std::abs(r.activity),
              tag + ": activity " + num(m.activity) + " vs golden " +
                  num(r.activity));
    out.check(std::abs(m.depolarization - r.depolarization) <= g.depol_tol,
              tag + ": depolarization " + num(m.depolarization) +
                  " vs golden " + num(r.depolarization));
  }
}

void check_same_frequencies(Outcome& out, const raman::RamanSpectrum& a,
                            const raman::RamanSpectrum& b,
                            const std::string& who) {
  bool same = a.modes.size() == b.modes.size();
  for (std::size_t i = 0; same && i < a.modes.size(); ++i) {
    same = std::memcmp(&a.modes[i].frequency_cm, &b.modes[i].frequency_cm,
                       sizeof(double)) == 0;
  }
  out.check(same, who + ": BEC-tier frequencies differ from the DFPT tier's");
}

double frequency_mae_cm(const raman::RamanSpectrum& spec) {
  if (spec.modes.size() != kWaterFundamentalsCm.size()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < spec.modes.size(); ++i) {
    sum += std::abs(spec.modes[i].frequency_cm - kWaterFundamentalsCm[i]);
  }
  return sum / static_cast<double>(spec.modes.size());
}

// ---------------------------------------------------------------------------
// Workloads

// Runs one job; an exception (a solve that does not converge throws) counts
// as a failed job.
bool run_job(Outcome& out, const std::string& what,
             const std::function<void()>& fn) {
  try {
    fn();
    out.job(true, what);
    return true;
  } catch (const std::exception& e) {
    out.job(false, what + ": " + e.what());
    return false;
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the first engine of the process; returns its wall time.
  virtual double setup(Outcome& out) = 0;
  // One timed round; checks its outputs into `out`.
  virtual Round round(Outcome& out) = 0;
};

// water_raman: the paper's Fig. 11 job at the golden numerics. One round is
// RamanCalculator::compute then BecCalculator::compute on the golden water
// under a seeded rigid translation; one thread, one job at a time.
class WaterRaman final : public Workload {
 public:
  WaterRaman(std::uint64_t seed, Golden golden)
      : golden_(std::move(golden)) {
    Rng rng(seed);
    atoms_ = translated(golden_water(), random_shift(rng, 1.0));
  }

  double setup(Outcome& out) override {
    SWRAMAN_TRACE_SCOPE("bench.setup");
    return timed([&] {
      scf::ScfEngine engine(atoms_, golden_raman_options().vibrations.scf);
      out.n_points = engine.grid().size();
      out.n_atoms = atoms_.size();
    });
  }

  Round round(Outcome& out) override {
    Round r;
    raman::RamanSpectrum dfpt;
    raman::RamanSpectrum bec;
    bool dfpt_ok = false;
    bool bec_ok = false;
    const double dfpt_s = timed([&] {
      SWRAMAN_TRACE_SCOPE("bench.raman_dfpt");
      dfpt_ok = run_job(out, "water_raman dfpt", [&] {
        raman::RamanCalculator calc(atoms_, golden_raman_options());
        dfpt = calc.compute();
      });
    });
    const double bec_s = timed([&] {
      SWRAMAN_TRACE_SCOPE("bench.raman_bec");
      bec_ok = run_job(out, "water_raman bec", [&] {
        raman::BecCalculator calc(atoms_, golden_bec_options());
        bec = calc.compute();
      });
    });
    if (dfpt_ok) check_golden(out, golden_, dfpt, "water_raman dfpt");
    if (dfpt_ok && bec_ok) {
      check_same_frequencies(out, dfpt, bec, "water_raman");
      out.check(bec.n_field_forces == raman::n_field_points(),
                "water_raman: BEC tier ran " +
                    std::to_string(bec.n_field_forces) + " field forces");
    }
    r.wall_s = dfpt_s + bec_s;
    r.latencies = {dfpt_s, bec_s};
    r.values["raman_dfpt_s"] = dfpt_s;
    r.values["raman_bec_s"] = bec_s;
    r.values["water_freq_mae_cm"] = frequency_mae_cm(dfpt);
    r.values["raman.geometries"] = dfpt.n_polarizabilities;
    r.values["raman.bec.field_forces"] = bec.n_field_forces;
    return r;
  }

 private:
  Golden golden_;
  Atoms atoms_;
};

// Six-monomer cluster with the monomer order permuted and a rigid
// translation, both from the seed.
Atoms seeded_cluster(std::uint64_t seed) {
  const Atoms lattice = molecules::water_cluster(kClusterMonomers);
  std::vector<std::size_t> order(kClusterMonomers);
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i-- > 1;) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }
  Atoms atoms;
  for (std::size_t m : order) {
    for (std::size_t k = 0; k < 3; ++k) atoms.push_back(lattice[3 * m + k]);
  }
  return translated(atoms, random_shift(rng, 1.0));
}

// Leading principal minors of a 3x3 matrix all positive.
bool positive_definite3(const linalg::Matrix& a) {
  const double m1 = a(0, 0);
  const double m2 = a(0, 0) * a(1, 1) - a(0, 1) * a(1, 0);
  const double m3 = a(0, 0) * (a(1, 1) * a(2, 2) - a(1, 2) * a(2, 1)) -
                    a(0, 1) * (a(1, 0) * a(2, 2) - a(1, 2) * a(2, 0)) +
                    a(0, 2) * (a(1, 0) * a(2, 1) - a(1, 1) * a(2, 0));
  return m1 > 0.0 && m2 > 0.0 && m3 > 0.0;
}

// cluster_polar: the paper's Fig. 13-14 kernel regime — few, large SCF and
// DFPT iterations. The set-up engine is the workload's engine; each round
// calls solve() then DfptEngine::polarizability() on it.
class ClusterPolar final : public Workload {
 public:
  explicit ClusterPolar(std::uint64_t seed) : atoms_(seeded_cluster(seed)) {}

  double setup(Outcome& out) override {
    SWRAMAN_TRACE_SCOPE("bench.setup");
    const double s = timed([&] {
      engine_ = std::make_unique<scf::ScfEngine>(atoms_,
                                                 cluster_scf_options());
    });
    out.n_points = engine_->grid().size();
    out.n_atoms = atoms_.size();
    return s;
  }

  Round round(Outcome& out) override {
    if (monomer_energy_ == 0.0) monomer_energy_ = isolated_water_energy();
    Round r;
    scf::GroundState gs;
    linalg::Matrix alpha;
    const bool ok = run_job(out, "cluster_polar", [&] {
      r.values["scf_s"] = timed([&] {
        SWRAMAN_TRACE_SCOPE("bench.scf_solve");
        gs = engine_->solve();
      });
      r.values["polar_s"] = timed([&] {
        SWRAMAN_TRACE_SCOPE("bench.polarizability");
        dfpt::DfptEngine dfpt(*engine_, gs);
        alpha = dfpt.polarizability();
      });
    });
    if (ok) check(out, gs, alpha);
    r.wall_s = r.values["scf_s"] + r.values["polar_s"];
    r.latencies = {r.wall_s};
    r.values["scf.gs_iterations"] = gs.iterations;
    return r;
  }

 private:
  // An isolated monomer of the cluster at the same numerics (untimed).
  double isolated_water_energy() {
    SWRAMAN_TRACE_SCOPE("bench.reference_monomer");
    scf::ScfEngine mono(molecules::water(), cluster_scf_options());
    const scf::GroundState gs = mono.solve();
    SWRAMAN_REQUIRE(gs.converged, "isolated water SCF did not converge");
    return gs.total_energy;
  }

  void check(Outcome& out, const scf::GroundState& gs,
             const linalg::Matrix& alpha) {
    out.check(gs.converged, "cluster_polar: SCF did not converge");
    const std::vector<double> rho = engine_->density_on_grid(gs.density);
    const std::vector<double>& w = engine_->grid().weights;
    double electrons = 0.0;
    for (std::size_t p = 0; p < rho.size(); ++p) electrons += w[p] * rho[p];
    const double expected = molecules::electron_count(atoms_);
    out.check(std::abs(electrons - expected) < 1e-2,
              "cluster_polar: density integrates to " + num(electrons) +
                  " electrons, expected " + num(expected));
    bool symmetric = alpha.rows() == 3 && alpha.cols() == 3;
    for (std::size_t i = 0; symmetric && i < 3; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        symmetric = symmetric && std::abs(alpha(i, j) - alpha(j, i)) <=
                                     1e-10 * alpha.max_abs();
      }
    }
    out.check(symmetric, "cluster_polar: polarizability not symmetric");
    out.check(symmetric && positive_definite3(alpha),
              "cluster_polar: polarizability not positive-definite");
    const double binding =
        (gs.total_energy -
         static_cast<double>(kClusterMonomers) * monomer_energy_) /
        static_cast<double>(kClusterMonomers);
    out.check(binding > -0.1 && binding < 0.0,
              "cluster_polar: binding energy per monomer " + num(binding) +
                  " Ha outside (-0.1, 0)");
  }

  Atoms atoms_;
  std::unique_ptr<scf::ScfEngine> engine_;
  double monomer_energy_ = 0.0;
};

// serve_burst: a RamanService with the real engine and three workers; three
// tenants submit 24 jobs in one burst at the golden numerics — eight seeded
// water geometries x {DFPT, the same DFPT from a second tenant, BEC}.
// Geometry 0 is the golden water; its DFPT and BEC jobs carry with_modes.
class ServeBurst final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 3;
  static constexpr std::size_t kGeometries = 8;

  ServeBurst(std::uint64_t seed, Golden golden) : golden_(std::move(golden)) {
    Rng rng(seed);
    geometries_.push_back(golden_water());
    while (geometries_.size() < kGeometries) {
      Atoms g = golden_water();
      for (grid::AtomSite& a : g) a.pos = a.pos + random_shift(rng, 0.05);
      geometries_.push_back(translated(g, random_shift(rng, 1.0)));
    }
  }

  double setup(Outcome& out) override {
    SWRAMAN_TRACE_SCOPE("bench.setup");
    return timed([&] {
      serve::RamanService service(service_options());
      scf::ScfEngine engine(golden_water(),
                            golden_raman_options().vibrations.scf);
      out.n_points = engine.grid().size();
      out.n_atoms = geometries_[0].size();
    });
  }

  Round round(Outcome& out) override {
    Round r;
    serve::RamanService service(service_options());
    std::vector<Submitted> submitted;
    std::vector<serve::JobResult> results;
    const auto t0 = std::chrono::steady_clock::now();
    {
      SWRAMAN_TRACE_SCOPE("bench.serve_burst");
      for (std::size_t g = 0; g < kGeometries; ++g) {
        for (const serve::JobSpec& spec : jobs_for(g)) {
          const serve::SubmitResult s = service.submit(spec);
          if (!s.accepted) {
            out.job(false, spec.name + ": rejected (" + s.reason + ")");
            continue;
          }
          submitted.push_back({spec.name, s.job_id});
        }
      }
      for (const Submitted& s : submitted) {
        results.push_back(service.wait(s.id));
      }
    }
    r.wall_s = seconds_since(t0);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool ok = results[i].status == serve::JobStatus::Completed;
      out.job(ok, submitted[i].name + ": " + results[i].error);
      r.latencies.push_back(results[i].latency_s);
    }
    check(out, submitted, results);
    const serve::ServiceStats stats = service.stats();
    r.values["serve_jobs_per_s"] =
        static_cast<double>(results.size()) / r.wall_s;
    r.values["serve_p50_s"] = median(r.latencies);
    r.values["serve.burst_s"] = r.wall_s;
    r.values["serve.workers"] = kWorkers;
    r.values["serve.tasks_executed"] =
        static_cast<double>(stats.tasks_executed);
    r.values["serve.cache_hits"] = static_cast<double>(stats.cache_hits);
    r.values["serve.cache_hit_ratio"] = stats.cache_hit_ratio;
    return r;
  }

 private:
  struct Submitted {
    std::string name;
    std::uint64_t id = 0;
  };

  static serve::ServiceOptions service_options() {
    serve::ServiceOptions opt;
    opt.n_workers = kWorkers;
    return opt;
  }

  // Jobs of geometry g, in submission order: alice DFPT, bob DFPT, carol BEC.
  std::vector<serve::JobSpec> jobs_for(std::size_t g) const {
    std::vector<serve::JobSpec> jobs;
    for (const char* client : {"alice", "bob", "carol"}) {
      serve::JobSpec spec;
      spec.client = client;
      spec.engine = serve::EngineKind::Real;
      spec.atoms = geometries_[g];
      spec.options = golden_raman_options();
      const bool bec = client[0] == 'c';
      spec.tier = bec ? serve::Tier::Bec : serve::Tier::Dfpt;
      spec.with_modes = g == 0 && client[0] != 'b';
      spec.name = std::string(client) + "/geom" + std::to_string(g) +
                  (bec ? "/bec" : "/dfpt");
      jobs.push_back(std::move(spec));
    }
    return jobs;
  }

  void check(Outcome& out, const std::vector<Submitted>& submitted,
             const std::vector<serve::JobResult>& results) {
    std::map<std::string, const serve::JobResult*> by_name;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i].status == serve::JobStatus::Completed) {
        by_name[submitted[i].name] = &results[i];
      }
    }
    const auto find = [&](const std::string& name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? nullptr : it->second;
    };
    if (const serve::JobResult* a = find("alice/geom0/dfpt")) {
      check_golden(out, golden_, a->spectrum, "serve_burst alice/geom0");
      if (const serve::JobResult* c = find("carol/geom0/bec")) {
        check_same_frequencies(out, a->spectrum, c->spectrum,
                               "serve_burst geom0");
      }
    }
    for (std::size_t g = 0; g < kGeometries; ++g) {
      const std::string suffix = "/geom" + std::to_string(g) + "/dfpt";
      const serve::JobResult* a = find("alice" + suffix);
      const serve::JobResult* b = find("bob" + suffix);
      if (a == nullptr || b == nullptr) continue;
      const bool same =
          a->dalpha.rows() == b->dalpha.rows() &&
          a->dalpha.cols() == b->dalpha.cols() &&
          std::memcmp(a->dalpha.data(), b->dalpha.data(),
                      a->dalpha.rows() * a->dalpha.cols() * sizeof(double)) ==
              0;
      out.check(same, "serve_burst geom" + std::to_string(g) +
                          ": duplicate submissions returned different dalpha");
    }
  }

  Golden golden_;
  std::vector<Atoms> geometries_;
};

// ---------------------------------------------------------------------------
// Scaling ladder (every traced run, untraced): one call of each layer's
// public entry point on water_cluster(n), n in {2, 4, 8, 16}, at the
// cluster_polar numerics.
void run_ladder(Outcome& out) {
  for (std::size_t n : {2, 4, 8, 16}) {
    const Atoms atoms = molecules::water_cluster(n);
    std::unique_ptr<scf::ScfEngine> engine;
    const double setup_s = timed([&] {
      engine = std::make_unique<scf::ScfEngine>(atoms, cluster_scf_options());
    });
    const std::size_t nb = engine->basis().size();
    // Any fixed density matrix gives the layers their production shapes.
    const linalg::Matrix p = linalg::Matrix::identity(nb);
    std::vector<double> rho;
    std::vector<double> v;
    linalg::Matrix h;
    std::vector<double> eigenvalues;
    linalg::Matrix coefficients;
    const double density_s =
        timed([&] { rho = engine->density_on_grid(p); });
    const double poisson_s =
        timed([&] { v = engine->hartree().solve_on_grid(rho); });
    const double integrate_s = timed([&] { h = engine->integrate_matrix(v); });
    h += engine->kinetic();
    const double eigensolve_s = timed(
        [&] { engine->solve_eigenproblem(h, eigenvalues, coefficients); });
    out.ladder["atoms"].push_back(static_cast<double>(atoms.size()));
    out.ladder["points"].push_back(static_cast<double>(engine->grid().size()));
    out.ladder["setup_s"].push_back(setup_s);
    out.ladder["density_s"].push_back(density_s);
    out.ladder["poisson_s"].push_back(poisson_s);
    out.ladder["integrate_s"].push_back(integrate_s);
    out.ladder["eigensolve_s"].push_back(eigensolve_s);
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& root) {
  if (name == "water_raman") {
    return std::make_unique<WaterRaman>(seed, load_golden(root));
  }
  if (name == "cluster_polar") return std::make_unique<ClusterPolar>(seed);
  if (name == "serve_burst") {
    return std::make_unique<ServeBurst>(seed, load_golden(root));
  }
  throw Error("unknown workload '" + name + "'");
}

// Perf report of the spans that started at or after start_ns, with the
// process's cumulative counters.
std::string write_perf(const std::string& path, std::uint64_t start_ns) {
  std::vector<obs::SpanRecord> spans = obs::snapshot();
  std::erase_if(spans, [&](const obs::SpanRecord& s) {
    return s.start_ns < start_ns;
  });
  const double elapsed = 1e-9 * static_cast<double>(obs::now_ns() - start_ns);
  SWRAMAN_REQUIRE(obs::write_text_file(path, obs::perf_report_json(spans,
                                                                   elapsed)),
                  "cannot write " + path);
  return path;
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace, const std::string& out_dir, const std::string& root) {
  Outcome out;
  const std::unique_ptr<Workload> w = make_workload(workload, seed, root);
  obs::set_enabled(trace);
  std::uint64_t mark = obs::now_ns();
  out.setup_s = w->setup(out);
  if (trace) out.setup_perf = write_perf(out_dir + "/perf_setup.json", mark);
  obs::set_enabled(false);

  if (!trace) {
    // Closed loop: rounds back to back until the run's time is spent.
    const auto t0 = std::chrono::steady_clock::now();
    do {
      out.rounds.push_back(w->round(out));
    } while (seconds_since(t0) < seconds);
  } else {
    // One untraced round for the overhead baseline, then two traced rounds
    // whose work counts must repeat exactly.
    out.rounds.push_back(w->round(out));
    obs::set_enabled(true);
    write_perf(out_dir + "/perf_base.json", obs::now_ns());
    for (int i = 1; i <= 2; ++i) {
      mark = obs::now_ns();
      Round r = w->round(out);
      r.traced = true;
      r.perf = write_perf(out_dir + "/perf_" + std::to_string(i) + ".json",
                          mark);
      out.rounds.push_back(std::move(r));
    }
    obs::set_enabled(false);
    run_ladder(out);
  }

  std::ofstream(out_dir + "/result.json") << out.json(workload, seed) << "\n";
  return 0;
}

int setup_only(const std::string& workload, std::uint64_t seed,
               const std::string& root) {
  Outcome out;
  const double s = make_workload(workload, seed, root)->setup(out);
  std::printf("{\"setup_s\": %s}\n", num(s).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: swraman_e2e setup <workload> <seed> <root>\n"
               "       swraman_e2e run <workload> <seed> <seconds> <trace> "
               "<out_dir> <root>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  log::set_level(log::Level::Warn);
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 4 && args[0] == "setup") {
      return setup_only(args[1], std::stoull(args[2]), args[3]);
    }
    if (args.size() == 7 && args[0] == "run") {
      return run(args[1], std::stoull(args[2]), std::stod(args[3]),
                 args[4] == "1", args[5], args[6]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swraman_e2e: %s\n", e.what());
    return 1;
  }
  return usage();
}
