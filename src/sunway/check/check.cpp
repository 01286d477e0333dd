#include "sunway/check/check.hpp"

#include <cstdlib>
#include <mutex>
#include <sstream>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swraman::sunway::check {

namespace detail {
std::atomic<bool> g_check_enabled{false};
}  // namespace detail

namespace {

// Leaked singleton: the atexit summary writer may run after other
// statics are destroyed (same pattern as the obs trace buffer).
struct Tally {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> by_rule;
  std::uint64_t total = 0;
};

Tally& tally() {
  static Tally* t = new Tally;
  return *t;
}

std::atomic<std::int64_t> g_live_tiles{0};
std::atomic<std::int64_t> g_live_transfers{0};

// Reads SWRAMAN_CHECK at static-initialization time so any binary —
// bench, example, test — runs checked without touching its main(); the
// exit hook writes the machine-readable summary.
struct EnvInit {
  EnvInit() {
    tally();  // force construction before any atexit callback may run
    if (env_truthy(std::getenv("SWRAMAN_CHECK"))) {
      set_enabled(true);
      write_check_summary_at_exit("swcheck", summary_json);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_check_enabled.store(on, std::memory_order_relaxed);
}

namespace {

// Shared recording path of report()/note(): tally, counter, instant, log.
std::string record_violation(const char* rule, const std::string& context) {
  {
    Tally& t = tally();
    const std::scoped_lock lock(t.mutex);
    ++t.by_rule[rule];
    ++t.total;
  }
  // The violations counter bypasses the obs::count() tracing gate: a
  // checked run must tally violations whether or not tracing is on. The
  // instant event stays gated (it is trace data).
  obs::Registry::instance().counter("check.violations").add(1.0);
  obs::instant("check.violation", "rule", std::string(rule));
  const std::string what =
      std::string("swcheck[") + rule + "]: " + context;
  log::error(what);
  return what;
}

}  // namespace

void report(const char* rule, const std::string& context) {
  const std::string what = record_violation(rule, context);
  // A throwing violation is a crash-grade event: dump the flight rings
  // before unwinding so the postmortem shows what led up to it.
  obs::flight::dump("check.violation");
  throw CheckViolation(rule, what);
}

void note(const char* rule, const std::string& context) {
  record_violation(rule, context);
}

std::map<std::string, std::uint64_t> violation_counts() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  return t.by_rule;
}

std::uint64_t total_violations() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  return t.total;
}

std::string summary_json() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  std::ostringstream os;
  os << "{\"schema\":\"swraman-check-v1\",\"enabled\":"
     << (enabled() ? "true" : "false") << ",\"violations\":" << t.total
     << ",\"rules\":{";
  bool first = true;
  for (const auto& [rule, n] : t.by_rule) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rule << "\":" << n;
  }
  os << "}}";
  return os.str();
}

void reset_for_testing() {
  Tally& t = tally();
  const std::scoped_lock lock(t.mutex);
  t.by_rule.clear();
  t.total = 0;
}

std::int64_t live_shadow_tiles() {
  return g_live_tiles.load(std::memory_order_relaxed);
}

std::int64_t live_transfers() {
  return g_live_transfers.load(std::memory_order_relaxed);
}

namespace detail {

void tiles_add(std::int64_t n) {
  g_live_tiles.fetch_add(n, std::memory_order_relaxed);
}

void transfers_add(std::int64_t n) {
  g_live_transfers.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace swraman::sunway::check
