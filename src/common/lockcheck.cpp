#include "common/lockcheck.hpp"

#include <cstdlib>
#include <sstream>

#include "common/env.hpp"
#include "common/logging.hpp"

namespace swraman::lockcheck {

namespace detail {
std::atomic<bool> g_lockcheck_enabled{false};
}  // namespace detail

namespace {

// One entry per checked lock the calling thread currently holds. The
// raw pointer is only ever *compared* (release matching, condvar
// exemption), never dereferenced — a stale entry left by an
// enable-toggle mid-hold cannot dangle into freed memory.
struct HeldLock {
  const CheckedMutex* mutex = nullptr;
  std::uint32_t cls = 0;
  bool allows_blocking = false;
  const char* name = "";
  const char* file = "";  // acquisition site, not construction site
  std::uint32_t line = 0;
};

thread_local std::vector<HeldLock> t_held;

// Reentrancy guard: reporting a violation bumps obs counters and dumps
// the flight recorder, both of which take migrated CheckedMutexes.
// Instrumentation is a no-op while a report is in flight on this
// thread, so the checker can never deadlock or recurse through itself.
thread_local int t_depth = 0;

struct Reentry {
  Reentry() { ++t_depth; }
  ~Reentry() { --t_depth; }
};

// Provenance of the first observation of an order edge A -> B: where A
// was held and where B was acquired. This is what makes a cycle report
// actionable long after the first-direction acquisition happened.
struct EdgeProv {
  std::string held_at;
  std::string acq_at;
};

// Leaked singleton: the atexit summary writer may run after other
// statics are destroyed (same pattern as swcheck and the obs buffers).
// Internal state is guarded by a plain std::mutex — the checker is the
// sanctioned home for one (lint rule 6); instrumenting it would
// recurse.
struct State {
  std::mutex mutex;
  std::map<std::string, std::uint32_t> site_ids;  // "file:line" -> id
  std::vector<SiteInfo> site_infos;
  // Acquisition-order graph over lock-class ids: edges[a][b] exists
  // when some thread acquired class b while holding class a.
  std::map<std::uint32_t, std::map<std::uint32_t, EdgeProv>> edges;
  std::map<std::string, std::uint64_t> by_rule;
  std::uint64_t total = 0;
  ObsSinks sinks;
};

State& state() {
  static State* s = new State;
  return *s;
}

// Compiler __FILE__ paths are absolute on this builder; trim to the
// repo-relative tail so site ids read as src/serve/service.hpp:207.
std::string trim_path(const std::string& file) {
  for (const char* anchor : {"/src/", "/tests/", "/bench/", "/examples/"}) {
    const std::size_t pos = file.rfind(anchor);
    if (pos != std::string::npos) return file.substr(pos + 1);
  }
  return file;
}

std::string site_str(const char* name, const char* file, std::uint32_t line) {
  std::ostringstream os;
  os << "\"" << name << "\" (" << trim_path(file) << ":" << line << ")";
  return os.str();
}

std::string loc_str(const std::source_location& loc) {
  return trim_path(loc.file_name()) + ":" + std::to_string(loc.line());
}

std::string held_str(const HeldLock& h) {
  std::ostringstream os;
  os << site_str(h.name, h.file, h.line) << " class ";
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    if (h.cls >= 1 && h.cls <= s.site_infos.size()) {
      const SiteInfo& si = s.site_infos[h.cls - 1];
      os << si.name << "@" << si.file << ":" << si.line;
    } else {
      os << h.cls;
    }
  }
  return os.str();
}

// Shared recording path of report()/note(): tally, obs sinks, log. The
// Reentry guard covers the sinks — they take checked locks.
std::string record_violation(const char* rule, const std::string& context) {
  const Reentry guard;
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    ++s.by_rule[rule];
    ++s.total;
  }
  const std::string what =
      std::string("lockcheck[") + rule + "]: " + context;
  // Sinks are installed once from a static registrar before main; the
  // unlocked read is benign.
  State& s = state();
  if (s.sinks.violation != nullptr) s.sinks.violation(rule, what);
  log::error(what);
  return what;
}

// Reads SWRAMAN_CHECK at static-initialization time so any binary —
// bench, example, test — runs checked without touching its main().
struct EnvInit {
  EnvInit() {
    state();  // force construction before any atexit callback may run
    if (env_truthy(std::getenv("SWRAMAN_CHECK"))) {
      set_enabled(true);
      write_check_summary_at_exit("lockcheck", summary_json);
    }
  }
};
const EnvInit g_env_init;

// DFS over the order graph: is `to` reachable from `from`? On success
// fills `path` with the class chain from -> ... -> to. Called with
// state().mutex held.
bool reachable(const State& s, std::uint32_t from, std::uint32_t to,
               std::vector<std::uint32_t>* path) {
  if (from == to) {
    path->push_back(from);
    return true;
  }
  const auto row = s.edges.find(from);
  if (row == s.edges.end()) return false;
  path->push_back(from);
  for (const auto& [next, prov] : row->second) {
    // The graph is small (dozens of classes); plain DFS with the path
    // itself as the visited set is fine and keeps the chain exact.
    bool on_path = false;
    for (const std::uint32_t c : *path) {
      if (c == next) {
        on_path = true;
        break;
      }
    }
    if (on_path) continue;
    if (reachable(s, next, to, path)) return true;
  }
  path->pop_back();
  return false;
}

std::string class_name(const State& s, std::uint32_t cls) {
  if (cls >= 1 && cls <= s.site_infos.size()) {
    const SiteInfo& si = s.site_infos[cls - 1];
    return "\"" + si.name + "\" (" + si.file + ":" +
           std::to_string(si.line) + ")";
  }
  return "class#" + std::to_string(cls);
}

}  // namespace

void set_enabled(bool on) {
  detail::g_lockcheck_enabled.store(on, std::memory_order_relaxed);
}

void report(const char* rule, const std::string& context) {
  const std::string what = record_violation(rule, context);
  {
    // A throwing violation is crash-grade: dump the flight rings before
    // unwinding so the postmortem shows what led up to it.
    const Reentry guard;
    State& s = state();
    if (s.sinks.flight_dump != nullptr) s.sinks.flight_dump("check.violation");
  }
  throw CheckViolation(rule, what);
}

void note(const char* rule, const std::string& context) {
  record_violation(rule, context);
}

std::map<std::string, std::uint64_t> violation_counts() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.by_rule;
}

std::uint64_t total_violations() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.total;
}

std::vector<SiteInfo> sites() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  return s.site_infos;
}

std::string summary_json() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  std::ostringstream os;
  os << "{\"schema\":\"swraman-lockcheck-v1\",\"enabled\":"
     << (enabled() ? "true" : "false") << ",\"violations\":" << s.total
     << ",\"rules\":{";
  bool first = true;
  for (const auto& [rule, n] : s.by_rule) {
    if (!first) os << ",";
    first = false;
    os << "\"" << rule << "\":" << n;
  }
  os << "},\"sites\":[";
  first = true;
  for (const SiteInfo& si : s.site_infos) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << si.id << ",\"name\":\"" << si.name
       << "\",\"file\":\"" << si.file << "\",\"line\":" << si.line << "}";
  }
  os << "]}";
  return os.str();
}

void reset_for_testing() {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  s.by_rule.clear();
  s.total = 0;
  s.edges.clear();
  t_held.clear();
}

void install_obs_sinks(const ObsSinks& sinks) {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  s.sinks = sinks;
}

bool is_held(const CheckedMutex* m) {
  for (const HeldLock& h : t_held) {
    if (h.mutex == m) return true;
  }
  return false;
}

namespace detail {

std::uint32_t register_site(const char* name, const char* file,
                            std::uint32_t line) {
  State& s = state();
  const std::scoped_lock lock(s.mutex);
  // The class key includes the name: default member initializers all
  // evaluate their source_location at the owning constructor, so two
  // member mutexes of one class share file:line and only the name
  // separates them.
  std::string key =
      std::string(name) + "@" + file + ":" + std::to_string(line);
  const auto it = s.site_ids.find(key);
  if (it != s.site_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(s.site_infos.size() + 1);
  s.site_ids.emplace(std::move(key), id);
  s.site_infos.push_back({id, name, trim_path(file), line});
  return id;
}

void before_acquire(CheckedMutex* m, const std::source_location& acq) {
  if (t_depth > 0) return;
  const Reentry guard;
  const std::uint32_t cls = m->site_id();
  std::string violation;
  {
    State& s = state();
    const std::scoped_lock lock(s.mutex);
    for (const HeldLock& h : t_held) {
      if (h.cls == cls) {
        // Two locks of one class nested on one thread: another thread
        // doing the same with the instances swapped deadlocks.
        std::ostringstream os;
        os << "same-class nesting of " << class_name(s, cls)
           << ": already held (acquired at " << h.file << ":" << h.line
           << "), acquiring again at " << loc_str(acq);
        violation = os.str();
        break;
      }
      auto& row = s.edges[h.cls];
      if (row.find(cls) != row.end()) continue;  // edge already known
      std::vector<std::uint32_t> path;
      if (reachable(s, cls, h.cls, &path)) {
        // Adding h.cls -> cls would close a cycle: cls already reaches
        // h.cls through recorded acquisitions. Both orders' provenance
        // goes into the report.
        const EdgeProv& rev = s.edges.at(path[0]).at(
            path.size() > 1 ? path[1] : h.cls);
        std::ostringstream os;
        os << "acquiring " << class_name(s, cls) << " at " << loc_str(acq)
           << " while holding " << class_name(s, h.cls)
           << " (acquired at " << h.file << ":" << h.line
           << "); reverse order already recorded:";
        for (std::size_t i = 0; i < path.size(); ++i) {
          os << (i == 0 ? " " : " -> ") << class_name(s, path[i]);
        }
        os << " (first link: held " << rev.held_at << ", acquired "
           << rev.acq_at << ")";
        violation = os.str();
        break;
      }
      row.emplace(cls, EdgeProv{site_str(h.name, h.file, h.line),
                                site_str(m->name(), acq.file_name(),
                                         acq.line())});
    }
  }
  if (!violation.empty()) report(kRuleOrderCycle, violation);
}

void after_acquire(CheckedMutex* m, const std::source_location& acq) {
  if (t_depth > 0) return;
  const Reentry guard;
  t_held.push_back({m, m->site_id(), m->allows_blocking(), m->name(),
                    acq.file_name(), acq.line()});
}

void on_release(CheckedMutex* m) {
  if (t_depth > 0) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == m) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  // Not found: acquired while checking was off or during a report.
}

void blocking_call_slow(const char* what, const CheckedMutex* exempt,
                        const std::source_location& loc) {
  if (t_depth > 0) return;
  std::string violation;
  for (const HeldLock& h : t_held) {
    if (h.mutex == exempt || h.allows_blocking) continue;
    std::ostringstream os;
    os << "blocking call \"" << what << "\" at " << loc_str(loc)
       << " while holding " << held_str(h) << " (acquired at "
       << trim_path(h.file) << ":" << h.line
       << "); mark the lock kAllowsBlocking only if holding it across "
          "blocking I/O is a deliberate control-plane choice";
    violation = os.str();
    break;
  }
  if (!violation.empty()) report(kRuleBlockingUnderLock, violation);
}

void assert_held_slow(const CheckedMutex* m, const char* what,
                      const std::source_location& loc) {
  if (t_depth > 0 || m == nullptr) return;
  if (is_held(m)) return;
  std::ostringstream os;
  os << what << " at " << loc_str(loc) << " requires "
     << site_str(m->name(), m->file(), m->line())
     << " to be held by the calling thread";
  report(kRuleGuardUnheld, os.str());
}

void condvar_no_predicate(const CheckedMutex* m,
                          const std::source_location& loc) {
  std::ostringstream os;
  os << "untimed condition-variable wait without a predicate at "
     << loc_str(loc) << " on " << site_str(m->name(), m->file(), m->line())
     << "; a spurious wakeup returns early and a missed notify parks "
        "forever — wait with a predicate or a timeout";
  report(kRuleCondvarNoPredicate, os.str());
}

}  // namespace detail

}  // namespace swraman::lockcheck
