#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

// Hierarchical span tracer (DESIGN.md S8). Code brackets a phase with an
// RAII scope:
//
//   SWRAMAN_TRACE_SCOPE("scf.iter");                 // anonymous scope
//   SWRAMAN_TRACE_SPAN(span, "dfpt.response");       // named: span.attr(...)
//   span.attr("axis", axis);
//
// Spans nest per thread; every record carries its slash-joined ancestry
// path ("raman.compute/scf.solve/scf.iter"), a stable thread index, and
// optional key/value attributes (numbers or strings). Work handed to other
// threads keeps its place in the tree: capture current_context() on the
// spawning thread and hold an AdoptedContext on each worker thread, and
// the workers' root spans nest under the spawner's open span. Sunway
// kernel spans attach the cost model's modeled cycles and DMA bytes, so
// the exported reports attribute both wall time and modeled machine time.
//
// Tracing is off by default: a disabled ScopedSpan constructor is a single
// relaxed atomic load and no allocation, so instrumented hot paths cost a
// predicted branch. Enable programmatically (obs::set_enabled) or through
// the environment: SWRAMAN_TRACE=1 turns tracing on at process start and
// registers an exit hook that writes the Chrome trace, the perf report
// and, when the serve tier traced any job, the job timelines (see
// report.hpp for SWRAMAN_TRACE_FILE / SWRAMAN_PERF_FILE /
// SWRAMAN_JOBTRACE_FILE). The same switch gates the per-job timeline
// registry (jobtrace.hpp).

namespace swraman::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

// Hot-path gate: one relaxed load.
inline bool enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

struct Attr {
  std::string key;
  bool numeric = true;
  double num = 0.0;
  std::string str;
};

struct SpanRecord {
  std::string name;       // leaf name ("scf.iter")
  std::string path;       // slash-joined ancestry, leaf included
  std::uint64_t start_ns = 0;  // since the process trace epoch
  std::uint64_t dur_ns = 0;    // 0 for instants
  std::uint32_t tid = 0;       // stable small thread index
  std::uint32_t depth = 0;     // nesting depth at creation
  bool instant = false;        // point event (fault fired, recovery, ...)
  // The direct parent span is open on another thread (adopted context):
  // this span's time overlaps its parent's instead of being part of it.
  bool cross_thread = false;
  std::vector<Attr> attrs;
};

// A thread's position in the span tree: where a span opened there next
// would attach. Empty path at the root.
struct SpanContext {
  std::string path;        // path of the innermost open span
  std::uint32_t depth = 0;  // depth a child span would get
  std::uint32_t tid = 0;    // thread the innermost open span runs on
};

// Nanoseconds since the process-wide trace epoch (monotonic).
std::uint64_t now_ns();

// Stable, small id of the calling thread (assigned on first use).
std::uint32_t thread_id();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attach a key/value attribute to this span (no-op when inactive).
  void attr(const char* key, double value);
  void attr(const char* key, const char* value);
  void attr(const char* key, const std::string& value);

  // True when tracing was enabled at construction; callers gate expensive
  // attribute computation (e.g. cost-model evaluation) on this.
  [[nodiscard]] bool active() const { return active_; }

 private:
  bool active_ = false;
  std::size_t index_ = 0;  // position in the thread's active-span stack
};

// The calling thread's current position; the root (empty path) when
// tracing is off.
SpanContext current_context();

// RAII: while alive, spans opened at the root of the calling thread nest
// under `ctx` (typically another thread's current_context()) — their paths
// extend ctx.path, their depths continue from ctx.depth, and they are
// marked cross_thread when ctx's span runs on another thread. Restores the
// thread's previous context on destruction.
class AdoptedContext {
 public:
  explicit AdoptedContext(SpanContext ctx);
  ~AdoptedContext();
  AdoptedContext(const AdoptedContext&) = delete;
  AdoptedContext& operator=(const AdoptedContext&) = delete;

 private:
  SpanContext saved_;
};

// Point events at the current nesting position (fault injections, recovery
// decisions, checkpoint writes).
void instant(const char* name);
void instant(const char* name, const char* key, double value);
void instant(const char* name, const char* key, const std::string& value);

// Copy of all completed spans, sorted by (start, tid). Active (unfinished)
// spans are not included.
std::vector<SpanRecord> snapshot();

// Spans discarded because the in-memory buffer hit its cap.
std::uint64_t dropped();

// Clears completed spans, the drop counter, and the epoch (tests).
void reset_for_testing();

}  // namespace swraman::obs

#define SWRAMAN_OBS_CONCAT_(a, b) a##b
#define SWRAMAN_OBS_CONCAT(a, b) SWRAMAN_OBS_CONCAT_(a, b)

// Anonymous RAII scope: traces from here to the end of the block.
#define SWRAMAN_TRACE_SCOPE(span_name)                              \
  ::swraman::obs::ScopedSpan SWRAMAN_OBS_CONCAT(swraman_trace_scope_, \
                                                __LINE__)(span_name)

// Named RAII scope, for attaching attributes: SWRAMAN_TRACE_SPAN(s, "x");
// s.attr("k", v);
#define SWRAMAN_TRACE_SPAN(var, span_name) \
  ::swraman::obs::ScopedSpan var(span_name)
