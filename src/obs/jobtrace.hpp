#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/lockcheck.hpp"
#include "obs/trace.hpp"

// Cross-shard job tracing (DESIGN.md S13). Where trace.hpp records what a
// *thread* did, this registry records what a *job* experienced: one causal
// timeline per global job id (gid), stitched from spans emitted on any
// thread of any shard — submit, route, dedup, displacement, Hessian,
// assemble — and surviving shard deaths. A `TraceContext{gid, parent_span}`
// is the unit of propagation: it rides `SubmitOptions` into the service,
// `JobState` onto the pool workers, the remote-cache p2p request frames
// across shards, and a WAL "trace" record through crash replay, where
// `restore_root` re-attaches the new incarnation's spans to the same
// timeline. The whole timeline exports as one `swraman-jobtrace-v1` JSON.
//
// Conventions:
//   * span ids are per-gid, allocated from 1; the root span is always 1,
//     which makes WAL replay idempotent (re-importing the logged root is
//     a no-op when the timeline already exists in-process).
//   * a span left open (end_ns == 0) is meaningful, not an error: it is
//     the footprint of work that crossed a shard death. The exporter and
//     the validator both accept open spans.
//   * every span carries the shard it ran on and the job incarnation
//     (bumped once per WAL replay), so a stitched timeline shows both
//     sides of a kill.
//
// One switch, one exit report: the job timeline is a view of the span
// tracer. Every entry point gates on obs::enabled() (one relaxed load,
// nothing recorded while off), and the SWRAMAN_TRACE=1 exit hook
// (obs::write_env_reports) writes the swraman-jobtrace-v1 export to
// SWRAMAN_JOBTRACE_FILE (default "swraman_jobtrace.json") whenever at
// least one job was traced.
//
// Spans are opened through ScopedJobSpan, which closes the span on every
// scope exit except an exception unwind: a span cut down by a
// FaultInjected kill stays open as the shard-death footprint above. A
// call site that records a failure and rethrows calls end() first.

namespace swraman::obs {

// The propagated unit: which job, and which span new work nests under.
// gid 0 means "no context" (untraced submission); all registry calls on
// an inactive context are no-ops returning 0.
struct TraceContext {
  std::uint64_t gid = 0;
  std::uint64_t parent_span = 0;
  [[nodiscard]] bool active() const {
    return gid != 0 && enabled();
  }
};

struct JobSpan {
  std::uint64_t id = 0;      // per-gid, root == 1
  std::uint64_t parent = 0;  // 0 for the root
  std::string name;
  int shard = -1;                // shard the span ran on (-1: tier level)
  std::uint32_t incarnation = 0; // bumped once per WAL replay
  std::uint64_t start_ns = 0;    // obs::now_ns() timebase
  std::uint64_t end_ns = 0;      // 0 = still open (crossed a shard death)
  bool event = false;            // point event (dedup hit, kill, ...)
  std::vector<Attr> attrs;
};

class JobTraceRegistry {
 public:
  static JobTraceRegistry& instance();

  // Create-or-get the job's root span (id 1); idempotent per gid.
  TraceContext root(std::uint64_t gid, const char* name);

  // Re-attach a timeline restored from a WAL: recreates the root with the
  // logged id when the registry has no record of the gid (fresh process)
  // and bumps the job's incarnation either way. Returns the root context.
  TraceContext restore_root(std::uint64_t gid, std::uint64_t root_id,
                            const char* name);

  // Open a span under `parent`; returns its id (0 when inactive).
  std::uint64_t begin(const TraceContext& parent, const char* name,
                      int shard = -1);
  // Close a span (no-op for id 0 or unknown spans).
  void end(std::uint64_t gid, std::uint64_t span);
  // Record a point event under `parent`; returns its id.
  std::uint64_t event(const TraceContext& parent, const char* name,
                      int shard = -1);

  // Attach attributes to an open-or-closed span.
  void attr(std::uint64_t gid, std::uint64_t span, const char* key,
            double value);
  void attr(std::uint64_t gid, std::uint64_t span, const char* key,
            const std::string& value);

  // Drop a timeline that never got acknowledged (rejected submissions —
  // their gid is reused by the next accepted job).
  void drop_job(std::uint64_t gid);

  // Current incarnation of a job (0 until the first replay).
  [[nodiscard]] std::uint32_t incarnation(std::uint64_t gid) const;

  // Copy of a job's spans in id order (tests / exporters).
  [[nodiscard]] std::vector<JobSpan> spans(std::uint64_t gid) const;
  [[nodiscard]] std::size_t n_jobs() const;
  // Gids currently tracked, ascending.
  [[nodiscard]] std::vector<std::uint64_t> gids() const;

  // swraman-jobtrace-v1 JSON of every tracked job.
  [[nodiscard]] std::string export_json() const;

  void reset_for_testing();

 private:
  JobTraceRegistry() = default;

  struct Timeline {
    std::vector<JobSpan> spans;     // id order; ids are per-gid from 1
    std::uint64_t next_id = 1;
    std::uint32_t incarnation = 0;
  };

  JobSpan* find_locked(std::uint64_t gid, std::uint64_t span);

  // Serve-level event rates (per job submit/route/task), not per-DMA:
  // one global mutex is fine and keeps cross-thread stitching trivial.
  mutable lockcheck::CheckedMutex mutex_{"obs.jobtrace"};
  std::map<std::uint64_t, Timeline> jobs_;
};

// Writes export_json() to `path` through obs::write_text_file.
bool write_jobtrace_file(const std::string& path);

// RAII job span under `parent` (inert when the parent is inactive). The
// destructor closes it unless an exception that began after construction
// is unwinding through it.
class ScopedJobSpan {
 public:
  ScopedJobSpan(const TraceContext& parent, const char* name, int shard = -1);
  ~ScopedJobSpan();
  ScopedJobSpan(const ScopedJobSpan&) = delete;
  ScopedJobSpan& operator=(const ScopedJobSpan&) = delete;

  void attr(const char* key, double value);
  void attr(const char* key, const std::string& value);

  // Closes the span now; later calls (and the destructor) are no-ops.
  void end();

  // Context for work nested under this span: {gid, this span} when the
  // span is recording, the parent unchanged otherwise.
  [[nodiscard]] TraceContext context() const;

 private:
  TraceContext parent_;
  std::uint64_t id_ = 0;  // 0: inactive
  bool open_ = false;
  int uncaught_ = 0;  // std::uncaught_exceptions() at construction
};

}  // namespace swraman::obs
