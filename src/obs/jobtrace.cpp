#include "obs/jobtrace.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "common/logging.hpp"
#include "obs/report.hpp"

namespace swraman::obs {

namespace {

// Per-job span cap: a runaway DAG must not grow the registry without
// bound; past the cap new spans are dropped and counted in the root's
// "spans_dropped" attribute on export.
constexpr std::size_t kMaxSpansPerJob = 1 << 16;

}  // namespace

JobTraceRegistry& JobTraceRegistry::instance() {
  // Leaked: exporters may run from atexit after other statics are gone.
  static JobTraceRegistry* r = new JobTraceRegistry;
  return *r;
}

JobSpan* JobTraceRegistry::find_locked(std::uint64_t gid,
                                       std::uint64_t span) {
  const auto it = jobs_.find(gid);
  if (it == jobs_.end() || span == 0) return nullptr;
  auto& spans = it->second.spans;
  const auto sp = std::lower_bound(
      spans.begin(), spans.end(), span,
      [](const JobSpan& s, std::uint64_t id) { return s.id < id; });
  if (sp == spans.end() || sp->id != span) return nullptr;
  return &*sp;
}

TraceContext JobTraceRegistry::root(std::uint64_t gid, const char* name) {
  if (gid == 0 || !enabled()) return {};
  const lockcheck::CheckedLock lock(mutex_);
  Timeline& t = jobs_[gid];
  if (t.spans.empty()) {
    JobSpan root;
    root.id = 1;
    root.name = name;
    root.start_ns = now_ns();
    t.spans.push_back(std::move(root));
    t.next_id = 2;
  }
  return {gid, t.spans.front().id};
}

TraceContext JobTraceRegistry::restore_root(std::uint64_t gid,
                                            std::uint64_t root_id,
                                            const char* name) {
  if (gid == 0 || !enabled()) return {};
  if (root_id == 0) root_id = 1;
  const lockcheck::CheckedLock lock(mutex_);
  Timeline& t = jobs_[gid];
  if (t.spans.empty()) {
    // Fresh process: rebuild the root from the logged id so replayed
    // spans attach to the same timeline the pre-crash process exported.
    JobSpan root;
    root.id = root_id;
    root.name = name;
    root.start_ns = now_ns();
    t.spans.push_back(std::move(root));
    t.next_id = root_id + 1;
  }
  ++t.incarnation;
  return {gid, t.spans.front().id};
}

std::uint64_t JobTraceRegistry::begin(const TraceContext& parent,
                                      const char* name, int shard) {
  if (!parent.active()) return 0;
  const lockcheck::CheckedLock lock(mutex_);
  Timeline& t = jobs_[parent.gid];
  if (t.spans.size() >= kMaxSpansPerJob) {
    if (!t.spans.empty()) {
      for (Attr& a : t.spans.front().attrs) {
        if (a.key == "spans_dropped") {
          a.num += 1.0;
          return 0;
        }
      }
      t.spans.front().attrs.push_back(Attr{"spans_dropped", true, 1.0, {}});
    }
    return 0;
  }
  JobSpan s;
  s.id = t.next_id++;
  s.parent = parent.parent_span;
  s.name = name;
  s.shard = shard;
  s.incarnation = t.incarnation;
  s.start_ns = now_ns();
  t.spans.push_back(std::move(s));
  return t.spans.back().id;
}

void JobTraceRegistry::end(std::uint64_t gid, std::uint64_t span) {
  if (gid == 0 || span == 0 || !enabled()) return;
  const lockcheck::CheckedLock lock(mutex_);
  if (JobSpan* s = find_locked(gid, span); s != nullptr && s->end_ns == 0) {
    s->end_ns = now_ns();
    if (s->end_ns == s->start_ns) ++s->end_ns;  // keep end > start visible
  }
}

std::uint64_t JobTraceRegistry::event(const TraceContext& parent,
                                      const char* name, int shard) {
  const std::uint64_t id = begin(parent, name, shard);
  if (id == 0) return 0;
  const lockcheck::CheckedLock lock(mutex_);
  if (JobSpan* s = find_locked(parent.gid, id); s != nullptr) {
    s->event = true;
    s->end_ns = s->start_ns;
  }
  return id;
}

void JobTraceRegistry::attr(std::uint64_t gid, std::uint64_t span,
                            const char* key, double value) {
  if (gid == 0 || span == 0 || !enabled()) return;
  const lockcheck::CheckedLock lock(mutex_);
  if (JobSpan* s = find_locked(gid, span); s != nullptr) {
    s->attrs.push_back(Attr{key, true, value, {}});
  }
}

void JobTraceRegistry::attr(std::uint64_t gid, std::uint64_t span,
                            const char* key, const std::string& value) {
  if (gid == 0 || span == 0 || !enabled()) return;
  const lockcheck::CheckedLock lock(mutex_);
  if (JobSpan* s = find_locked(gid, span); s != nullptr) {
    s->attrs.push_back(Attr{key, false, 0.0, value});
  }
}

void JobTraceRegistry::drop_job(std::uint64_t gid) {
  if (gid == 0 || !enabled()) return;
  const lockcheck::CheckedLock lock(mutex_);
  jobs_.erase(gid);
}

std::uint32_t JobTraceRegistry::incarnation(std::uint64_t gid) const {
  const lockcheck::CheckedLock lock(mutex_);
  const auto it = jobs_.find(gid);
  return it == jobs_.end() ? 0 : it->second.incarnation;
}

std::vector<JobSpan> JobTraceRegistry::spans(std::uint64_t gid) const {
  const lockcheck::CheckedLock lock(mutex_);
  const auto it = jobs_.find(gid);
  return it == jobs_.end() ? std::vector<JobSpan>{} : it->second.spans;
}

std::size_t JobTraceRegistry::n_jobs() const {
  const lockcheck::CheckedLock lock(mutex_);
  return jobs_.size();
}

std::vector<std::uint64_t> JobTraceRegistry::gids() const {
  const lockcheck::CheckedLock lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(jobs_.size());
  for (const auto& [gid, t] : jobs_) out.push_back(gid);
  return out;
}

std::string JobTraceRegistry::export_json() const {
  std::map<std::uint64_t, Timeline> copy;
  {
    const lockcheck::CheckedLock lock(mutex_);
    copy = jobs_;
  }
  std::string out;
  out.reserve(copy.size() * 512 + 256);
  out += "{\n  \"schema\": \"swraman-jobtrace-v1\",\n";
  out += "  \"generated\": \"" + json_escape(log::timestamp_utc_now()) +
         "\",\n";
  out += "  \"jobs\": [\n";
  bool first_job = true;
  for (const auto& [gid, t] : copy) {
    if (!first_job) out += ",\n";
    first_job = false;
    out += "    {\"gid\": " + std::to_string(gid) +
           ", \"incarnations\": " + std::to_string(t.incarnation + 1) +
           ", \"spans\": [\n";
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const JobSpan& s = t.spans[i];
      out += "      {\"id\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
             json_escape(s.name) + "\", \"shard\": " +
             std::to_string(s.shard) + ", \"incarnation\": " +
             std::to_string(s.incarnation) + ", \"start_ns\": " +
             std::to_string(s.start_ns) + ", \"end_ns\": " +
             std::to_string(s.end_ns) + ", \"event\": " +
             (s.event ? "true" : "false") + ", \"attrs\": " +
             attrs_json(s.attrs) + '}';
      out += (i + 1 < t.spans.size()) ? ",\n" : "\n";
    }
    out += "    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void JobTraceRegistry::reset_for_testing() {
  const lockcheck::CheckedLock lock(mutex_);
  jobs_.clear();
}

bool write_jobtrace_file(const std::string& path) {
  return write_text_file(path, JobTraceRegistry::instance().export_json());
}

ScopedJobSpan::ScopedJobSpan(const TraceContext& parent, const char* name,
                             int shard)
    : parent_(parent),
      id_(JobTraceRegistry::instance().begin(parent, name, shard)),
      open_(id_ != 0),
      uncaught_(std::uncaught_exceptions()) {}

ScopedJobSpan::~ScopedJobSpan() {
  if (std::uncaught_exceptions() <= uncaught_) end();
}

void ScopedJobSpan::attr(const char* key, double value) {
  JobTraceRegistry::instance().attr(parent_.gid, id_, key, value);
}

void ScopedJobSpan::attr(const char* key, const std::string& value) {
  JobTraceRegistry::instance().attr(parent_.gid, id_, key, value);
}

void ScopedJobSpan::end() {
  if (!open_) return;
  open_ = false;
  JobTraceRegistry::instance().end(parent_.gid, id_);
}

TraceContext ScopedJobSpan::context() const {
  return id_ != 0 ? TraceContext{parent_.gid, id_} : parent_;
}

}  // namespace swraman::obs
