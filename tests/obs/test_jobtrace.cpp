#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/jobtrace.hpp"
#include "obs/report.hpp"

namespace swraman::obs {
namespace {

class JobTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    JobTraceRegistry::instance().reset_for_testing();
  }
  void TearDown() override {
    set_enabled(false);
    JobTraceRegistry::instance().reset_for_testing();
  }
};

TEST_F(JobTraceTest, RootIsAlwaysSpanOneAndIdempotent) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext a = jt.root(7, "job");
  EXPECT_EQ(a.gid, 7u);
  EXPECT_EQ(a.parent_span, 1u);
  const TraceContext b = jt.root(7, "job");
  EXPECT_EQ(b.parent_span, 1u);
  EXPECT_EQ(jt.spans(7).size(), 1u);
  EXPECT_EQ(jt.n_jobs(), 1u);
}

TEST_F(JobTraceTest, DisabledRegistryIsInert) {
  set_enabled(false);
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(5, "job");
  EXPECT_EQ(root.gid, 0u);
  EXPECT_FALSE(root.active());
  EXPECT_EQ(jt.begin(root, "submit"), 0u);
  EXPECT_EQ(jt.n_jobs(), 0u);
}

TEST_F(JobTraceTest, SpansNestUnderParentsWithMonotoneIds) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  const std::uint64_t route = jt.begin(root, "route");
  const std::uint64_t disp =
      jt.begin({1, route}, "displacement", /*shard=*/2);
  EXPECT_GT(route, 1u);
  EXPECT_GT(disp, route);
  jt.end(1, disp);
  jt.end(1, route);
  const std::vector<JobSpan> spans = jt.spans(1);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].name, "route");
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[2].parent, route);
  EXPECT_EQ(spans[2].shard, 2);
  // Children never start before their parent.
  EXPECT_GE(spans[2].start_ns, spans[1].start_ns);
  EXPECT_NE(spans[1].end_ns, 0u);
  EXPECT_NE(spans[2].end_ns, 0u);
}

TEST_F(JobTraceTest, EndIsIdempotentAndNeverZeroDuration) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  const std::uint64_t s = jt.begin(root, "submit");
  jt.end(1, s);
  const std::uint64_t first_end = jt.spans(1)[1].end_ns;
  EXPECT_GT(first_end, jt.spans(1)[1].start_ns);
  jt.end(1, s);  // second close must not move the timestamp
  EXPECT_EQ(jt.spans(1)[1].end_ns, first_end);
  jt.end(1, 0);        // id 0: no-op
  jt.end(1, 999999);   // unknown: no-op
  jt.end(42, s);       // unknown gid: no-op
}

TEST_F(JobTraceTest, EventsCloseInstantly) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  const std::uint64_t ev = jt.event(root, "dedup", /*shard=*/0);
  const std::vector<JobSpan> spans = jt.spans(1);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans[1].event);
  EXPECT_EQ(spans[1].end_ns, spans[1].start_ns);
  EXPECT_EQ(spans[1].id, ev);
}

TEST_F(JobTraceTest, AttrsAttachToSpans) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  const std::uint64_t s = jt.begin(root, "submit");
  jt.attr(1, s, "tenant", std::string("alice"));
  jt.attr(1, s, "tasks", 7.0);
  const std::vector<JobSpan> spans = jt.spans(1);
  ASSERT_EQ(spans[1].attrs.size(), 2u);
  EXPECT_EQ(spans[1].attrs[0].key, "tenant");
  EXPECT_EQ(spans[1].attrs[1].key, "tasks");
}

TEST_F(JobTraceTest, RestoreRootBumpsIncarnationAndRecreatesTimeline) {
  auto& jt = JobTraceRegistry::instance();
  // Fresh process after a crash: no in-memory timeline for gid 9; the WAL
  // replay restores the logged root id and starts incarnation 1.
  const TraceContext r = jt.restore_root(9, 1, "job");
  EXPECT_EQ(r.gid, 9u);
  EXPECT_EQ(r.parent_span, 1u);
  EXPECT_EQ(jt.incarnation(9), 1u);
  const std::uint64_t replay = jt.begin(r, "replay", /*shard=*/0);
  EXPECT_EQ(jt.spans(9).back().incarnation, 1u);
  jt.end(9, replay);
  // Replay-of-replay (double crash) bumps again without duplicating root.
  jt.restore_root(9, 1, "job");
  EXPECT_EQ(jt.incarnation(9), 2u);
  EXPECT_EQ(jt.spans(9).front().id, 1u);
}

TEST_F(JobTraceTest, OpenSpanSurvivesCrashAsOpen) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(3, "job");
  const std::uint64_t disp = jt.begin(root, "displacement", /*shard=*/1);
  // The shard dies mid-displacement: the span is deliberately never
  // ended. A stitched timeline keeps it open as the kill's footprint.
  jt.restore_root(3, 1, "job");
  const std::vector<JobSpan> spans = jt.spans(3);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].id, disp);
  EXPECT_EQ(spans[1].end_ns, 0u);
  EXPECT_EQ(spans[1].incarnation, 0u);
}

TEST_F(JobTraceTest, DropJobErasesRejectedTimeline) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(4, "job");
  jt.begin(root, "route");
  jt.drop_job(4);
  EXPECT_EQ(jt.n_jobs(), 0u);
  EXPECT_TRUE(jt.spans(4).empty());
  // The gid is reused by the next accepted job with a clean slate.
  jt.root(4, "job");
  EXPECT_EQ(jt.spans(4).size(), 1u);
}

TEST_F(JobTraceTest, SpanCapDropsExcessAndCountsThem) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  std::uint64_t last = 0;
  for (int i = 0; i < (1 << 16) + 10; ++i) {
    last = jt.begin(root, "s");
  }
  EXPECT_EQ(last, 0u);  // capped: further begins return inactive ids
  const std::vector<JobSpan> spans = jt.spans(1);
  EXPECT_LE(spans.size(), (1u << 16) + 1u);
  bool counted = false;
  for (const Attr& a : spans.front().attrs) {
    if (a.key == "spans_dropped") counted = true;
  }
  EXPECT_TRUE(counted);
}

TEST_F(JobTraceTest, ConcurrentSpansFromManyThreadsStitchOneTimeline) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&jt, &root, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        const std::uint64_t s = jt.begin(root, "displacement", t);
        jt.attr(root.gid, s, "i", static_cast<double>(i));
        jt.end(root.gid, s);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<JobSpan> spans = jt.spans(1);
  ASSERT_EQ(spans.size(), 1u + kThreads * kSpansPerThread);
  // Ids are unique and strictly increasing in storage order.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GT(spans[i].id, spans[i - 1].id);
    EXPECT_EQ(spans[i].parent, 1u);
  }
}

TEST_F(JobTraceTest, ExportJsonCarriesSchemaAndSpans) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(11, "job");
  const std::uint64_t s = jt.begin(root, "submit", 0);
  jt.attr(11, s, "tenant", std::string("alice"));
  jt.end(11, s);
  const std::string json = jt.export_json();
  EXPECT_NE(json.find("\"schema\": \"swraman-jobtrace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"gid\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"alice\""), std::string::npos);
  EXPECT_NE(json.find("\"incarnations\": 1"), std::string::npos);
}

TEST_F(JobTraceTest, SpanSwitchAloneRecordsTimelines) {
  // The span tracer's switch is the only one: turning it on is enough
  // for the serve tier's job timelines to record.
  auto& jt = JobTraceRegistry::instance();
  set_enabled(false);
  EXPECT_FALSE(jt.root(2, "job").active());
  set_enabled(true);
  const TraceContext root = jt.root(2, "job");
  EXPECT_TRUE(root.active());
  EXPECT_NE(jt.begin(root, "submit"), 0u);
  EXPECT_EQ(jt.spans(2).size(), 2u);
}

// The single span a scope opened under `root`.
JobSpan only_child(std::uint64_t gid) {
  const std::vector<JobSpan> spans = JobTraceRegistry::instance().spans(gid);
  EXPECT_EQ(spans.size(), 2u);
  return spans.size() == 2 ? spans[1] : JobSpan{};
}

TEST_F(JobTraceTest, ScopedSpanClosesOnEarlyReturn) {
  const TraceContext root = JobTraceRegistry::instance().root(1, "job");
  const auto task = [&root](bool fail) {
    ScopedJobSpan span(root, "displacement", /*shard=*/0);
    if (fail) {
      span.attr("failed", 1.0);
      return;
    }
    span.attr("unreachable", 1.0);
  };
  task(true);
  const JobSpan s = only_child(1);
  EXPECT_NE(s.end_ns, 0u);
  EXPECT_EQ(s.shard, 0);
  ASSERT_EQ(s.attrs.size(), 1u);
  EXPECT_EQ(s.attrs[0].key, "failed");
}

TEST_F(JobTraceTest, ScopedSpanStaysOpenOnExceptionUnwind) {
  const TraceContext root = JobTraceRegistry::instance().root(1, "job");
  EXPECT_THROW(
      {
        ScopedJobSpan span(root, "hessian");
        throw std::runtime_error("shard killed");
      },
      std::runtime_error);
  EXPECT_EQ(only_child(1).end_ns, 0u);  // the kill's footprint
}

TEST_F(JobTraceTest, ScopedSpanEndBeforeRethrowCloses) {
  const TraceContext root = JobTraceRegistry::instance().root(1, "job");
  EXPECT_THROW(
      {
        ScopedJobSpan span(root, "submit");
        try {
          throw std::runtime_error("wal wedged");
        } catch (...) {
          span.attr("aborted", "wal");
          span.end();
          throw;
        }
      },
      std::runtime_error);
  const JobSpan s = only_child(1);
  EXPECT_NE(s.end_ns, 0u);
  ASSERT_EQ(s.attrs.size(), 1u);
  EXPECT_EQ(s.attrs[0].str, "wal");
}

TEST_F(JobTraceTest, ScopedSpanOpenedInCatchHandlerCloses) {
  const TraceContext root = JobTraceRegistry::instance().root(1, "job");
  try {
    throw std::runtime_error("handled");
  } catch (const std::runtime_error&) {
    // The handled exception is no longer in flight: a normal close.
    ScopedJobSpan span(root, "replay");
  }
  EXPECT_NE(only_child(1).end_ns, 0u);
}

TEST_F(JobTraceTest, ScopedSpanContextNestsOrPassesParentThrough) {
  auto& jt = JobTraceRegistry::instance();
  const TraceContext root = jt.root(1, "job");
  {
    ScopedJobSpan span(root, "route");
    const TraceContext child = span.context();
    EXPECT_EQ(child.gid, 1u);
    EXPECT_EQ(child.parent_span, only_child(1).id);
  }
  set_enabled(false);
  const TraceContext parent{1, 1};
  ScopedJobSpan inactive(parent, "route");
  EXPECT_EQ(inactive.context().gid, parent.gid);
  EXPECT_EQ(inactive.context().parent_span, parent.parent_span);
  inactive.end();  // no-op
  EXPECT_EQ(jt.spans(1).size(), 2u);
}

// Sets an environment variable for the scope, restoring the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST_F(JobTraceTest, EnvReportsWriteJobtraceOnlyWhenAJobWasTraced) {
  const std::string path = ::testing::TempDir() + "env_reports_jobtrace.json";
  std::filesystem::remove(path);
  const ScopedEnv trace_file("SWRAMAN_TRACE_FILE", "");
  const ScopedEnv perf_file("SWRAMAN_PERF_FILE", "");
  const ScopedEnv jobtrace_file("SWRAMAN_JOBTRACE_FILE", path);

  write_env_reports();  // no job traced: no file
  EXPECT_FALSE(std::filesystem::exists(path));

  auto& jt = JobTraceRegistry::instance();
  jt.end(7, jt.begin(jt.root(7, "job"), "submit"));
  write_env_reports();
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::stringstream body;
  body << in.rdbuf();
  EXPECT_NE(body.str().find("\"schema\": \"swraman-jobtrace-v1\""),
            std::string::npos);
  EXPECT_NE(body.str().find("\"gid\": 7"), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace swraman::obs
