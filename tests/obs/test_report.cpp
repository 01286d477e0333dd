#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace swraman::obs {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_for_testing();
    Registry::instance().reset_for_testing();
  }
  void TearDown() override {
    set_enabled(false);
    reset_for_testing();
    Registry::instance().reset_for_testing();
  }

  // A small pipeline-shaped trace: two scf.iter under scf.solve, one of
  // them carrying a numeric attribute.
  void record_sample() {
    SWRAMAN_TRACE_SPAN(solve, "scf.solve");
    {
      SWRAMAN_TRACE_SPAN(iter, "scf.iter");
      iter.attr("flops", 100.0);
    }
    {
      SWRAMAN_TRACE_SPAN(iter, "scf.iter");
      iter.attr("flops", 50.0);
    }
  }
};

TEST_F(ReportTest, AggregationMergesSpansByPath) {
  record_sample();
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  ASSERT_EQ(phases.size(), 2u);
  // DFS order: parent first, then its children.
  EXPECT_EQ(phases[0].path, "scf.solve");
  EXPECT_EQ(phases[0].count, 1u);
  EXPECT_EQ(phases[1].path, "scf.solve/scf.iter");
  EXPECT_EQ(phases[1].count, 2u);
  EXPECT_DOUBLE_EQ(phases[1].attr_sums.at("flops"), 150.0);
}

TEST_F(ReportTest, SelfTimeExcludesChildren) {
  record_sample();
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  const PhaseNode& solve = phases[0];
  const PhaseNode& iter = phases[1];
  EXPECT_LE(solve.self_s, solve.wall_s);
  EXPECT_NEAR(solve.self_s, solve.wall_s - iter.wall_s, 1e-12);
  EXPECT_DOUBLE_EQ(iter.self_s, iter.wall_s);  // leaf: self == wall
}

TEST_F(ReportTest, ChromeTraceJsonSchema) {
  record_sample();
  instant("fault.injected", "site", std::string("scf.diverge"));
  const std::string json = chrome_trace_json(snapshot());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scf.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  EXPECT_NE(json.find("\"args\":{\"flops\":100"), std::string::npos);
  EXPECT_NE(json.find("\"site\":\"scf.diverge\""), std::string::npos);
  // Every event needs ts/pid/tid for the viewer to accept the file.
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
}

TEST_F(ReportTest, PerfReportJsonSchema) {
  record_sample();
  count("scf.iterations", 2.0);
  gauge_set("grid.imbalance", 1.1);
  observe("dfpt.sternheimer.residual", 1e-4);
  const std::string json = perf_report_json(snapshot(), 1.5);
  EXPECT_NE(json.find("\"schema\": \"swraman-perf-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"total_wall_s\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"phases\": ["), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"scf.solve/scf.iter\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"flops\": 150"), std::string::npos);
  EXPECT_NE(json.find("\"scf.iterations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"grid.imbalance\": 1.1"), std::string::npos);
  EXPECT_NE(json.find("\"dfpt.sternheimer.residual\": {\"count\": 1"),
            std::string::npos);
}

TEST_F(ReportTest, JsonStringsAreEscaped) {
  {
    SWRAMAN_TRACE_SPAN(span, "weird");
    span.attr("note", "a\"b\\c\nd");
  }
  const std::string json = chrome_trace_json(snapshot());
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST_F(ReportTest, PhaseTreeTextIndentsByDepth) {
  record_sample();
  const std::string text = phase_tree_text(aggregate_phases(snapshot()));
  EXPECT_NE(text.find("scf.solve"), std::string::npos);
  EXPECT_NE(text.find("\n  scf.iter"), std::string::npos);  // depth-1 indent
  EXPECT_NE(text.find("wall (s)"), std::string::npos);
}

TEST_F(ReportTest, RootsWithoutRecordedParentKeepTheirOrder) {
  { SWRAMAN_TRACE_SCOPE("relax"); }
  { SWRAMAN_TRACE_SCOPE("scf.solve"); }
  { SWRAMAN_TRACE_SCOPE("dfpt.response"); }
  const std::vector<PhaseNode> phases = aggregate_phases(snapshot());
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].path, "relax");
  EXPECT_EQ(phases[1].path, "scf.solve");
  EXPECT_EQ(phases[2].path, "dfpt.response");
}

TEST_F(ReportTest, ChildrenOnAdoptingThreadsLeaveParentSelfTimeNonNegative) {
  // Two workers each run a child longer than half the parent's wall, so
  // subtracting their summed wall would make the parent's self time
  // negative; only the same-thread child comes off it.
  {
    SWRAMAN_TRACE_SPAN(parent, "raman.hessian");
    { SWRAMAN_TRACE_SCOPE("scf.solve"); }
    const SpanContext ctx = current_context();
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&ctx] {
        const AdoptedContext adopt(ctx);
        SWRAMAN_TRACE_SCOPE("scf.solve");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::vector<SpanRecord> spans = snapshot();
  const std::vector<PhaseNode> phases = aggregate_phases(spans);
  ASSERT_EQ(phases.size(), 2u);
  const PhaseNode& parent = phases[0];
  const PhaseNode& solve = phases[1];
  EXPECT_EQ(solve.path, "raman.hessian/scf.solve");
  EXPECT_EQ(solve.count, 3u);
  EXPECT_GT(solve.wall_s, parent.wall_s);  // workers overlap each other
  double same_thread = 0.0;
  for (const SpanRecord& s : spans) {
    if (s.name == "scf.solve" && !s.cross_thread) {
      same_thread += 1e-9 * static_cast<double>(s.dur_ns);
    }
  }
  EXPECT_GE(parent.self_s, 0.0);
  EXPECT_NEAR(parent.self_s, parent.wall_s - same_thread, 1e-12);
}

}  // namespace
}  // namespace swraman::obs
