#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"
#include "serve/service.hpp"
#include "serve/sharded.hpp"

// End-to-end exercises of the distributed observability plane
// (DESIGN.md S13): worker log context, cross-shard jobtrace stitching
// across a kill/replay, the flight-recorder dump on a shard kill, and the
// SLO monitor riding the serve tier's own submit/finish paths.

namespace swraman::serve {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::create_directories(dir);
  return dir;
}

JobSpec modeled_spec(const std::string& client, std::size_t n_atoms) {
  JobSpec spec;
  spec.client = client;
  spec.name = client + "-" + std::to_string(n_atoms);
  spec.engine = EngineKind::Modeled;
  spec.scale.n_atoms = n_atoms;
  return spec;
}

class ObsPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::flight::set_enabled(true);
    obs::flight::set_dump_dir(::testing::TempDir());
    obs::flight::reset_for_testing();
    obs::JobTraceRegistry::instance().reset_for_testing();
    obs::Registry::instance().reset_for_testing();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::flight::set_enabled(false);
    obs::flight::reset_for_testing();
    obs::JobTraceRegistry::instance().reset_for_testing();
    obs::Registry::instance().reset_for_testing();
  }
};

TEST_F(ObsPlaneTest, WorkerLogContextCarriesShardWorkerAndJob) {
  std::mutex mu;
  std::vector<std::string> contexts;
  ServiceOptions opts;
  opts.n_workers = 2;
  opts.shard_id = 3;
  opts.modeled.iterations_per_modeled_second = 100.0;
  opts.modeled.min_iterations = 50;
  opts.modeled.max_iterations = 500;
  // on_task_durable runs on the worker thread inside execute(), where the
  // scoped "/g<gid>" tag is active on top of the worker's "s3/w<k>".
  opts.hooks.on_task_durable = [&](std::uint64_t, std::size_t, int,
                                   const raman::GeometryRecord&) {
    const std::lock_guard<std::mutex> lock(mu);
    contexts.push_back(log::thread_context());
  };
  RamanService svc(opts);
  SubmitOptions sub;
  sub.tag = 17;
  const SubmitResult res = svc.submit(modeled_spec("alice", 2), sub);
  ASSERT_TRUE(res.accepted) << res.reason;
  svc.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(contexts.empty());
  for (const std::string& ctx : contexts) {
    EXPECT_EQ(ctx.rfind("s3/w", 0), 0u) << ctx;
    EXPECT_NE(ctx.find("/g17"), std::string::npos) << ctx;
  }
  // The worker context is scoped per task: this thread keeps its own.
  EXPECT_EQ(log::thread_context(), "");
}

TEST_F(ObsPlaneTest, RejectionStretchesRetryAfterByBackpressureHint) {
  ServiceOptions opts;
  opts.n_workers = 1;
  opts.admission.max_queued_tasks = 0;  // reject everything
  RamanService calm(opts);
  opts.backpressure = [] { return 0.5; };
  RamanService burning(opts);

  const JobSpec spec = modeled_spec("alice", 3);
  const SubmitResult a = calm.submit(spec);
  const SubmitResult b = burning.submit(spec);
  ASSERT_FALSE(a.accepted);
  ASSERT_FALSE(b.accepted);
  EXPECT_GT(a.retry_after_s, 0.0);
  // Identical fresh state, so the only difference is the (1 + hint)
  // stretch the burning error budget applies.
  EXPECT_NEAR(b.retry_after_s, 1.5 * a.retry_after_s,
              1e-9 * a.retry_after_s);
}

TEST_F(ObsPlaneTest, RejectedTracedSubmissionEndsSpanWithReason) {
  auto& jt = obs::JobTraceRegistry::instance();
  ServiceOptions opts;
  opts.admission.max_queued_tasks = 0;
  RamanService svc(opts);
  const obs::TraceContext root = jt.root(99, "job");
  SubmitOptions sub;
  sub.trace = root;
  const SubmitResult res = svc.submit(modeled_spec("alice", 2), sub);
  ASSERT_FALSE(res.accepted);
  const std::vector<obs::JobSpan> spans = jt.spans(99);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].name, "submit");
  EXPECT_NE(spans[1].end_ns, 0u);
  bool rejected_attr = false;
  for (const obs::Attr& a : spans[1].attrs) {
    if (a.key == "rejected") rejected_attr = true;
  }
  EXPECT_TRUE(rejected_attr);
}

// The tentpole end-to-end: a shard killed with in-flight jobs, recovered
// from its WAL, must leave (a) one stitched per-job timeline spanning
// both incarnations, (b) a flight-recorder dump for the kill, and (c)
// SLO health snapshots collected by the tier's own code paths.
TEST_F(ObsPlaneTest, JobTraceStitchesAcrossKillAndReplay) {
  fault::ScopedFaults guard;
  const std::string wal_dir = temp_dir("obs_plane_stitch");
  ShardedOptions opts;
  opts.n_shards = 2;
  opts.wal_dir = wal_dir;
  opts.service.n_workers = 2;
  opts.service.modeled.iterations_per_modeled_second = 100.0;
  // Slow spin kernel: the kills must land while displacement tasks are
  // still pending on some shard (a replayed job with every displacement
  // already durable has nothing post-kill to stitch), so each task burns
  // ~1 ms and the per-shard backlog stays tens of ms deep.
  opts.service.modeled.min_iterations = 1000000;
  opts.service.modeled.max_iterations = 1000000;
  opts.slo.min_period_s = 0.0;  // snapshot on every tier tick

  ShardedRamanService svc(opts);
  std::vector<std::uint64_t> gids;
  for (int i = 0; i < 6; ++i) {
    const SubmitResult res =
        svc.submit(modeled_spec(i % 2 == 0 ? "alice" : "bob", 2 + i % 3));
    ASSERT_TRUE(res.accepted) << res.reason;
    gids.push_back(res.job_id);
  }
  svc.kill_shard(0);
  svc.kill_shard(1);
  svc.recover_all();
  svc.drain();
  for (const std::uint64_t gid : gids) {
    EXPECT_EQ(svc.wait(gid).status, JobStatus::Completed);
  }

  // (a) Stitched timeline: some job crossed the kill — its single gid
  // timeline holds spans from incarnation 0 AND its replay.
  auto& jt = obs::JobTraceRegistry::instance();
  bool stitched = false;
  for (const std::uint64_t gid : gids) {
    if (jt.incarnation(gid) == 0) continue;
    const std::vector<obs::JobSpan> spans = jt.spans(gid);
    const bool has_replay = std::any_of(
        spans.begin(), spans.end(), [](const obs::JobSpan& s) {
          return s.name == "replay" && s.incarnation >= 1;
        });
    const bool has_pre_kill = std::any_of(
        spans.begin(), spans.end(), [](const obs::JobSpan& s) {
          return s.incarnation == 0 && s.id != 1;
        });
    const bool has_post_kill = std::any_of(
        spans.begin(), spans.end(), [](const obs::JobSpan& s) {
          return s.incarnation >= 1 && s.name == "displacement";
        });
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans.front().id, 1u);
    EXPECT_NE(spans.front().end_ns, 0u);  // root closed at completion
    if (has_replay && has_pre_kill && has_post_kill) stitched = true;
  }
  EXPECT_TRUE(stitched)
      << "no job timeline stitched across the kill/replay boundary";

  // (b) Flight recorder: the kill dumped a postmortem.
  EXPECT_GE(obs::flight::dump_count(), 1u);
  const std::string dump =
      ::testing::TempDir() + "flight-serve.shard.kill.json";
  EXPECT_TRUE(std::filesystem::exists(dump));

  // (c) SLO monitor: the tier's submit/finish/recover paths produced
  // health snapshots without any dedicated thread.
  const std::vector<obs::HealthSnapshot> hist = svc.slo().history();
  EXPECT_GE(hist.size(), 2u);
  const std::string health = svc.slo().export_json();
  EXPECT_NE(health.find("\"schema\": \"swraman-health-v1\""),
            std::string::npos);
  EXPECT_NE(health.find("\"tenant\": \"alice\""), std::string::npos);

  std::filesystem::remove_all(wal_dir);
}

TEST_F(ObsPlaneTest, SubmitSpansCarryTheAccuracyTierLabel) {
  auto& jt = obs::JobTraceRegistry::instance();
  ServiceOptions opts;
  opts.n_workers = 1;
  opts.start_paused = true;
  opts.modeled.iterations_per_modeled_second = 100.0;
  opts.modeled.min_iterations = 50;
  opts.modeled.max_iterations = 500;
  RamanService svc(opts);

  const auto submit_tier = [&](std::uint64_t gid, Tier tier) {
    JobSpec spec = modeled_spec("alice", 2);
    spec.tier = tier;
    SubmitOptions sub;
    sub.trace = jt.root(gid, "job");
    const SubmitResult res = svc.submit(spec, sub);
    ASSERT_TRUE(res.accepted) << res.reason;
  };
  submit_tier(71, Tier::Dfpt);
  submit_tier(72, Tier::Bec);
  svc.drain();

  const auto tier_attr = [&](std::uint64_t gid) {
    for (const obs::JobSpan& s : jt.spans(gid)) {
      if (s.name != "submit") continue;
      for (const obs::Attr& a : s.attrs) {
        if (a.key == "tier") return a.str;
      }
    }
    return std::string("<missing>");
  };
  // SLO dashboards and postmortems must be able to split by tier: every
  // submission span is labeled with the accuracy tier it was priced at.
  EXPECT_EQ(tier_attr(71), "dfpt");
  EXPECT_EQ(tier_attr(72), "bec");
}

TEST_F(ObsPlaneTest, CompletionLatencyIsRecordedPerTier) {
  ServiceOptions opts;
  opts.n_workers = 2;
  opts.modeled.iterations_per_modeled_second = 100.0;
  opts.modeled.min_iterations = 50;
  opts.modeled.max_iterations = 500;
  RamanService svc(opts);
  JobSpec dfpt = modeled_spec("alice", 2);
  JobSpec bec = modeled_spec("alice", 3);
  bec.tier = Tier::Bec;
  ASSERT_TRUE(svc.submit(dfpt).accepted);
  ASSERT_TRUE(svc.submit(bec).accepted);
  svc.drain();

  const auto hists = obs::Registry::instance().histogram_values();
  const auto count_of = [&](const std::string& name) -> std::uint64_t {
    const auto it = hists.find(name);
    return it == hists.end() ? 0u : it->second.count;
  };
  // One completion per tier, each in its own latency histogram, so tier
  // SLOs can diverge (the bec tier is priced and promised faster).
  EXPECT_EQ(count_of("serve.latency.tier.dfpt"), 1u);
  EXPECT_EQ(count_of("serve.latency.tier.bec"), 1u);
  for (const std::string name :
       {"serve.latency.tier.dfpt", "serve.latency.tier.bec"}) {
    const auto it = hists.find(name);
    ASSERT_NE(it, hists.end());
    EXPECT_GT(it->second.sum, 0.0) << name;
  }
}

}  // namespace
}  // namespace swraman::serve
