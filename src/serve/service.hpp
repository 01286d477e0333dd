#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/lockcheck.hpp"
#include "obs/jobtrace.hpp"
#include "serve/cache.hpp"
#include "serve/dag.hpp"
#include "serve/engine.hpp"
#include "serve/pool.hpp"
#include "serve/scheduler.hpp"

// RamanService (DESIGN.md S11): the multi-tenant job service over the
// existing Raman stack. submit() admits or rejects a JobSpec (bounded
// queues + modeled-memory backpressure), decomposes admitted jobs into
// the displacement DAG, deduplicates displacement evaluations through
// the content-addressed cache, and lets the work-stealing pool drain the
// weighted fair-share scheduler. wait()/drain() deliver results.
//
// Determinism contract: submissions are serialized end to end by the
// submit serial lock (the service mutex itself is dropped for the
// blocking middle phase — WAL fsync, content hashing, checkpoint
// replay), cache ownership and admission decisions are made at submit
// time,
// and every derivative/spectrum is assembled from per-node result slots
// in fixed index order — so a fixed (trace, seed, limits) produces
// bitwise-identical job results and dedup/admission counters regardless
// of worker count or interleaving. Only timing-shaped metrics (latency
// histograms, steal counts) vary.

namespace swraman::serve {

// Fault site: one displacement/Hessian evaluation fails transiently
// (thrown as TimeoutError, consumed by the bounded per-task retry).
inline constexpr const char* kFaultTaskFail = "serve.task.fail";

// Durability/federation hooks of the sharded tier (DESIGN.md S12). All
// hooks are optional; `tag` is the caller-supplied durable id passed in
// SubmitOptions (the sharded tier's global job id), not the service-local
// job id.
struct ServiceHooks {
  // Called OFF the service mutex (submissions stay serialized by the
  // submit serial lock) after the admission decision and BEFORE any job
  // state exists or the submission is acknowledged. A throwing hook
  // (wedged WAL) aborts the submission with no state change — the
  // log-before-ack contract. The blocking audit relies on this: the WAL
  // fsync behind this hook must never run under a strict lock.
  std::function<void(std::uint64_t tag, const JobSpec& spec)> on_accept;
  // Computed results: called on the worker thread, off-lock, before the
  // DAG sees the completion (durable-before-visible). Warm/checkpoint/
  // dedup completions: deferred through the hook outbox and drained
  // off-lock before the enclosing submit()/execute() returns — the WAL
  // task records are best-effort (a loss costs recomputation on replay,
  // never an acknowledged job), so the deferral is safe. Must not throw.
  std::function<void(std::uint64_t tag, std::size_t coord, int sign,
                     const raman::GeometryRecord& rec)>
      on_task_durable;
  // Called off-lock from the hook drain after the terminal transition;
  // wait() may observe the result before this ran (the WAL "done" record
  // is best-effort). Must not throw.
  std::function<void(std::uint64_t tag, const JobResult& result)> on_finish;
  // Cross-shard displacement cache: consulted (off-lock, worker threads)
  // before a local owner evaluation; fills the *canonical-frame* record
  // and returns true on a hit. Must bound its own latency (timeout
  // fallback to local compute). The job's trace context rides along so
  // the serving shard can stamp its side of the round trip onto the same
  // cross-shard timeline. `n_forces` is the expected force-vector length
  // of the record: 0 for displacement tasks, 3N for bec field tasks.
  std::function<bool(std::uint64_t key, raman::GeometryRecord* canonical,
                     const obs::TraceContext& ctx, std::size_t n_forces)>
      remote_lookup;
  // Publishes a locally computed canonical record for peer shards
  // (off-lock, worker threads; must not throw).
  std::function<void(std::uint64_t key, const raman::GeometryRecord& rec)>
      publish;
};

// Per-submission options of the sharded/replay paths. Plain submit(spec)
// keeps the PR-5 behaviour bit for bit.
struct SubmitOptions {
  // Durable global id forwarded to every hook; 0 outside the sharded tier.
  std::uint64_t tag = 0;
  // WAL replay warm set: displacement results (own frame, keyed
  // (coord, sign)) that complete their nodes at submit, exactly like
  // checkpoint hits. Not owned; must outlive the submit() call.
  const std::map<std::pair<std::size_t, int>, raman::GeometryRecord>*
      warm = nullptr;
  // Replay of an already-acknowledged job: admission limits are charged
  // but never reject — accepted work must survive a shard death even if
  // the survivor is momentarily over its admission budget.
  bool force_admit = false;
  // Cross-shard trace context: which job timeline (gid) and which span
  // (the router's route/replay span) this submission nests under. The
  // default inactive context keeps plain submissions untraced.
  obs::TraceContext trace;
};

struct ServiceOptions {
  std::size_t n_workers = 2;
  bool work_stealing = true;   // false: no stealing between deques
  bool use_cache = true;       // content-addressed displacement dedup
  bool use_symmetry = true;    // canonicalize under the 48 axis transforms
  // Construct paused: submissions queue deterministically, start() (or
  // the first wait()/drain()) launches the workers.
  bool start_paused = false;
  AdmissionLimits admission;
  ModeledEngineOptions modeled;        // seed of the modeled engine
  double pull_target_seconds = 0.05;   // central-pull batch, modeled cost
  std::size_t pull_max_tasks = 64;
  // Shard id stamped onto jobtrace spans and per-shard gauge/log names
  // (-1: unsharded service — no suffix, tier-level spans).
  int shard_id = -1;
  // Live-health backpressure hint in [0, 1] (the SLO monitor's burn-rate
  // signal); rejected submissions stretch retry_after_s by (1 + hint) so
  // clients back off harder while the error budget is burning.
  std::function<double()> backpressure;
  // Durability/remote-cache hooks of the sharded tier (all optional).
  ServiceHooks hooks;
};

struct SubmitResult {
  bool accepted = false;
  std::uint64_t job_id = 0;     // valid when accepted
  std::string reason;           // "queue-depth" / "modeled-memory"
  double retry_after_s = 0.0;   // backpressure hint when rejected
};

struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_rejected = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t tasks_executed = 0;   // engine evaluations actually run
  std::uint64_t field_tasks_executed = 0;  // bec field evaluations (subset
                                           // of tasks_executed)
  std::uint64_t task_retries = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t warm_hits = 0;    // WAL-replay records applied at submit
  std::uint64_t remote_hits = 0;  // cross-shard cache hits
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_ratio = 0.0;
  std::size_t queue_depth = 0;
  double modeled_bytes = 0.0;
  std::size_t workers_alive = 0;
};

class RamanService {
 public:
  explicit RamanService(ServiceOptions options = {});
  ~RamanService();
  RamanService(const RamanService&) = delete;
  RamanService& operator=(const RamanService&) = delete;

  // Admission-controlled, non-blocking. Rejected jobs are not queued; the
  // caller should retry after retry_after_s. SubmitOptions carries the
  // sharded tier's durable id, WAL-replay warm records, and the
  // force-admit flag; the default keeps plain submissions unchanged.
  SubmitResult submit(const JobSpec& spec, const SubmitOptions& sub = {});

  // Launches the worker pool (idempotent; no-op when not start_paused).
  void start();

  // Blocks until the job completed or failed; returns its result.
  JobResult wait(std::uint64_t job_id);

  // Blocks until every accepted job completed or failed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct NodeKey {
    std::uint64_t key = 0;
    AxisTransform to_canonical;
    bool owner = false;
  };
  struct JobState;
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  void execute(std::size_t worker, TaskRef ref);
  // Evaluate/dedup/durability path of the two root task kinds
  // (displacement and field-force nodes).
  void run_evaluation(std::size_t worker, JobState& job, std::size_t node);
  void run_hessian(std::size_t worker, JobState& job, std::size_t node);
  void run_row(std::size_t worker, JobState& job, std::size_t node);
  void run_assemble(std::size_t worker, JobState& job, std::size_t node);
  // Evaluation with bounded retry; returns false after failing the job.
  bool evaluate_with_retry(JobState& job, const TaskContext& ctx,
                           raman::GeometryRecord* rec);

  // All four below require mutex_ held.
  double node_cost(const JobState& job, std::size_t node) const;
  void dispatch_ready(std::size_t worker, JobState& job, std::size_t node);
  void complete_node(std::size_t worker, JobState& job, std::size_t node);
  void finish_job(JobState& job, JobStatus status, const std::string& error);
  void fail_job_locked(std::uint64_t job_id, const std::string& error);

  // Queues a durability notification (and optional checkpoint append)
  // discovered under mutex_ for the off-lock hook drain. Requires mutex_.
  void defer_durable_locked(std::uint64_t tag, std::size_t coord, int sign,
                            const raman::GeometryRecord& rec,
                            raman::Checkpoint* ckpt);
  // Drains the hook outboxes off-lock (fsync-backed WAL appends,
  // checkpoint writes, finish notifications). Called at the end of
  // submit() and execute(); serialized so hook order is stable.
  void drain_hooks();

  // Refresh the per-shard health gauges (queue depth, dedup hit ratio)
  // the SLO monitor snapshots; requires mutex_ held.
  void update_health_gauges_locked();

  ServiceOptions options_;
  std::unique_ptr<DisplacementEngine> real_engine_;
  std::unique_ptr<DisplacementEngine> modeled_engine_;
  // Gauge/log names are shard-suffixed ("serve.queue.depth.s0"); built
  // once so hot paths never concatenate.
  std::string queue_gauge_name_;
  std::string ratio_gauge_name_;
  std::string log_prefix_;

  mutable lockcheck::CheckedMutex mutex_{"serve.service"};
  lockcheck::CheckedCondVar cv_;
  std::map<std::uint64_t, std::unique_ptr<JobState>> jobs_;
  std::uint64_t next_job_id_ = 1;
  DisplacementCache cache_;
  FairShareScheduler scheduler_;
  ServiceStats tallies_;

  // Serializes whole submissions end to end while mutex_ is released for
  // the blocking middle phase (WAL fsync, key hashing, checkpoint
  // replay) — the determinism contract's serialization point.
  // kAllowsBlocking: holding it across the fsync is the design.
  lockcheck::CheckedMutex submit_serial_mutex_{
      "serve.submit_serial", lockcheck::CheckedMutex::kAllowsBlocking};

  // Serializes checkpoint file appends. kAllowsBlocking: the append's
  // fwrite happens under it by design; the audit polices that no strict
  // lock is held *around* it.
  lockcheck::CheckedMutex checkpoint_mutex_{
      "serve.ckpt", lockcheck::CheckedMutex::kAllowsBlocking};

  // Hook outboxes: durability/finish notifications discovered while
  // holding mutex_ (warm hits, dedup releases, terminal transitions) are
  // queued here and drained off-lock — the blocking audit's fix for
  // fsync-under-the-service-lock. Entries reference JobState-owned
  // checkpoints; jobs_ entries are never erased, so the pointers stay
  // valid for the service's lifetime.
  struct PendingDurable {
    std::uint64_t tag = 0;
    std::size_t coord = 0;
    int sign = 0;
    raman::GeometryRecord rec;
    raman::Checkpoint* ckpt = nullptr;  // also append to this checkpoint
  };
  struct PendingFinish {
    std::uint64_t tag = 0;
    JobResult result;
  };
  std::vector<PendingDurable> pending_durable_;  // guarded by mutex_
  std::vector<PendingFinish> pending_finish_;    // guarded by mutex_
  std::atomic<std::size_t> pending_hooks_{0};    // fast-path drain gate
  lockcheck::CheckedMutex hook_drain_mutex_{
      "serve.hook_drain", lockcheck::CheckedMutex::kAllowsBlocking};

  std::unique_ptr<WorkerPool> pool_;  // constructed last, stopped first
};

}  // namespace swraman::serve
