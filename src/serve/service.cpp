#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "raman/bec.hpp"
#include "raman/raman.hpp"
#include "raman/vibrations.hpp"
#include "robustness/fault.hpp"

namespace swraman::serve {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct RamanService::JobState {
  std::uint64_t id = 0;
  std::uint64_t tag = 0;  // durable global id (sharded tier); 0 unused
  JobSpec spec;
  JobEstimate est;
  std::uint64_t settings_fp = 0;
  JobDag dag;
  // Per root node (displacement ids 0..6N-1, or field ids 0..12):
  // content address + ownership.
  std::vector<NodeKey> keys;
  std::unique_ptr<raman::Checkpoint> checkpoint;
  JobStatus status = JobStatus::Queued;
  JobResult result;
  double submit_time = 0.0;
  bool released = false;  // admission charge given back exactly once
  // Cross-shard trace context of this job's spans (gid + the submit span
  // they nest under). Written once at submit before the job is published;
  // immutable afterwards, so worker threads read it off-lock.
  obs::TraceContext trace;
};

RamanService::RamanService(ServiceOptions options)
    : options_(std::move(options)),
      real_engine_(std::make_unique<RealEngine>()),
      modeled_engine_(std::make_unique<ModeledEngine>(options_.modeled)),
      scheduler_(options_.admission) {
  // Make the "caller locks for us" contracts checkable: every mutating
  // scheduler/cache call must hold mutex_ (lock.guard_unheld otherwise).
  scheduler_.set_guard(&mutex_);
  cache_.set_guard(&mutex_);
  // Prefixing a const lvalue, not the temporary of std::to_string: GCC 12
  // draws a false -Wrestrict on operator+(const char*, std::string&&).
  const std::string shard =
      options_.shard_id >= 0 ? std::to_string(options_.shard_id) : "";
  const std::string suffix = shard.empty() ? "" : "." + shard;
  queue_gauge_name_ = "serve.queue.depth" + suffix;
  ratio_gauge_name_ = "serve.cache.hit_ratio" + suffix;
  log_prefix_ = shard.empty() ? "" : "s" + shard;
  WorkerPool::Options pool_opts;
  pool_opts.n_workers = std::max<std::size_t>(1, options_.n_workers);
  pool_opts.steal = options_.work_stealing;
  pool_opts.pull_target_seconds = options_.pull_target_seconds;
  pool_opts.pull_max_tasks = options_.pull_max_tasks;
  pool_opts.log_prefix = log_prefix_;
  pool_ = std::make_unique<WorkerPool>(
      pool_opts,
      [this](std::size_t worker, TaskRef ref) { execute(worker, ref); },
      [this](double target, std::size_t max_tasks, std::vector<TaskRef>* out) {
        const lockcheck::CheckedLock lock(mutex_);
        return scheduler_.take(out, target, max_tasks);
      },
      [this](const std::vector<TaskRef>& orphans) {
        // A dying worker's deque is re-queued centrally: the tasks run
        // again on a surviving worker (work adoption, DESIGN.md S7/S11).
        const lockcheck::CheckedLock lock(mutex_);
        for (const TaskRef& ref : orphans) {
          auto it = jobs_.find(ref.job);
          if (it == jobs_.end()) continue;
          JobState& job = *it->second;
          if (job.status != JobStatus::Running) continue;
          scheduler_.push(job.spec.client, job.spec.priority,
                          node_cost(job, ref.node), ref);
        }
      });
  if (!options_.start_paused) pool_->start();
}

RamanService::~RamanService() { pool_->stop(); }

void RamanService::start() { pool_->start(); }

SubmitResult RamanService::submit(const JobSpec& spec,
                                  const SubmitOptions& sub) {
  SWRAMAN_TRACE_SPAN(span, "serve.submit");
  if (spec.engine == EngineKind::Real) {
    SWRAMAN_REQUIRE(!spec.atoms.empty(), "serve: Real job without atoms");
  } else {
    SWRAMAN_REQUIRE(spec.scale.n_atoms > 0,
                    "serve: Modeled job without a system scale");
    SWRAMAN_REQUIRE(!spec.with_modes,
                    "serve: with_modes requires the Real engine");
  }
  SWRAMAN_REQUIRE(spec.weight > 0.0, "serve: non-positive tenant weight");

  const JobEstimate est = estimate_job(spec);
  if (span.active()) {
    span.attr("tasks", static_cast<double>(est.n_tasks));
    span.attr("modeled_seconds", est.total_seconds);
  }

  // Cross-shard timeline: the submission nests under the router's
  // route/replay span carried in by sub.trace (no-op outside the sharded
  // tier, where the context is inactive).
  obs::ScopedJobSpan submit_span(sub.trace, "submit", options_.shard_id);
  submit_span.attr("tenant", spec.client);
  submit_span.attr("tier", std::string(tier_name(spec.tier)));
  submit_span.attr("tasks", static_cast<double>(est.n_tasks));

  // One submission at a time, end to end: admission order, cache
  // ownership and job ids stay deterministic even though the service
  // mutex is released for the blocking middle phase below.
  const lockcheck::CheckedLock serial(submit_serial_mutex_);

  // Phase 1 (service lock): the admission decision — the only state a
  // rejected submission ever touches.
  {
    const lockcheck::CheckedLock lock(mutex_);
    ++tallies_.jobs_submitted;

    const AdmissionDecision decision =
        scheduler_.admit(spec, est, sub.force_admit);
    if (!decision.admitted) {
      ++tallies_.jobs_rejected;
      obs::count("serve.jobs.rejected");
      SubmitResult res;
      res.accepted = false;
      res.reason = decision.reason;
      // Retry-after hint: the modeled backlog divided over live workers
      // is roughly when today's queue has drained; a burning error
      // budget (the SLO monitor's backpressure hint) stretches it
      // further.
      const double workers =
          static_cast<double>(std::max<std::size_t>(1, pool_->alive()));
      res.retry_after_s =
          (decision.outstanding_seconds + est.per_task_seconds) / workers;
      if (options_.backpressure) {
        res.retry_after_s *= 1.0 + options_.backpressure();
      }
      submit_span.attr("rejected", decision.reason);
      log::warn("serve: rejected job '", spec.name, "' of tenant '",
                spec.client, "' (", decision.reason, "), retry after ",
                res.retry_after_s, " s");
      return res;
    }
  }

  // Phase 2 (no service lock): everything blocking or expensive — the
  // WAL fsync behind on_accept, content-address hashing, checkpoint
  // replay reads. The admission charge is the only shared state this
  // phase owns; any throw gives it back under a fresh lock.
  // Log-before-ack still holds: the durable append finishes before any
  // job state exists or the submission is acknowledged. A throwing hook
  // (wedged WAL) aborts the submission with nothing queued — the job
  // was never acknowledged, so nothing can be lost.
  const std::uint64_t settings_fp = settings_fingerprint(spec);
  const std::size_t n = 3 * spec.n_atoms();
  const bool with_hessian = spec.engine == EngineKind::Real && spec.with_modes;
  const bool bec = spec.tier == Tier::Bec;
  const std::size_t n_field =
      bec ? static_cast<std::size_t>(raman::n_field_points()) : 0;
  JobDag dag;
  std::vector<NodeKey> keys;
  std::unique_ptr<raman::Checkpoint> checkpoint;
  try {
    if (options_.hooks.on_accept) {
      options_.hooks.on_accept(sub.tag, spec);
    }

    dag = bec ? JobDag(n, with_hessian, n_field) : JobDag(n, with_hessian);

    if (bec) {
      // Content addresses for the 13 field-force tasks. Real jobs hash
      // the equilibrium geometry plus the integer field direction under
      // one shared transform (canonical_field_key); modeled jobs hash
      // (scale fingerprint, stencil index) — symmetry-blind but still
      // dedup-identical across repeated submissions.
      keys.resize(n_field);
      for (std::size_t idx = 0; idx < n_field; ++idx) {
        if (spec.engine == EngineKind::Real) {
          const CanonicalKey ck = canonical_field_key(
              spec.atoms, raman::field_direction(static_cast<int>(idx)),
              settings_fp, options_.use_symmetry);
          keys[idx].key = ck.key;
          keys[idx].to_canonical = ck.to_canonical;
        } else {
          Hash64 h;
          h.u64(settings_fp);
          h.str("field");
          h.u64(idx);
          keys[idx].key = h.value();
        }
      }
    } else {
      // Content addresses for every displacement node. Real jobs hash the
      // actual displaced geometry (canonicalized under the axis group);
      // modeled jobs hash (scale fingerprint, coord, sign) —
      // symmetry-blind but still dedup-identical across repeated
      // submissions.
      keys.resize(2 * n);
      for (std::size_t coord = 0; coord < n; ++coord) {
        for (int s = 0; s < 2; ++s) {
          const int sign = s == 0 ? +1 : -1;
          const std::size_t node = dag.displacement_id(coord, sign);
          if (spec.engine == EngineKind::Real) {
            const CanonicalKey ck = canonical_key(
                grid::displaced(spec.atoms, coord,
                                sign * spec.options.alpha_displacement),
                settings_fp, options_.use_symmetry);
            keys[node].key = ck.key;
            keys[node].to_canonical = ck.to_canonical;
          } else {
            Hash64 h;
            h.u64(settings_fp);
            h.u64(coord);
            h.u64(static_cast<std::uint64_t>(sign + 2));
            keys[node].key = h.value();
          }
        }
      }
    }

    // Checkpoint restart: records finished by a previous incarnation of
    // this job complete their nodes before anything is queued. The bec
    // tier keys its field records (stencil index, sign 0) and stamps the
    // field strength into the header's displacement slot.
    if (spec.engine == EngineKind::Real &&
        !spec.options.checkpoint_path.empty()) {
      lockcheck::blocking_call("checkpoint.replay");
      checkpoint = std::make_unique<raman::Checkpoint>(
          spec.options.checkpoint_path, spec.atoms,
          bec ? spec.bec_field : spec.options.alpha_displacement);
    }
  } catch (...) {
    {
      const lockcheck::CheckedLock lock(mutex_);
      scheduler_.release(est);
    }
    submit_span.attr("aborted", "wal");
    submit_span.end();  // a rethrow would leave it open
    throw;
  }

  // Phase 3 (service lock): publish the job — id assignment, state,
  // warm/checkpoint/dedup completions (their durability notifications
  // deferred to the off-lock hook drain), dispatch.
  SubmitResult res;
  {
    const lockcheck::CheckedLock lock(mutex_);
    ++tallies_.jobs_accepted;
    obs::count("serve.jobs.accepted");
    const std::uint64_t id = next_job_id_++;
    auto owned = std::make_unique<JobState>();
    JobState& job = *owned;
    job.id = id;
    job.tag = sub.tag;
    // Task spans of this job nest under its submit span (falling back to
    // the caller's parent when tracing was toggled mid-flight).
    job.trace = submit_span.context();
    job.spec = spec;
    job.est = est;
    job.settings_fp = settings_fp;
    job.submit_time = now_seconds();
    job.status = JobStatus::Running;
    job.result.status = JobStatus::Running;
    job.dag = std::move(dag);
    job.result.dalpha = linalg::Matrix(n, 9);
    job.result.dmu = linalg::Matrix(n, 3);
    job.keys = std::move(keys);
    job.checkpoint = std::move(checkpoint);

    jobs_.emplace(id, std::move(owned));

    std::size_t n_warm = 0;
    std::size_t n_ckpt = 0;
    std::size_t n_dedup_hits = 0;
    std::size_t n_dedup_waits = 0;
    std::vector<std::size_t> pending_roots;
    for (std::size_t node_id : job.dag.roots()) {
      const TaskNode& node = job.dag.node(node_id);
      if (node.kind == TaskKind::Displacement ||
          node.kind == TaskKind::FieldForce) {
        // WAL-replay warm set first, then the per-job checkpoint: either
        // way the record is re-notified to the durability hook so the new
        // shard incarnation's log carries it (replay-of-replay safety).
        const raman::GeometryRecord* warm_rec = nullptr;
        if (sub.warm != nullptr) {
          const auto it = sub.warm->find({node.coord, node.sign});
          if (it != sub.warm->end()) warm_rec = &it->second;
        }
        if (warm_rec == nullptr && job.checkpoint != nullptr) {
          if (const raman::GeometryRecord* rec =
                  job.checkpoint->lookup(node.coord, node.sign)) {
            warm_rec = rec;
            ++n_ckpt;
            ++tallies_.checkpoint_hits;
            obs::count("serve.checkpoint.hits");
          }
        } else if (warm_rec != nullptr) {
          ++n_warm;
          ++tallies_.warm_hits;
          obs::count("serve.warm.hits");
        }
        if (warm_rec != nullptr) {
          job.dag.records[node_id] = *warm_rec;
          defer_durable_locked(job.tag, node.coord, node.sign, *warm_rec,
                               nullptr);
          complete_node(kNoWorker, job, node_id);
          continue;
        }
      }
      pending_roots.push_back(node_id);
    }

    for (std::size_t node_id : pending_roots) {
      const TaskNode& node = job.dag.node(node_id);
      if ((node.kind == TaskKind::Displacement ||
           node.kind == TaskKind::FieldForce) &&
          options_.use_cache) {
        raman::GeometryRecord rec;
        CacheWaiter waiter;
        waiter.job = id;
        waiter.node = node_id;
        waiter.from_canonical = inverse(job.keys[node_id].to_canonical);
        switch (cache_.reference(job.keys[node_id].key, waiter, &rec)) {
          case DisplacementCache::Ref::Owner:
            job.keys[node_id].owner = true;
            dispatch_ready(kNoWorker, job, node_id);
            break;
          case DisplacementCache::Ref::Hit:
            ++n_dedup_hits;
            job.dag.records[node_id] = rec;
            defer_durable_locked(job.tag, node.coord, node.sign, rec, nullptr);
            complete_node(kNoWorker, job, node_id);
            break;
          case DisplacementCache::Ref::Wait:
            ++n_dedup_waits;
            break;  // released when the owner completes
        }
      } else {
        dispatch_ready(kNoWorker, job, node_id);
      }
    }
    pool_->notify();

    if (n_warm != 0) {
      submit_span.attr("warm_hits", static_cast<double>(n_warm));
    }
    if (n_ckpt != 0) {
      submit_span.attr("checkpoint_hits", static_cast<double>(n_ckpt));
    }
    if (n_dedup_hits + n_dedup_waits != 0) {
      auto& jt = obs::JobTraceRegistry::instance();
      const std::uint64_t ev = jt.event(job.trace, "dedup", options_.shard_id);
      jt.attr(job.trace.gid, ev, "hits", static_cast<double>(n_dedup_hits));
      jt.attr(job.trace.gid, ev, "waits", static_cast<double>(n_dedup_waits));
    }
    submit_span.end();
    update_health_gauges_locked();

    res.accepted = true;
    res.job_id = id;
  }
  drain_hooks();
  return res;
}

void RamanService::defer_durable_locked(std::uint64_t tag, std::size_t coord,
                                        int sign,
                                        const raman::GeometryRecord& rec,
                                        raman::Checkpoint* ckpt) {
  if (!options_.hooks.on_task_durable && ckpt == nullptr) return;
  pending_durable_.push_back({tag, coord, sign, rec, ckpt});
  pending_hooks_.fetch_add(1, std::memory_order_release);
}

void RamanService::drain_hooks() {
  // Fast path: nothing queued (the common case — computed results notify
  // their hooks directly on the worker thread, off-lock).
  if (pending_hooks_.load(std::memory_order_acquire) == 0) return;
  // Serialize drains so checkpoint/WAL record order is stable; the lock
  // is kAllowsBlocking because the whole point is to fsync under it.
  const lockcheck::CheckedLock serial(hook_drain_mutex_);
  while (true) {
    std::vector<PendingDurable> durable;
    std::vector<PendingFinish> finish;
    {
      const lockcheck::CheckedLock lock(mutex_);
      durable.swap(pending_durable_);
      finish.swap(pending_finish_);
      pending_hooks_.store(0, std::memory_order_release);
    }
    if (durable.empty() && finish.empty()) return;
    for (const PendingDurable& d : durable) {
      if (d.ckpt != nullptr) {
        lockcheck::blocking_call("checkpoint.append");
        const lockcheck::CheckedLock ckpt_lock(checkpoint_mutex_);
        d.ckpt->record(d.coord, d.sign, d.rec);
      }
      if (options_.hooks.on_task_durable) {
        options_.hooks.on_task_durable(d.tag, d.coord, d.sign, d.rec);
      }
    }
    for (const PendingFinish& f : finish) {
      if (options_.hooks.on_finish) {
        options_.hooks.on_finish(f.tag, f.result);
      }
    }
    // Hooks may themselves complete waiters (a published record releasing
    // a dedup wait) and enqueue more work — loop until the outboxes stay
    // empty.
  }
}

void RamanService::update_health_gauges_locked() {
  obs::gauge_set(queue_gauge_name_.c_str(),
                 static_cast<double>(scheduler_.queued()));
  obs::gauge_set(ratio_gauge_name_.c_str(), cache_.hit_ratio());
}

double RamanService::node_cost(const JobState& job, std::size_t node) const {
  switch (job.dag.node(node).kind) {
    case TaskKind::Displacement:
    case TaskKind::FieldForce:
      return job.est.per_task_seconds;
    case TaskKind::Hessian:
      // (1 + 6N + O(N^2)) extra SCF solves; charge quadratically in the
      // coordinate count relative to one displacement.
      return job.est.per_task_seconds *
             static_cast<double>(job.dag.n_coords() * job.dag.n_coords()) /
             6.0;
    case TaskKind::Row:
    case TaskKind::Assemble:
      return job.est.per_task_seconds * 0.01;  // bookkeeping-sized
  }
  return job.est.per_task_seconds;
}

void RamanService::dispatch_ready(std::size_t worker, JobState& job,
                                  std::size_t node) {
  const TaskRef ref{job.id, node};
  if (worker != kNoWorker && pool_->started()) {
    // Continuation: depth-first onto the finishing worker's own deque.
    pool_->push_local(worker, ref);
  } else {
    scheduler_.push(job.spec.client, job.spec.priority, node_cost(job, node),
                    ref);
  }
}

void RamanService::complete_node(std::size_t worker, JobState& job,
                                 std::size_t node) {
  for (std::size_t succ : job.dag.complete(node)) {
    dispatch_ready(worker, job, succ);
  }
  if (job.dag.all_done()) {
    finish_job(job, JobStatus::Completed, {});
  }
}

void RamanService::finish_job(JobState& job, JobStatus status,
                              const std::string& error) {
  job.status = status;
  job.result.status = status;
  job.result.error = error;
  job.result.latency_s = now_seconds() - job.submit_time;
  if (!job.released) {
    job.released = true;
    scheduler_.release(job.est);
  }
  if (status == JobStatus::Completed) {
    ++tallies_.jobs_completed;
    obs::count("serve.jobs.completed");
  } else {
    ++tallies_.jobs_failed;
    obs::count("serve.jobs.failed");
  }
  obs::observe(("serve.latency." + job.spec.client).c_str(),
               job.result.latency_s);
  obs::observe(
      ("serve.latency.tier." + std::string(tier_name(job.spec.tier)))
          .c_str(),
      job.result.latency_s);
  obs::observe("serve.latency", job.result.latency_s);
  auto& jt = obs::JobTraceRegistry::instance();
  const std::uint64_t ev = jt.event(job.trace, "finish", options_.shard_id);
  jt.attr(job.trace.gid, ev, "status",
          std::string(job_status_name(status)));
  jt.attr(job.trace.gid, ev, "latency_s", job.result.latency_s);
  update_health_gauges_locked();
  // The finish hook (WAL "done" record) is deferred to the off-lock
  // drain; the record is best-effort by the WAL's contract, so waking
  // waiters first loses nothing durable.
  if (options_.hooks.on_finish) {
    pending_finish_.push_back({job.tag, job.result});
    pending_hooks_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

void RamanService::fail_job_locked(std::uint64_t job_id,
                                   const std::string& error) {
  // Failure cascades along dedup edges: waiters of this job's unfinished
  // owned keys fail with it (their entries are dropped so a resubmission
  // can retry cleanly).
  std::vector<std::pair<std::uint64_t, std::string>> worklist;
  worklist.emplace_back(job_id, error);
  while (!worklist.empty()) {
    auto [id, why] = std::move(worklist.back());
    worklist.pop_back();
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    JobState& job = *it->second;
    if (job.status != JobStatus::Running) continue;
    log::warn("serve: job '", job.spec.name, "' (tenant '", job.spec.client,
              "') failed: ", why);
    finish_job(job, JobStatus::Failed, why);
    if (!options_.use_cache) continue;
    for (std::size_t node = 0; node < job.keys.size(); ++node) {
      if (!job.keys[node].owner || job.dag.node(node).done) continue;
      for (const CacheWaiter& w : cache_.fail(job.keys[node].key)) {
        if (w.job == id) continue;
        worklist.emplace_back(
            w.job, "dedup owner job " + std::to_string(id) + " failed: " + why);
      }
    }
  }
}

bool RamanService::evaluate_with_retry(JobState& job, const TaskContext& ctx,
                                       raman::GeometryRecord* rec) {
  DisplacementEngine& engine = job.spec.engine == EngineKind::Real
                                   ? *real_engine_
                                   : *modeled_engine_;
  const int attempts = std::max(1, job.spec.attempts);
  for (int attempt = 1;; ++attempt) {
    try {
      if (fault::should_fire(kFaultTaskFail)) {
        throw TimeoutError("serve: injected displacement-task failure");
      }
      *rec = engine.evaluate(ctx);
      return true;
    } catch (const FaultInjected&) {
      throw;  // simulated hard process death must propagate
    } catch (const Error& e) {
      if (attempt >= attempts) {
        const lockcheck::CheckedLock lock(mutex_);
        fail_job_locked(job.id, e.what());
        return false;
      }
      ++tallies_.task_retries;
      obs::count("serve.tasks.retried");
      log::warn("serve: task of job '", job.spec.name, "' failed on attempt ",
                attempt, "/", attempts, " (", e.what(), ") — retrying");
    }
  }
}

void RamanService::execute(std::size_t worker, TaskRef ref) {
  JobState* job = nullptr;
  TaskNode node;
  {
    const lockcheck::CheckedLock lock(mutex_);
    auto it = jobs_.find(ref.job);
    if (it == jobs_.end()) return;
    if (it->second->status != JobStatus::Running) return;  // failed: skip
    job = it->second.get();
    node = job->dag.node(ref.node);
  }
  // Log lines of this task carry "s<shard>/w<worker>/g<gid>" — one grep
  // recovers everything a job touched across shards and workers.
  const std::uint64_t gid = job->tag != 0 ? job->tag : ref.job;
  const log::ScopedContext log_ctx(log::thread_context() + "/g" +
                                   std::to_string(gid));
  SWRAMAN_TRACE_SPAN(span, "serve.task");
  if (span.active()) {
    span.attr("job", static_cast<double>(ref.job));
    span.attr("node", static_cast<double>(ref.node));
  }
  switch (node.kind) {
    case TaskKind::Displacement:
    case TaskKind::FieldForce:
      run_evaluation(worker, *job, ref.node);
      break;
    case TaskKind::Hessian:
      run_hessian(worker, *job, ref.node);
      break;
    case TaskKind::Row:
      run_row(worker, *job, ref.node);
      break;
    case TaskKind::Assemble:
      run_assemble(worker, *job, ref.node);
      break;
  }
  // Durability/finish notifications the task deferred while holding the
  // service lock (dedup releases, terminal transitions) run now,
  // off-lock, before the worker picks its next task.
  drain_hooks();
}

void RamanService::run_evaluation(std::size_t worker, JobState& job,
                                  std::size_t node_id) {
  const TaskNode node = job.dag.node(node_id);
  const bool field_force = node.kind == TaskKind::FieldForce;
  TaskContext ctx;
  ctx.spec = &job.spec;
  ctx.coord = node.coord;
  ctx.sign = node.sign;
  ctx.canonical_key = job.keys[node_id].key;
  ctx.to_canonical = job.keys[node_id].to_canonical;
  ctx.cost_seconds = job.est.per_task_seconds;
  ctx.field_force = field_force;
  ctx.n_forces = field_force ? 3 * job.spec.n_atoms() : 0;

  // Records cross frames as pure bit moves, forces included, so remote /
  // dedup / local completions stay bitwise equal.
  const AxisTransform& to_c = job.keys[node_id].to_canonical;
  const auto to_canonical_rec = [&to_c](const raman::GeometryRecord& r) {
    raman::GeometryRecord c;
    c.alpha = apply_tensor(to_c, r.alpha);
    c.dipole = apply_vector(to_c, r.dipole);
    if (!r.forces.empty()) c.forces = apply_forces(to_c, r.forces);
    return c;
  };

  // The job timeline's evaluation span (left open when a FaultInjected
  // kill unwinds through here).
  obs::ScopedJobSpan dspan(job.trace,
                           field_force ? "field-force" : "displacement",
                           options_.shard_id);
  dspan.attr("coord", static_cast<double>(node.coord));
  dspan.attr("sign", static_cast<double>(node.sign));

  // Cross-shard cache first (off-lock, bounded latency): a peer shard may
  // already own this canonical key. The hit arrives in the canonical
  // frame and is rotated back, exactly like a local dedup wait release —
  // bit moves only, so remote and local completions are bitwise equal.
  const double t0 = now_seconds();
  raman::GeometryRecord rec;
  bool remote_hit = false;
  if (options_.hooks.remote_lookup) {
    raman::GeometryRecord canonical;
    if (options_.hooks.remote_lookup(job.keys[node_id].key, &canonical,
                                     dspan.context(), ctx.n_forces)) {
      const AxisTransform from =
          inverse(job.keys[node_id].to_canonical);
      rec.alpha = apply_tensor(from, canonical.alpha);
      rec.dipole = apply_vector(from, canonical.dipole);
      if (!canonical.forces.empty()) {
        rec.forces = apply_forces(from, canonical.forces);
      }
      remote_hit = true;
      obs::count("serve.cache.remote_hits");
      dspan.attr("remote_hit", 1.0);
    }
  }
  if (!remote_hit) {
    if (!evaluate_with_retry(job, ctx, &rec)) {
      dspan.attr("failed", 1.0);
      return;
    }
    obs::observe("serve.task.seconds", now_seconds() - t0);
    if (options_.hooks.publish) {
      options_.hooks.publish(job.keys[node_id].key, to_canonical_rec(rec));
    }
  }

  // Durable before visible: the checkpoint append happens before the DAG
  // learns of the completion, so a crash never loses an acknowledged
  // geometry (same ordering the raman pipeline uses). Off the service
  // lock: only checkpoint_mutex_ (kAllowsBlocking by design) is held
  // across the file append.
  if (job.checkpoint != nullptr) {
    lockcheck::blocking_call("checkpoint.append");
    const lockcheck::CheckedLock ckpt_lock(checkpoint_mutex_);
    job.checkpoint->record(node.coord, node.sign, rec);
  }
  if (options_.hooks.on_task_durable) {
    options_.hooks.on_task_durable(job.tag, node.coord, node.sign, rec);
  }
  dspan.end();

  const lockcheck::CheckedLock lock(mutex_);
  if (job.status != JobStatus::Running) {
    // The job failed while this task was in flight; still publish the
    // result so cross-job waiters of an owned key are not stranded.
    if (options_.use_cache && job.keys[node_id].owner) {
      std::vector<raman::GeometryRecord> waiter_records;
      const std::vector<CacheWaiter> waiters = cache_.complete(
          job.keys[node_id].key, to_canonical_rec(rec), &waiter_records);
      for (std::size_t i = 0; i < waiters.size(); ++i) {
        auto it = jobs_.find(waiters[i].job);
        if (it == jobs_.end() || it->second->status != JobStatus::Running) {
          continue;
        }
        JobState& wjob = *it->second;
        wjob.dag.records[waiters[i].node] = waiter_records[i];
        const TaskNode& wnode = wjob.dag.node(waiters[i].node);
        defer_durable_locked(wjob.tag, wnode.coord, wnode.sign,
                             waiter_records[i], nullptr);
        complete_node(worker, wjob, waiters[i].node);
      }
    }
    return;
  }

  if (remote_hit) {
    ++tallies_.remote_hits;
  } else {
    ++tallies_.tasks_executed;
    if (field_force) ++tallies_.field_tasks_executed;
    ++job.result.tasks_executed;
  }
  job.dag.records[node_id] = rec;

  if (options_.use_cache && job.keys[node_id].owner) {
    std::vector<raman::GeometryRecord> waiter_records;
    const std::vector<CacheWaiter> waiters = cache_.complete(
        job.keys[node_id].key, to_canonical_rec(rec), &waiter_records);
    for (std::size_t i = 0; i < waiters.size(); ++i) {
      auto it = jobs_.find(waiters[i].job);
      if (it == jobs_.end()) continue;
      JobState& wjob = *it->second;
      if (wjob.status != JobStatus::Running) continue;
      wjob.dag.records[waiters[i].node] = waiter_records[i];
      const TaskNode& wnode = wjob.dag.node(waiters[i].node);
      // The waiter job's checkpoint append and durability notification
      // are deferred to the off-lock hook drain: a task record is
      // best-effort (its loss only costs recomputation on replay), and
      // an fsync under the service lock would stall every worker.
      defer_durable_locked(wjob.tag, wnode.coord, wnode.sign,
                           waiter_records[i], wjob.checkpoint.get());
      // The waiter's timeline shows where its deduped result came from.
      auto& jt = obs::JobTraceRegistry::instance();
      const std::uint64_t rel =
          jt.event(wjob.trace, "dedup.release", options_.shard_id);
      jt.attr(wjob.trace.gid, rel, "owner_gid",
              static_cast<double>(job.tag != 0 ? job.tag : job.id));
      complete_node(worker, wjob, waiters[i].node);
    }
  }
  complete_node(worker, job, node_id);
}

void RamanService::run_hessian(std::size_t worker, JobState& job,
                               std::size_t node_id) {
  obs::ScopedJobSpan hspan(job.trace, "hessian", options_.shard_id);
  linalg::Matrix hess;
  try {
    if (fault::should_fire(kFaultTaskFail)) {
      throw TimeoutError("serve: injected Hessian-task failure");
    }
    SWRAMAN_TRACE_SCOPE("serve.hessian");
    // One rank: the pool's workers already fill the cores, and parallel
    // points inside each task raised serve_burst's peak RSS and wall time.
    hess = raman::energy_hessian(job.spec.atoms, job.spec.options.vibrations,
                                 /*n_ranks=*/1);
  } catch (const FaultInjected&) {
    throw;  // a kill is not a task failure: propagate it
  } catch (const Error& e) {
    hspan.attr("failed", 1.0);
    hspan.end();
    const lockcheck::CheckedLock lock(mutex_);
    fail_job_locked(job.id, e.what());
    return;
  }
  hspan.end();
  const lockcheck::CheckedLock lock(mutex_);
  if (job.status != JobStatus::Running) return;
  ++tallies_.tasks_executed;
  ++job.result.tasks_executed;
  job.dag.hessian = std::move(hess);
  complete_node(worker, job, node_id);
}

void RamanService::run_row(std::size_t worker, JobState& job,
                           std::size_t node_id) {
  const lockcheck::CheckedLock lock(mutex_);
  if (job.status != JobStatus::Running) return;
  const TaskNode node = job.dag.node(node_id);
  const std::size_t coord = node.coord;
  const raman::GeometryRecord& plus =
      job.dag.records[job.dag.displacement_id(coord, +1)];
  const raman::GeometryRecord& minus =
      job.dag.records[job.dag.displacement_id(coord, -1)];
  raman::difference_row(plus, minus, job.spec.options.alpha_displacement,
                        coord, &job.result.dalpha, &job.result.dmu);
  complete_node(worker, job, node_id);
}

void RamanService::run_assemble(std::size_t worker, JobState& job,
                                std::size_t node_id) {
  obs::ScopedJobSpan aspan(job.trace, "assemble", options_.shard_id);
  const auto fail = [&](const Error& e) {
    aspan.attr("failed", 1.0);
    aspan.end();
    const lockcheck::CheckedLock lock(mutex_);
    fail_job_locked(job.id, e.what());
  };
  // Spectrum assembly happens outside the lock on copies: the inputs are
  // frozen (every dependency is done) and potentially expensive to
  // contract for large molecules.
  raman::RamanSpectrum spectrum;
  raman::BroadenedSpectrum broadened;
  if (job.dag.bec()) {
    // Bec tier: the derivative rows come out of the 13-point field
    // stencil here (the dfpt tier computed them incrementally in its row
    // tasks). Same fixed-index-order contract: records[] is read in
    // stencil order regardless of completion order.
    std::vector<raman::GeometryRecord> records;
    {
      const lockcheck::CheckedLock lock(mutex_);
      if (job.status != JobStatus::Running) return;
      records = job.dag.records;
    }
    linalg::Matrix dalpha;
    linalg::Matrix dmu;
    try {
      SWRAMAN_TRACE_SCOPE("serve.assemble.bec");
      raman::bec_derivatives(records, job.spec.bec_field,
                             job.dag.n_coords(), /*enforce_sum_rule=*/true,
                             &dalpha, &dmu);
    } catch (const Error& e) {
      fail(e);
      return;
    }
    const lockcheck::CheckedLock lock(mutex_);
    if (job.status != JobStatus::Running) return;
    job.result.dalpha = std::move(dalpha);
    job.result.dmu = std::move(dmu);
  }
  if (job.dag.with_hessian()) {
    linalg::Matrix hess;
    linalg::Matrix dalpha;
    linalg::Matrix dmu;
    {
      const lockcheck::CheckedLock lock(mutex_);
      if (job.status != JobStatus::Running) return;
      hess = job.dag.hessian;
      dalpha = job.result.dalpha;
      dmu = job.result.dmu;
    }
    try {
      SWRAMAN_TRACE_SCOPE("serve.assemble");
      const raman::NormalModes modes = raman::normal_modes(
          job.spec.atoms, hess, job.spec.options.vibrations.project_rigid_body);
      spectrum = raman::assemble_spectrum(job.spec.atoms, modes, dalpha, dmu,
                                          job.spec.options.mode_floor_cm);
      // 5 cm^-1 Lorentzian on the paper's Fig. 19 plotting grid.
      broadened = raman::broaden(spectrum.modes, 5.0, 100.0, 4500.0, 2.0);
    } catch (const Error& e) {
      fail(e);
      return;
    }
  }
  aspan.end();
  const lockcheck::CheckedLock lock(mutex_);
  if (job.status != JobStatus::Running) return;
  job.result.spectrum = std::move(spectrum);
  job.result.broadened = std::move(broadened);
  complete_node(worker, job, node_id);
}

JobResult RamanService::wait(std::uint64_t job_id) {
  if (options_.start_paused) pool_->start();
  lockcheck::CheckedLock lock(mutex_);
  auto it = jobs_.find(job_id);
  SWRAMAN_REQUIRE(it != jobs_.end(), "serve: wait on unknown job id");
  JobState& job = *it->second;
  cv_.wait(lock, [&job] {
    return job.status == JobStatus::Completed ||
           job.status == JobStatus::Failed;
  });
  return job.result;
}

void RamanService::drain() {
  if (options_.start_paused) pool_->start();
  lockcheck::CheckedLock lock(mutex_);
  cv_.wait(lock, [this] {
    for (const auto& [id, job] : jobs_) {
      if (job->status == JobStatus::Running ||
          job->status == JobStatus::Queued) {
        return false;
      }
    }
    return true;
  });
}

ServiceStats RamanService::stats() const {
  const lockcheck::CheckedLock lock(mutex_);
  ServiceStats s = tallies_;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_hit_ratio = cache_.hit_ratio();
  s.queue_depth = scheduler_.queued();
  s.modeled_bytes = scheduler_.modeled_bytes();
  s.workers_alive = pool_->alive();
  return s;
}

}  // namespace swraman::serve
