#include "serve/sharded.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "robustness/fault.hpp"

namespace swraman::serve {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedRamanService::ShardedRamanService(ShardedOptions options)
    : options_(std::move(options)),
      router_([this] {
        RouterOptions r = options_.router;
        r.n_shards = options_.n_shards;
        return r;
      }()),
      slo_(options_.slo) {
  SWRAMAN_REQUIRE(options_.n_shards >= 1,
                  "sharded: need at least one shard");
  SWRAMAN_REQUIRE(!options_.wal_dir.empty(), "sharded: empty WAL directory");
  if (options_.remote_cache && options_.n_shards > 1) {
    RemoteCacheFabric::Options fo;
    fo.n_shards = options_.n_shards;
    fo.lookup_timeout_s = options_.remote_lookup_timeout_s;
    fabric_ = std::make_unique<RemoteCacheFabric>(fo);
  }
  const lockcheck::CheckedLock lock(shards_mutex_);
  shards_.resize(options_.n_shards);
  for (std::size_t s = 0; s < options_.n_shards; ++s) make_shard(s);
}

ShardedRamanService::~ShardedRamanService() {
  const lockcheck::CheckedLock lock(shards_mutex_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (fabric_ != nullptr) fabric_->stop(s);
    shards_[s].service.reset();
    shards_[s].log.reset();
  }
}

std::string ShardedRamanService::wal_path(std::size_t shard) const {
  return options_.wal_dir + "/shard-" + std::to_string(shard) + ".wal";
}

void ShardedRamanService::make_shard(std::size_t shard) {
  Shard& sh = shards_[shard];
  sh.log = std::make_unique<JobLog>(wal_path(shard), shard);
  ServiceOptions so = options_.service;
  // Results flow tier-side through on_finish; the pool must run so warm
  // replays and failover submissions drain without an explicit start().
  so.start_paused = false;
  so.shard_id = static_cast<int>(shard);
  // Admission backs clients off harder while the error budget burns.
  so.backpressure = [this] { return slo_.backpressure_hint(); };
  JobLog* logp = sh.log.get();  // outlives the service (teardown order)
  so.hooks.on_accept = [logp](std::uint64_t gid, const JobSpec& spec) {
    logp->append_job(gid, spec);
  };
  so.hooks.on_task_durable = [logp](std::uint64_t gid, std::size_t coord,
                                    int sign,
                                    const raman::GeometryRecord& rec) {
    logp->append_task(gid, coord, sign, rec);
  };
  so.hooks.on_finish = [this, logp](std::uint64_t gid,
                                    const JobResult& result) {
    // Terminal status durable before the waiter can observe it.
    logp->append_done(gid, result.status);
    // The job's cross-shard timeline closes with its root span (id 1 by
    // convention), however many incarnations it took to get here.
    obs::JobTraceRegistry::instance().end(gid, 1);
    {
      const lockcheck::CheckedLock lock(results_mutex_);
      results_[gid] = result;
      results_cv_.notify_all();
    }
    // Finishes move tenant latency histograms — refresh the health view.
    slo_.maybe_tick();
  };
  if (fabric_ != nullptr) {
    so.hooks.publish = [this, shard](std::uint64_t key,
                                     const raman::GeometryRecord& rec) {
      fabric_->publish(shard, key, rec);
    };
    so.hooks.remote_lookup = [this, shard](std::uint64_t key,
                                           raman::GeometryRecord* out,
                                           const obs::TraceContext& ctx,
                                           std::size_t n_forces) {
      // Engages only once some shard has died: before that every key is
      // home and a remote probe could only miss. Peer pick is the highest
      // rendezvous score among running fabric nodes — after a failover
      // that is exactly the shard hosting (or having hosted) this key
      // while its home was down. Lock-free: router state is untouched.
      if (!ever_killed_.load(std::memory_order_acquire)) return false;
      std::size_t best = ShardRouter::kNoShard;
      std::uint64_t best_score = 0;
      for (std::size_t t = 0; t < fabric_->n_shards(); ++t) {
        if (t == shard || !fabric_->running(t)) continue;
        const std::uint64_t sc =
            ShardRouter::score(key, t, options_.router.seed);
        if (best == ShardRouter::kNoShard || sc > best_score) {
          best = t;
          best_score = sc;
        }
      }
      if (best == ShardRouter::kNoShard) return false;
      return fabric_->lookup(shard, best, key, out, ctx, n_forces);
    };
  }
  sh.service = std::make_unique<RamanService>(std::move(so));
  if (fabric_ != nullptr) fabric_->start(shard);
}

void ShardedRamanService::kill_locked(std::size_t shard) {
  if (!router_.alive(shard)) return;
  Shard& sh = shards_[shard];
  sh.kill_time = now_seconds();
  ever_killed_.store(true, std::memory_order_release);
  if (fabric_ != nullptr) fabric_->stop(shard);
  // Simulated process death. The service teardown joins the shard's
  // workers; whatever they append in their last instants is a valid WAL
  // prefix, which replay treats like any other crash point. The log file
  // itself stays on disk — it IS the crashed shard's recoverable state.
  sh.service.reset();
  sh.log.reset();
  ++kills_;
  obs::count("serve.shard.kills");
  obs::instant("serve.shard.killed", "shard", static_cast<double>(shard));
  // Postmortem forensics: what every thread was doing in its last moments
  // before the kill (the instant above put the kill itself in the rings).
  obs::flight::dump("serve.shard.kill");
  router_.mark_dead(shard);
}

void ShardedRamanService::kill_shard(std::size_t shard) {
  const lockcheck::CheckedLock lock(shards_mutex_);
  SWRAMAN_REQUIRE(shard < shards_.size(), "sharded: shard out of range");
  kill_locked(shard);
}

bool ShardedRamanService::try_submit_locked(std::size_t shard,
                                            const JobSpec& spec,
                                            const SubmitOptions& sub,
                                            SubmitResult* out) {
  try {
    *out = shards_[shard].service->submit(spec, sub);
    return true;
  } catch (const CheckpointError& e) {
    // The WAL wedged underneath the log-before-ack append: the shard can
    // no longer make durability promises. Treat it as crashed and let the
    // caller fail the submission over.
    log::warn("sharded: shard ", shard, " lost its WAL mid-submit (",
              e.what(), ")");
    kill_locked(shard);
    return false;
  }
}

SubmitResult ShardedRamanService::submit(const JobSpec& spec) {
  SWRAMAN_TRACE_SPAN(span, "serve.router.submit");
  slo_.maybe_tick();
  const lockcheck::CheckedLock lock(shards_mutex_);
  ++submitted_;
  // Optimistic job timeline for the gid this submission gets on
  // acceptance; a terminal rejection drops it again so the reused gid
  // starts clean.
  auto& jt = obs::JobTraceRegistry::instance();
  const obs::TraceContext root_ctx = jt.root(next_gid_, "job");
  obs::ScopedJobSpan route_span(root_ctx, "route");
  const obs::TraceContext trace = route_span.context();
  const std::uint64_t key = ShardRouter::job_key(spec);
  // Injected crash: the routed-to shard dies before the submission
  // reaches it — kill plus failover exercised in one call.
  if (fault::should_fire(kFaultShardKill)) {
    const std::size_t victim = router_.route(key);
    if (victim != ShardRouter::kNoShard) {
      log::warn("fault ", kFaultShardKill, ": killing shard ", victim);
      const std::uint64_t ev = jt.event(trace, "shard.kill");
      jt.attr(root_ctx.gid, ev, "victim", static_cast<double>(victim));
      kill_locked(victim);
    }
  }
  const std::size_t home = router_.home(key);
  bool failed_over = false;
  for (;;) {
    const std::size_t s = router_.route(key);
    if (s == ShardRouter::kNoShard) {
      ++rejected_;
      obs::count("serve.router.rejected_no_shard");
      SubmitResult res;
      res.accepted = false;
      res.reason = "no-live-shard";
      // Shard-health-aware hint: the dead home shard's next recovery
      // probe, not 0.0 — repeated rejections back clients off.
      res.retry_after_s = router_.retry_after_hint(home);
      if (span.active()) span.attr("rejected", 1.0);
      jt.drop_job(root_ctx.gid);
      return res;
    }
    failed_over = failed_over || s != home;
    Shard& sh = shards_[s];
    if (sh.log != nullptr && sh.log->wedged()) {
      log::warn("sharded: shard ", s, " WAL wedged; treating as dead");
      kill_locked(s);
      continue;
    }
    SubmitOptions sub;
    sub.tag = next_gid_;
    sub.trace = trace;
    SubmitResult res;
    if (!try_submit_locked(s, spec, sub, &res)) continue;
    if (res.accepted) {
      const std::uint64_t gid = next_gid_++;
      ++accepted_;
      if (failed_over) {
        ++failovers_;
        obs::count("serve.router.failovers");
      }
      {
        const lockcheck::CheckedLock rlock(results_mutex_);
        accepted_gids_.insert(gid);
      }
      res.job_id = gid;
      if (span.active()) span.attr("shard", static_cast<double>(s));
      route_span.attr("shard", static_cast<double>(s));
      if (failed_over) route_span.attr("failover", 1.0);
      route_span.end();
      // Best-effort durable pointer from WAL to timeline: replay re-
      // attaches the recovered incarnation's spans to this root.
      if (root_ctx.gid != 0) sh.log->append_trace(gid, 1);
    } else {
      // Admission backpressure from a healthy shard: not a failover case
      // (the key's owner said "later"), the hint already carries its
      // backlog estimate.
      ++rejected_;
      jt.drop_job(root_ctx.gid);
    }
    return res;
  }
}

JobResult ShardedRamanService::wait(std::uint64_t gid) {
  lockcheck::CheckedLock lock(results_mutex_);
  SWRAMAN_REQUIRE(accepted_gids_.count(gid) != 0,
                  "sharded: wait on unknown job id");
  results_cv_.wait(lock, [&] { return results_.count(gid) != 0; });
  return results_.at(gid);
}

void ShardedRamanService::drain() {
  lockcheck::CheckedLock lock(results_mutex_);
  results_cv_.wait(lock, [&] {
    for (const std::uint64_t gid : accepted_gids_) {
      if (results_.count(gid) == 0) return false;
    }
    return true;
  });
}

void ShardedRamanService::recover_shard(std::size_t shard) {
  const lockcheck::CheckedLock lock(shards_mutex_);
  SWRAMAN_REQUIRE(shard < shards_.size(), "sharded: shard out of range");
  if (router_.alive(shard)) return;
  SWRAMAN_TRACE_SPAN(span, "serve.router.recover");
  // Recovery reads ONLY the on-disk log — the crashed incarnation's
  // memory is gone. Everything acknowledged is in the durable prefix.
  const WalReplay rep = JobLog::replay(wal_path(shard));
  auto& jt = obs::JobTraceRegistry::instance();
  std::size_t resubmitted = 0;
  // make_shard() truncates the on-disk log, so from here until the
  // replay completes the undelivered jobs exist only in `rep`. If the
  // fresh incarnation's WAL wedges mid-replay (injected torn write on
  // a resubmission's log-before-ack append), the incarnation is dead on
  // arrival: tear it down and replay `rep` onto another one instead of
  // unwinding — unwinding would abandon the in-memory copy. Jobs that
  // finished under a wedged incarnation are in results_ and are skipped
  // by the retry, so nothing runs twice to completion.
  for (int attempt = 0;; ++attempt) {
    SWRAMAN_REQUIRE(attempt < 100,
                    "sharded: replay WAL keeps wedging; giving up");
    make_shard(shard);
    bool wedged = false;
    resubmitted = 0;
    for (const LoggedJob& j : rep.jobs) {
      {
        const lockcheck::CheckedLock rlock(results_mutex_);
        if (results_.count(j.gid) != 0) continue;  // delivered before death
      }
      // Stitch the new incarnation onto the job's pre-crash timeline: the
      // WAL's trace record names the root to re-attach to, and the replay
      // span bumps the incarnation so both sides of the kill stay visible.
      const obs::TraceContext rctx =
          jt.restore_root(j.gid, j.trace_root, "job");
      obs::ScopedJobSpan replay_span(rctx, "replay", static_cast<int>(shard));
      replay_span.attr("warm_tasks", static_cast<double>(j.tasks.size()));
      SubmitOptions sub;
      sub.tag = j.gid;
      sub.warm = &j.tasks;
      sub.force_admit = true;  // acknowledged work is never re-rejected
      sub.trace = replay_span.context();
      try {
        const SubmitResult res = shards_[shard].service->submit(j.spec, sub);
        SWRAMAN_REQUIRE(res.accepted, "sharded: replay resubmission rejected");
      } catch (const CheckpointError& e) {
        log::warn("sharded: shard ", shard, " WAL wedged during replay (",
                  e.what(), "); retrying with a fresh incarnation");
        replay_span.end();
        obs::count("serve.shard.replay_wedges");
        // Same teardown order as a kill: joining the workers first lets
        // in-flight resubmissions finish into results_.
        if (fabric_ != nullptr) fabric_->stop(shard);
        shards_[shard].service.reset();
        shards_[shard].log.reset();
        wedged = true;
        break;
      }
      replay_span.end();
      // Replay-of-replay safety: the fresh incarnation's log carries the
      // trace pointer too.
      if (rctx.gid != 0) shards_[shard].log->append_trace(j.gid, 1);
      ++replayed_jobs_;
      replayed_tasks_ += j.tasks.size();
      ++resubmitted;
    }
    if (!wedged) break;
  }
  ++recoveries_;
  router_.mark_alive(shard);
  const double latency = now_seconds() - shards_[shard].kill_time;
  failover_latencies_s_.push_back(latency);
  obs::observe("serve.router.failover_s", latency);
  obs::count("serve.shard.recoveries");
  slo_.maybe_tick();
  if (span.active()) {
    span.attr("shard", static_cast<double>(shard));
    span.attr("replayed_jobs", static_cast<double>(resubmitted));
    span.attr("torn_tail", rep.torn_tail ? 1.0 : 0.0);
  }
  log::warn("sharded: shard ", shard, " recovered (", resubmitted,
            " jobs replayed, ", rep.task_records, " durable tasks, ",
            rep.torn_tail ? "torn tail)" : "clean tail)");
}

void ShardedRamanService::recover_all() {
  for (std::size_t s = 0; s < n_shards(); ++s) recover_shard(s);
}

std::size_t ShardedRamanService::n_shards() const {
  const lockcheck::CheckedLock lock(shards_mutex_);
  return shards_.size();
}

std::size_t ShardedRamanService::n_live() const {
  const lockcheck::CheckedLock lock(shards_mutex_);
  return router_.n_live();
}

bool ShardedRamanService::alive(std::size_t shard) const {
  const lockcheck::CheckedLock lock(shards_mutex_);
  return router_.alive(shard);
}

ShardedStats ShardedRamanService::stats() const {
  const lockcheck::CheckedLock lock(shards_mutex_);
  ShardedStats s;
  s.jobs_submitted = submitted_;
  s.jobs_accepted = accepted_;
  s.jobs_rejected = rejected_;
  s.kills = kills_;
  s.recoveries = recoveries_;
  s.failovers = failovers_;
  s.replayed_jobs = replayed_jobs_;
  s.replayed_tasks = replayed_tasks_;
  s.failover_latencies_s = failover_latencies_s_;
  for (const Shard& sh : shards_) {
    if (sh.service != nullptr) {
      s.remote_hits += sh.service->stats().remote_hits;
    }
    if (sh.log != nullptr) s.wal_records += sh.log->records();
  }
  {
    const lockcheck::CheckedLock rlock(results_mutex_);
    for (const auto& [gid, r] : results_) {
      if (r.status == JobStatus::Completed) {
        ++s.jobs_completed;
      } else {
        ++s.jobs_failed;
      }
    }
  }
  return s;
}

RemoteCacheFabric::Stats ShardedRamanService::cache_stats() const {
  return fabric_ != nullptr ? fabric_->stats() : RemoteCacheFabric::Stats{};
}

}  // namespace swraman::serve
