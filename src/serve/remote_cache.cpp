#include "serve/remote_cache.hpp"

#include <bit>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "parallel/commcheck.hpp"
#include "robustness/fault.hpp"

namespace swraman::serve {

namespace {

// Wire format of the request/response round trip. Requests ride tag 0 of
// the fabric's private comm group; each request names the (unique)
// response tag its answer must come back on, so concurrent lookups from
// one shard never collide in the mailbox.
constexpr int kRequestTag = 0;

// request  = [key bits, response tag, trace gid bits, trace parent bits,
//             n_forces]  (gid 0: untraced request)
// response = [found, alpha[0..8], dipole[0..2], forces[0..n_forces-1]]
//            (found = 0: miss)
// n_forces is 0 for displacement records; bec field-force records carry
// their 3N force vector behind the fixed 13-double head. The requester
// knows n_forces up front and binds its per-call response tag to the
// exact frame length, overriding the 13-double default binding.
constexpr std::size_t kRequestLen = 5;
constexpr std::size_t kResponseLen = 13;

double key_bits(std::uint64_t key) { return std::bit_cast<double>(key); }
std::uint64_t bits_key(double d) { return std::bit_cast<std::uint64_t>(d); }

}  // namespace

RemoteCacheFabric::RemoteCacheFabric(Options options)
    : options_(std::move(options)) {
  SWRAMAN_REQUIRE(options_.n_shards >= 1,
                  "RemoteCacheFabric: need at least one shard");
  comms_ = parallel::make_comm_group(options_.n_shards, options_.comm);
  // Bind the fabric's wire types in the p2p verifier: requests ride
  // tag 0, every other (caller-drawn) tag carries a response frame. A
  // send/recv whose length disagrees is p2p.tag_mismatch.
  const std::uint64_t check_ctx = comms_[0].context_id();
  parallel::commcheck::bind_tag(check_ctx, kRequestTag, kRequestLen,
                                "cache.request");
  parallel::commcheck::bind_default(check_ctx, kResponseLen,
                                    "cache.response");
  nodes_.reserve(options_.n_shards);
  for (std::size_t s = 0; s < options_.n_shards; ++s) {
    nodes_.push_back(std::make_unique<Node>());
  }
}

RemoteCacheFabric::~RemoteCacheFabric() {
  for (std::size_t s = 0; s < nodes_.size(); ++s) stop(s);
}

void RemoteCacheFabric::start(std::size_t shard) {
  SWRAMAN_REQUIRE(shard < nodes_.size(),
                  "RemoteCacheFabric: shard out of range");
  Node& node = *nodes_[shard];
  if (node.run.load(std::memory_order_acquire)) return;
  node.run.store(true, std::memory_order_release);
  node.server = std::thread([this, shard] { serve_loop(shard); });
}

void RemoteCacheFabric::stop(std::size_t shard) {
  SWRAMAN_REQUIRE(shard < nodes_.size(),
                  "RemoteCacheFabric: shard out of range");
  Node& node = *nodes_[shard];
  node.run.store(false, std::memory_order_release);
  if (node.server.joinable()) node.server.join();
  // The incarnation's published results die with it: a restarted shard
  // republishes what it recomputes, and stale requests still in the
  // mailbox are drained unanswered (the requester's timeout handles it).
  const lockcheck::CheckedLock lock(node.mutex);
  node.table.clear();
}

bool RemoteCacheFabric::running(std::size_t shard) const {
  SWRAMAN_REQUIRE(shard < nodes_.size(),
                  "RemoteCacheFabric: shard out of range");
  return nodes_[shard]->run.load(std::memory_order_acquire);
}

void RemoteCacheFabric::publish(std::size_t shard, std::uint64_t key,
                                const raman::GeometryRecord& rec) {
  SWRAMAN_REQUIRE(shard < nodes_.size(),
                  "RemoteCacheFabric: shard out of range");
  Node& node = *nodes_[shard];
  const lockcheck::CheckedLock lock(node.mutex);
  node.table[key] = rec;
  published_.fetch_add(1, std::memory_order_relaxed);
}

bool RemoteCacheFabric::lookup(std::size_t shard, std::size_t peer,
                               std::uint64_t key,
                               raman::GeometryRecord* out,
                               const obs::TraceContext& ctx,
                               std::size_t n_forces) {
  SWRAMAN_REQUIRE(shard < nodes_.size() && peer < nodes_.size(),
                  "RemoteCacheFabric: shard out of range");
  SWRAMAN_REQUIRE(peer != shard, "RemoteCacheFabric: lookup on self");
  lookups_.fetch_add(1, std::memory_order_relaxed);
  obs::ScopedJobSpan lspan(ctx, "remote.lookup", static_cast<int>(shard));
  lspan.attr("peer", static_cast<double>(peer));
  if (fault::should_fire(kFaultRemoteTimeout)) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.cache.remote_timeouts");
    log::warn("fault ", kFaultRemoteTimeout, ": shard ", shard, " -> ",
              peer, " lookup dropped, falling back to local compute");
    lspan.attr("timeout", 1.0);
    return false;
  }
  const int resp_tag = next_resp_tag_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t resp_len = kResponseLen + n_forces;
  if (n_forces != 0) {
    // Field-force responses outgrow the default 13-double binding; the
    // per-call tag is fresh (monotonic counter), so this explicit bind
    // never rebinds a live tag.
    parallel::commcheck::bind_tag(comms_[shard].context_id(), resp_tag,
                                  resp_len, "cache.response.forces");
  }
  // The trace context travels in the request frame: the serving shard's
  // side of this round trip lands on the same per-job timeline.
  comms_[shard].send(peer,
                     {key_bits(key), static_cast<double>(resp_tag),
                      key_bits(ctx.gid),
                      key_bits(lspan.context().parent_span),
                      static_cast<double>(n_forces)},
                     kRequestTag);
  std::vector<double> resp;
  if (!comms_[shard].try_recv(peer, resp_tag, options_.lookup_timeout_s,
                              &resp)) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.cache.remote_timeouts");
    // Walking away from the round trip: the un-consumed request (the
    // peer may be dead) and the late response (the peer may still
    // answer) are both declared abandoned so the p2p verifier does not
    // flag them as orphans at context destruction.
    const std::uint64_t check_ctx = comms_[shard].context_id();
    parallel::commcheck::abandon(check_ctx, shard, peer, kRequestTag);
    parallel::commcheck::abandon(check_ctx, peer, shard, resp_tag);
    lspan.attr("timeout", 1.0);
    return false;
  }
  if (resp.size() != resp_len || resp[0] == 0.0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    lspan.attr("hit", 0.0);
    return false;
  }
  for (std::size_t i = 0; i < 9; ++i) out->alpha[i] = resp[1 + i];
  for (std::size_t i = 0; i < 3; ++i) out->dipole[i] = resp[10 + i];
  out->forces.assign(resp.begin() + static_cast<std::ptrdiff_t>(kResponseLen),
                     resp.end());
  hits_.fetch_add(1, std::memory_order_relaxed);
  lspan.attr("hit", 1.0);
  return true;
}

void RemoteCacheFabric::serve_loop(std::size_t shard) {
  Node& node = *nodes_[shard];
  const std::size_t n = nodes_.size();
  std::vector<double> req;
  while (node.run.load(std::memory_order_acquire)) {
    for (std::size_t src = 0; src < n; ++src) {
      if (src == shard) continue;
      if (!node.run.load(std::memory_order_acquire)) return;
      if (!comms_[shard].try_recv(src, kRequestTag, options_.poll_s, &req)) {
        continue;
      }
      if (req.size() != kRequestLen) continue;  // malformed: drop
      const std::uint64_t key = bits_key(req[0]);
      const int resp_tag = static_cast<int>(req[1]);
      const obs::TraceContext req_ctx{bits_key(req[2]), bits_key(req[3])};
      const std::size_t n_forces = static_cast<std::size_t>(req[4]);
      // Miss and hit share one wire type (found flag up front): the
      // response tag is bound to a single frame length of
      // 13 + n_forces doubles, so a short miss frame would be a tag
      // mismatch. A stored record whose force vector disagrees with the
      // requested length answers as a miss — the content address should
      // make that impossible, but a mismatch must degrade, not corrupt.
      std::vector<double> resp(kResponseLen + n_forces, 0.0);
      {
        const lockcheck::CheckedLock lock(node.mutex);
        const auto it = node.table.find(key);
        if (it != node.table.end() &&
            it->second.forces.size() == n_forces) {
          resp[0] = 1.0;
          for (std::size_t i = 0; i < 9; ++i) {
            resp[1 + i] = it->second.alpha[i];
          }
          for (std::size_t i = 0; i < 3; ++i) {
            resp[10 + i] = it->second.dipole[i];
          }
          for (std::size_t i = 0; i < n_forces; ++i) {
            resp[kResponseLen + i] = it->second.forces[i];
          }
        }
      }
      // The serving shard's footprint on the requesting job's timeline —
      // the cross-shard half of the jobtrace stitch.
      auto& jt = obs::JobTraceRegistry::instance();
      const std::uint64_t ev =
          jt.event(req_ctx, "remote.serve", static_cast<int>(shard));
      jt.attr(req_ctx.gid, ev, "hit", resp[0]);
      try {
        comms_[shard].send(src, resp, resp_tag);
        served_.fetch_add(1, std::memory_order_relaxed);
      } catch (const Error&) {
        // Injected send drops exhausting their retry budget must not take
        // the server thread down; the requester's timeout covers it.
      }
    }
  }
}

RemoteCacheFabric::Stats RemoteCacheFabric::stats() const {
  Stats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace swraman::serve
