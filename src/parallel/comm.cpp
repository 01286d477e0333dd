#include "parallel/comm.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <exception>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/lockcheck.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "parallel/allreduce_select.hpp"
#include "parallel/commcheck.hpp"
#include "robustness/fault.hpp"
#include "sunway/check/check.hpp"
#include "sunway/rma_reduce.hpp"

namespace swraman::parallel {

namespace {

// Tag layout of one collective operation: every collective draws a tag
// base on the calling thread and adds a small per-message offset, so
// concurrently running collectives (blocking + any number of in-flight
// iallreduce operations) never share a mailbox key. Bases stride by 2^15,
// offsets stay below it, and every derived tag is negative — user tags
// (>= 0 by convention) are untouched.
constexpr int kTagStride = 1 << 15;
constexpr int kOffBroadcast = 0;
constexpr int kOffLinearGather = 1;
constexpr int kOffRdFold = 2;
constexpr int kOffRdUnfold = 3;
constexpr int kOffGatherFallback = 4;
constexpr int kOffHierGather = 5;
constexpr int kOffHierBcast = 6;
constexpr int kOffRdMask = 200;    // + log2(mask)
constexpr int kOffRsagHalve = 300; // + log2(mask)
constexpr int kOffRsagDouble = 400;
constexpr int kOffRing = 1000;     // + step (reduce-scatter), + p-1 (gather)

int bit_index(std::size_t mask) {
  return std::countr_zero(mask);
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

// Shared state of one communicator: mailboxes keyed by (src, dst, tag),
// a generation-counting barrier, per-rank collective sequence counters,
// and scratch used by split().
class CommContext {
 public:
  explicit CommContext(std::size_t n, CommConfig config = {})
      : n_(n), config_(config), split_colors_(n, 0), op_seq_(n, 0),
        check_id_(commcheck::register_context(n)) {}

  // Orphan scan: every message still enqueued here was sent and never
  // received. The commcheck tolerance list (abandon()) explains the
  // ones a timed-out requester deliberately walked away from; the rest
  // are protocol bugs.
  ~CommContext() {
    if (check_id_ == 0) return;
    std::vector<commcheck::Leftover> leftovers;
    for (const auto& [k, q] : mail_) {
      if (q.empty()) continue;
      leftovers.push_back(
          {static_cast<std::size_t>((k >> 48) & 0xFFFF),
           static_cast<std::size_t>((k >> 32) & 0xFFFF),
           static_cast<int>(static_cast<std::uint32_t>(k & 0xFFFFFFFFu)),
           q.size()});
    }
    commcheck::on_context_destroyed(check_id_, leftovers);
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] const CommConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t check_id() const { return check_id_; }

  void post(std::size_t src, std::size_t dst, int tag,
            std::vector<double> data) {
    const lockcheck::CheckedLock lock(mutex_);
    mail_[key(src, dst, tag)].push(std::move(data));
    cv_.notify_all();
  }

  // Waits up to timeout_s for a message; false on expiry (out untouched).
  // `blocking` marks untimed-intent receives (Communicator::recv): those
  // register a wait-for edge in the commcheck recv-cycle detector for
  // the duration of the wait; bounded polls (try_recv) do not.
  bool take(std::size_t src, std::size_t dst, int tag, double timeout_s,
            std::vector<double>& out, bool blocking = false,
            const std::source_location& loc =
                std::source_location::current()) {
    lockcheck::CheckedLock lock(mutex_);
    const std::uint64_t k = key(src, dst, tag);
    const auto ready = [&] {
      const auto it = mail_.find(k);
      return it != mail_.end() && !it->second.empty();
    };
    const bool track =
        blocking && check_id_ != 0 && lockcheck::enabled() && !ready();
    if (track) {
      // The probe reads mail_ under mutex_, which this thread holds for
      // the whole recv_wait_begin call.
      commcheck::recv_wait_begin(check_id_, dst, src, tag,
                                 {&CommContext::mailbox_empty, this}, loc);
    }
    const bool got =
        cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), ready);
    if (track) commcheck::recv_wait_end(check_id_, dst);
    if (!got) return false;
    auto& q = mail_[k];
    out = std::move(q.front());
    q.pop();
    return true;
  }

  void barrier() {
    lockcheck::CheckedLock lock(mutex_);
    const std::size_t gen = barrier_gen_;
    if (++barrier_count_ == n_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return barrier_gen_ != gen; });
    }
  }

  // Per-rank collective-operation counter. Called only from the rank's own
  // (calling) thread — never from iallreduce communication threads — so
  // every rank assigns the same sequence number to the same collective as
  // long as collectives are issued in identical program order.
  int next_tag_base(std::size_t rank) {
    const std::uint64_t seq = op_seq_[rank]++;
    return -static_cast<int>(1 + seq % 60000) * kTagStride;
  }

  // Collective split: every rank posts its color; the call returns the
  // shared child context plus this rank's position within its color group.
  std::pair<std::shared_ptr<CommContext>, std::size_t> split(
      std::size_t rank, int color) {
    lockcheck::CheckedLock lock(mutex_);
    split_colors_[rank] = color;
    const std::size_t gen = split_gen_;
    if (++split_count_ == n_) {
      split_children_.clear();
      for (std::size_t r = 0; r < n_; ++r) {
        split_children_[split_colors_[r]].members.push_back(r);
      }
      for (auto& [c, group] : split_children_) {
        group.ctx =
            std::make_shared<CommContext>(group.members.size(), config_);
      }
      split_count_ = 0;
      ++split_gen_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return split_gen_ != gen; });
    }
    const auto& group = split_children_.at(color);
    const auto it =
        std::find(group.members.begin(), group.members.end(), rank);
    return {group.ctx,
            static_cast<std::size_t>(it - group.members.begin())};
  }

 private:
  // Collision-free packing for < 65536 ranks and any 32-bit tag. (The
  // previous XOR packing aliased tag bits 16..31 into the dst field, which
  // the per-operation tag bases introduced for concurrent collectives
  // would trip over.)
  static std::uint64_t key(std::size_t src, std::size_t dst, int tag) {
    return ((static_cast<std::uint64_t>(src) & 0xFFFF) << 48) |
           ((static_cast<std::uint64_t>(dst) & 0xFFFF) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  }

  struct SplitGroup {
    std::shared_ptr<CommContext> ctx;
    std::vector<std::size_t> members;
  };

  // True when the (src -> dst, tag) mailbox is absent or empty. Called
  // by the commcheck cycle detector from recv_wait_begin, on the thread
  // that already holds mutex_.
  static bool mailbox_empty(void* self, std::size_t src, std::size_t dst,
                            int tag) {
    auto* ctx = static_cast<CommContext*>(self);
    const auto it = ctx->mail_.find(key(src, dst, tag));
    return it == ctx->mail_.end() || it->second.empty();
  }

  std::size_t n_;
  CommConfig config_;
  lockcheck::CheckedMutex mutex_{"parallel.comm.ctx"};
  lockcheck::CheckedCondVar cv_;
  std::map<std::uint64_t, std::queue<std::vector<double>>> mail_;
  std::size_t barrier_count_ = 0;
  std::size_t barrier_gen_ = 0;
  std::vector<int> split_colors_;
  std::size_t split_count_ = 0;
  std::size_t split_gen_ = 0;
  std::map<int, SplitGroup> split_children_;
  std::vector<std::uint64_t> op_seq_;
  std::uint64_t check_id_ = 0;  // commcheck context id (0 = unchecked)
};

// Cached two-level topology (DESIGN.md S10): the node group of
// config().node_size consecutive ranks this rank belongs to, and the
// cross-node communicator of the group leaders. Built collectively by
// ensure_hierarchy() on the calling thread; iallreduce communication
// threads only reuse it.
struct Hierarchy {
  std::size_t node_size = 1;
  std::size_t node = 0;
  bool leader = false;
  std::size_t n_groups = 1;
  Communicator intra;    // ranks of my node group (leader = intra rank 0)
  Communicator leaders;  // group leaders (meaningful only when leader)
};

Communicator::Communicator(std::shared_ptr<CommContext> ctx, std::size_t rank)
    : ctx_(std::move(ctx)), rank_(rank) {}

std::size_t Communicator::size() const { return ctx_->size(); }

const CommConfig& Communicator::config() const { return ctx_->config(); }

int Communicator::next_tag_base() { return ctx_->next_tag_base(rank_); }

void Communicator::barrier() {
  lockcheck::blocking_call("comm.barrier");
  // Injected rank stall: this rank arrives late; the others tolerate the
  // delay through their recv/barrier timeouts.
  if (fault::should_fire(fault::kCommStall)) {
    log::warn("fault ", fault::kCommStall, ": rank ", rank_, " stalled ",
              config().stall_s, " s before barrier");
    sleep_s(config().stall_s);
  }
  ctx_->barrier();
}

std::uint64_t Communicator::context_id() const { return ctx_->check_id(); }

void Communicator::send(std::size_t dest, const std::vector<double>& data,
                        int tag, std::source_location loc) {
  SWRAMAN_REQUIRE(dest < size(), "send: destination rank out of range");
  // Sends can sleep through the retransmit backoff; doing that while
  // holding a strict lock stalls every thread queued behind it.
  lockcheck::blocking_call("comm.send", nullptr, loc);
  commcheck::on_send(ctx_->check_id(), rank_, dest, tag, data.size(), loc);
  const CommConfig& cfg = config();
  BackoffOptions bo;
  bo.base_s = cfg.backoff_base_s;
  bo.cap_s = cfg.backoff_max_s;
  bo.decorrelated = cfg.backoff_jitter;
  // Deterministic per-edge jitter stream: retries of distinct (src, dst,
  // tag) edges decorrelate, yet a fixed seed replays a fixed timeline.
  bo.seed = cfg.backoff_seed ^ (static_cast<std::uint64_t>(rank_) << 40) ^
            (static_cast<std::uint64_t>(dest) << 20) ^
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
  Backoff backoff(bo);
  for (int attempt = 0;; ++attempt) {
    // The transport acknowledges delivery; a drop injected here is what a
    // lost RMA message looks like to the sender — no ack, so retransmit.
    if (!fault::should_fire(fault::kCommSendDrop)) {
      ctx_->post(rank_, dest, tag, data);
      return;
    }
    if (attempt >= cfg.send_retries) {
      throw TimeoutError("send: rank " + std::to_string(rank_) + " -> " +
                         std::to_string(dest) + " tag " +
                         std::to_string(tag) + " dropped " +
                         std::to_string(attempt + 1) +
                         " times; retry budget exhausted");
    }
    obs::count("comm.send.retransmits");
    const double delay = backoff.next();
    log::warn("fault ", fault::kCommSendDrop, ": rank ", rank_, " -> ",
              dest, " tag ", tag, " message dropped, retransmit attempt ",
              attempt + 1, "/", cfg.send_retries, " after ", delay, " s");
    sleep_s(delay);
  }
}

bool Communicator::try_recv(std::size_t src, int tag, double timeout_s,
                            std::vector<double>* out,
                            std::source_location loc) {
  SWRAMAN_REQUIRE(src < size(), "try_recv: source rank out of range");
  lockcheck::blocking_call("comm.try_recv", nullptr, loc);
  if (!ctx_->take(src, rank_, tag, timeout_s, *out, /*blocking=*/false,
                  loc)) {
    return false;
  }
  commcheck::on_recv(ctx_->check_id(), src, rank_, tag, out->size());
  return true;
}

std::vector<double> Communicator::recv(std::size_t src, int tag,
                                       std::source_location loc) {
  SWRAMAN_REQUIRE(src < size(), "recv: source rank out of range");
  lockcheck::blocking_call("comm.recv", nullptr, loc);
  const CommConfig& cfg = config();
  if (fault::should_fire(fault::kCommRecvDelay)) {
    log::warn("fault ", fault::kCommRecvDelay, ": rank ", rank_,
              " delivery delayed ", cfg.stall_s, " s");
    sleep_s(cfg.stall_s);
  }
  std::vector<double> data;
  double timeout = cfg.recv_timeout_s;
  for (int attempt = 0; attempt <= cfg.recv_retries; ++attempt) {
    if (ctx_->take(src, rank_, tag, timeout, data, /*blocking=*/true, loc)) {
      commcheck::on_recv(ctx_->check_id(), src, rank_, tag, data.size());
      return data;
    }
    obs::count("comm.recv.timeouts");
    if (attempt < cfg.recv_retries) {
      log::warn("recv: rank ", rank_, " <- ", src, " tag ", tag,
                " timed out after ", timeout, " s, retry ", attempt + 1,
                "/", cfg.recv_retries);
    }
    timeout *= 2.0;
  }
  throw TimeoutError("recv: rank " + std::to_string(rank_) + " <- " +
                     std::to_string(src) + " tag " + std::to_string(tag) +
                     " timed out after " +
                     std::to_string(cfg.recv_retries + 1) + " waits");
}

void Communicator::broadcast_with_tag(std::vector<double>& data,
                                      std::size_t root, int tag) {
  if (size() == 1) return;
  if (rank_ == root) {
    for (std::size_t r = 0; r < size(); ++r) {
      if (r != root) send(r, data, tag);
    }
  } else {
    data = recv(root, tag);
  }
}

void Communicator::broadcast(std::vector<double>& data, std::size_t root) {
  if (size() == 1) return;
  broadcast_with_tag(data, root, next_tag_base() + kOffBroadcast);
}

const char* allreduce_algorithm_name(AllreduceAlgorithm a) {
  switch (a) {
    case AllreduceAlgorithm::Linear:
      return "linear";
    case AllreduceAlgorithm::Ring:
      return "ring";
    case AllreduceAlgorithm::RecursiveDoubling:
      return "recursive_doubling";
    case AllreduceAlgorithm::ReduceScatterAllgather:
      return "rsag";
    case AllreduceAlgorithm::CpePipelined:
      return "cpe_pipelined";
    case AllreduceAlgorithm::Hierarchical:
      return "hierarchical";
    case AllreduceAlgorithm::Auto:
      return "auto";
  }
  return "?";
}

AllreduceAlgorithm Communicator::resolve_algorithm(AllreduceAlgorithm a,
                                                   std::size_t n) const {
  if (a != AllreduceAlgorithm::Auto) return a;
  // The selection inputs (payload, rank count, node_size, static arch
  // parameters) are identical on every rank, so every rank resolves Auto
  // to the same concrete algorithm without communicating.
  const AllreduceChoice choice = select_allreduce(
      static_cast<double>(n * sizeof(double)), size(), config().node_size);
  return choice.algorithm;
}

void Communicator::ensure_hierarchy() {
  const std::size_t p = size();
  const std::size_t m = std::clamp<std::size_t>(config().node_size, 1, p);
  if (hierarchy_ != nullptr && hierarchy_->node_size == m) return;
  // Collective: both split() calls must be reached by every rank.
  Communicator intra = split(static_cast<int>(rank_ / m));
  const bool leader = intra.rank() == 0;
  Communicator leaders = split(leader ? 0 : 1);
  hierarchy_ = std::make_shared<Hierarchy>(
      Hierarchy{m, rank_ / m, leader, (p + m - 1) / m, std::move(intra),
                std::move(leaders)});
}

void Communicator::allreduce(std::vector<double>& data,
                             AllreduceAlgorithm algorithm) {
  if (size() == 1 || data.empty()) return;
  const AllreduceAlgorithm chosen = resolve_algorithm(algorithm, data.size());
  if (chosen == AllreduceAlgorithm::Hierarchical) ensure_hierarchy();
  allreduce_with_base(data, chosen, next_tag_base());
}

void Communicator::allreduce_with_base(std::vector<double>& data,
                                       AllreduceAlgorithm algorithm,
                                       int tag_base) {
  SWRAMAN_TRACE_SPAN(span, "comm.allreduce");
  const double bytes = static_cast<double>(data.size() * sizeof(double));
  if (span.active()) {
    span.attr("algorithm", allreduce_algorithm_name(algorithm));
    span.attr("bytes", bytes);
    span.attr("ranks", static_cast<double>(size()));
    span.attr("rank", static_cast<double>(rank_));
    obs::count("comm.allreduce.calls");
    obs::count("comm.allreduce.bytes", bytes);
  }
  switch (algorithm) {
    case AllreduceAlgorithm::Linear:
      allreduce_linear(data, tag_base);
      break;
    case AllreduceAlgorithm::Ring:
      allreduce_ring(data, tag_base);
      break;
    case AllreduceAlgorithm::RecursiveDoubling:
      allreduce_recursive_doubling(data, tag_base);
      break;
    case AllreduceAlgorithm::ReduceScatterAllgather:
      allreduce_rsag(data, false, tag_base);
      break;
    case AllreduceAlgorithm::CpePipelined:
      allreduce_rsag(data, true, tag_base);
      break;
    case AllreduceAlgorithm::Hierarchical:
      allreduce_hierarchical(data, tag_base);
      break;
    case AllreduceAlgorithm::Auto:
      // Resolved by the caller; reaching here is a logic error.
      SWRAMAN_REQUIRE(false, "allreduce: Auto must be resolved before dispatch");
      break;
  }
  if (obs::enabled()) {
    // Machine-time accounting: what this exchange costs on the modeled
    // SW26010Pro network, in whole MPE cycles (integer-valued so counter
    // sums stay exact and run-to-run deterministic).
    const double cycles = modeled_allreduce_cycles(
        algorithm, bytes, size(), config().node_size);
    obs::count("comm.allreduce.modeled_cycles", cycles);
    if (span.active()) span.attr("modeled_cycles", cycles);
  }
}

namespace {

// Plain elementwise accumulate.
void reduce_into(std::vector<double>& acc, const std::vector<double>& in) {
  SWRAMAN_REQUIRE(acc.size() == in.size(), "allreduce: size mismatch");
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
}

// The CPE-offloaded local reduction of paper Algorithm 3: the array is
// processed in LDM-sized blocks through a double-buffered pipeline. The
// numerics are identical; the chunked structure is what the Sunway cost
// model charges differently (see sunway/cost_model).
void reduce_into_pipelined(std::vector<double>& acc,
                           const std::vector<double>& in) {
  SWRAMAN_REQUIRE(acc.size() == in.size(), "allreduce: size mismatch");
  constexpr std::size_t kBlk = 256 * 1024 / 4 / sizeof(double);
  for (std::size_t base = 0; base < acc.size(); base += kBlk) {
    const std::size_t end = std::min(acc.size(), base + kBlk);
    for (std::size_t i = base; i < end; ++i) acc[i] += in[i];
  }
}

}  // namespace

// Reduction order: rank 0 folds contributions in ascending rank order
// (((x0 + x1) + x2) + ...), bitwise identical to a serial loop over ranks
// — the reference order the property suite pins the other algorithms to.
void Communicator::allreduce_linear(std::vector<double>& data, int tag_base) {
  const int tag = tag_base + kOffLinearGather;
  if (rank_ == 0) {
    for (std::size_t r = 1; r < size(); ++r) {
      reduce_into(data, recv(r, tag));
    }
  } else {
    send(0, data, tag);
  }
  broadcast_with_tag(data, 0, tag_base + kOffBroadcast);
}

void Communicator::allreduce_ring(std::vector<double>& data, int tag_base) {
  const std::size_t p = size();
  const std::size_t n = data.size();
  if (n == 0) return;  // empty allreduce is a no-op, not a barrier
  SWRAMAN_REQUIRE(kOffRing + 2 * p < static_cast<std::size_t>(kTagStride),
                  "allreduce_ring: rank count exceeds tag window");
  // Chunk boundaries.
  const auto lo = [&](std::size_t c) { return c * n / p; };
  const auto hi = [&](std::size_t c) { return (c + 1) * n / p; };
  const std::size_t next = (rank_ + 1) % p;
  const std::size_t prev = (rank_ + p - 1) % p;

  // Reduce-scatter: after p-1 steps, rank r owns the full sum of chunk
  // (r+1) mod p.
  for (std::size_t step = 0; step < p - 1; ++step) {
    const std::size_t send_chunk = (rank_ + p - step) % p;
    const std::size_t recv_chunk = (rank_ + p - step - 1) % p;
    const int tag = tag_base + kOffRing + static_cast<int>(step);
    std::vector<double> out(data.begin() + static_cast<long>(lo(send_chunk)),
                            data.begin() + static_cast<long>(hi(send_chunk)));
    send(next, out, tag);
    const std::vector<double> in = recv(prev, tag);
    for (std::size_t i = 0; i < in.size(); ++i) {
      data[lo(recv_chunk) + i] += in[i];
    }
  }
  // Allgather ring.
  for (std::size_t step = 0; step < p - 1; ++step) {
    const std::size_t send_chunk = (rank_ + 1 + p - step) % p;
    const std::size_t recv_chunk = (rank_ + p - step) % p;
    const int tag =
        tag_base + kOffRing + static_cast<int>(p - 1 + step);
    std::vector<double> out(data.begin() + static_cast<long>(lo(send_chunk)),
                            data.begin() + static_cast<long>(hi(send_chunk)));
    send(next, out, tag);
    const std::vector<double> in = recv(prev, tag);
    std::copy(in.begin(), in.end(),
              data.begin() + static_cast<long>(lo(recv_chunk)));
  }
}

void Communicator::allreduce_recursive_doubling(std::vector<double>& data,
                                                int tag_base) {
  const std::size_t p = size();
  // Fold the non-power-of-two remainder into the lower ranks first.
  std::size_t pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  const std::size_t rem = p - pof2;

  long my_id = -1;  // id within the power-of-two group, -1 = folded out
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {
      send(rank_ + 1, data, tag_base + kOffRdFold);
      my_id = -1;
    } else {
      reduce_into(data, recv(rank_ - 1, tag_base + kOffRdFold));
      my_id = static_cast<long>(rank_ / 2);
    }
  } else {
    my_id = static_cast<long>(rank_ - rem);
  }

  if (my_id >= 0) {
    for (std::size_t mask = 1; mask < pof2; mask <<= 1) {
      const std::size_t partner_id =
          static_cast<std::size_t>(my_id) ^ mask;
      const std::size_t partner_rank = partner_id < rem
                                           ? 2 * partner_id + 1
                                           : partner_id + rem;
      const int tag = tag_base + kOffRdMask + bit_index(mask);
      send(partner_rank, data, tag);
      reduce_into(data, recv(partner_rank, tag));
    }
  }

  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send(rank_ - 1, data, tag_base + kOffRdUnfold);
    } else {
      data = recv(rank_ + 1, tag_base + kOffRdUnfold);
    }
  }
}

void Communicator::allreduce_rsag(std::vector<double>& data,
                                  bool pipelined_local, int tag_base) {
  const std::size_t p = size();
  const std::size_t n = data.size();
  const auto combine = pipelined_local ? reduce_into_pipelined : reduce_into;

  // Non-power-of-two: fall back to linear fold into recursive halving is
  // intricate; a ring pass keeps correctness with the same local-reduce
  // kernel. Power-of-two uses true recursive halving + doubling.
  std::size_t pof2 = 1;
  while (pof2 * 2 <= p) pof2 *= 2;
  if (pof2 != p || n < p) {
    // Same communication volume class; local reductions go through the
    // (possibly pipelined) combine.
    const int tag = tag_base + kOffGatherFallback;
    if (rank_ == 0) {
      for (std::size_t r = 1; r < p; ++r) combine(data, recv(r, tag));
    } else {
      send(0, data, tag);
    }
    broadcast_with_tag(data, 0, tag_base + kOffBroadcast);
    return;
  }

  // Recursive halving reduce-scatter: at step k my active window halves.
  std::size_t lo = 0;
  std::size_t hi = n;
  for (std::size_t mask = p / 2; mask >= 1; mask >>= 1) {
    const std::size_t partner = rank_ ^ mask;
    const std::size_t mid = lo + (hi - lo) / 2;
    const bool keep_low = (rank_ & mask) == 0;
    const std::size_t send_lo = keep_low ? mid : lo;
    const std::size_t send_hi = keep_low ? hi : mid;
    const int tag = tag_base + kOffRsagHalve + bit_index(mask);
    std::vector<double> out(data.begin() + static_cast<long>(send_lo),
                            data.begin() + static_cast<long>(send_hi));
    send(partner, out, tag);
    const std::vector<double> in = recv(partner, tag);
    const std::size_t keep_lo = keep_low ? lo : mid;
    std::vector<double> window(data.begin() + static_cast<long>(keep_lo),
                               data.begin() +
                                   static_cast<long>(keep_lo + in.size()));
    combine(window, in);
    std::copy(window.begin(), window.end(),
              data.begin() + static_cast<long>(keep_lo));
    if (keep_low) {
      hi = mid;
    } else {
      lo = mid;
    }
  }

  // Recursive doubling allgather: windows merge back.
  for (std::size_t mask = 1; mask < p; mask <<= 1) {
    const std::size_t partner = rank_ ^ mask;
    const int tag = tag_base + kOffRsagDouble + bit_index(mask);
    std::vector<double> out(data.begin() + static_cast<long>(lo),
                            data.begin() + static_cast<long>(hi));
    send(partner, out, tag);
    const std::vector<double> in = recv(partner, tag);
    if ((rank_ & mask) == 0) {
      // Partner owned the upper half adjacent to ours.
      std::copy(in.begin(), in.end(), data.begin() + static_cast<long>(hi));
      hi += in.size();
    } else {
      std::copy(in.begin(), in.end(),
                data.begin() + static_cast<long>(lo - in.size()));
      lo -= in.size();
    }
  }
}

// Two-level topology-aware allreduce (paper Sec. 3.4 / Fig. 15, DESIGN.md
// S10). Stage 1: every node group reduces onto its leader through the CPE
// RMA mesh path — each member's vector becomes one mesh lane of
// (index, value) contributions, and rma_array_reduction applies them
// through its chunked LDM block-cache pipeline. Stage 2: the leaders run
// Rabenseifner reduce-scatter + allgather (CPE-pipelined local combine)
// across node groups. Stage 3: each leader broadcasts the global sum
// inside its node. Reduction order therefore differs from Linear; results
// agree within floating-point reassociation error.
void Communicator::allreduce_hierarchical(std::vector<double>& data,
                                          int tag_base) {
  SWRAMAN_REQUIRE(hierarchy_ != nullptr,
                  "allreduce_hierarchical: topology not built (Hierarchical "
                  "dispatched without ensure_hierarchy)");
  Hierarchy& h = *hierarchy_;
  const std::size_t m = h.intra.size();
  const std::size_t n = data.size();
  const double bytes = static_cast<double>(n * sizeof(double));

  // Stage 1: intra-node gather + RMA-mesh reduction onto the leader.
  if (m > 1) {
    const int tag = tag_base + kOffHierGather;
    if (h.leader) {
      std::vector<std::vector<sunway::Contribution>> lanes(m - 1);
      for (std::size_t r = 1; r < m; ++r) {
        const std::vector<double> in = h.intra.recv(r, tag);
        SWRAMAN_REQUIRE(in.size() == n, "allreduce: size mismatch");
        auto& lane = lanes[r - 1];
        lane.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          lane[i] = sunway::Contribution{i, in[i]};
        }
      }
      const sunway::RmaReduceStats stats =
          sunway::rma_array_reduction(lanes, data);
      if (obs::enabled()) {
        // Both directions of intra-node traffic are charged by the leader
        // (gather now, broadcast below) — integer byte counts, so the
        // counters stay deterministic.
        obs::count("comm.allreduce.intra.bytes",
                   2.0 * static_cast<double>(m - 1) * bytes);
        obs::count("comm.allreduce.intra.rma_messages", stats.rma_messages);
        obs::count("comm.allreduce.intra.rma_bytes", stats.rma_bytes);
      }
    } else {
      h.intra.send(0, data, tag);
    }
  }

  // Stage 2: leaders reduce across node groups (Rabenseifner with the
  // CPE-pipelined local combine — the paper's optimized inter-node path).
  if (h.leader && h.leaders.size() > 1) {
    h.leaders.allreduce_rsag(data, true, tag_base);
    if (obs::enabled()) {
      // Rabenseifner wire volume per rank: 2 (g-1)/g * payload.
      const double g = static_cast<double>(h.leaders.size());
      obs::count("comm.allreduce.inter.bytes",
                 std::floor(2.0 * (g - 1.0) / g * bytes + 0.5));
    }
  }

  // Stage 3: intra-node broadcast of the global sum.
  if (m > 1) {
    h.intra.broadcast_with_tag(data, 0, tag_base + kOffHierBcast);
  }
}

// ---------------------------------------------------------------------------
// Non-blocking allreduce.

struct AllreduceRequest::State {
  std::vector<double> data;
  AllreduceAlgorithm algorithm = AllreduceAlgorithm::Linear;
  std::thread worker;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> comm_done_ns{0};
  std::uint64_t start_ns = 0;
  std::exception_ptr error;
  bool waited = false;

  ~State() {
    // The owning handle joins before releasing its reference (wait() or
    // abandon()), so this is a backstop only — and it can never run on the
    // worker thread, because the worker's own captured reference is
    // released before join() returns.
    if (worker.joinable()) worker.join();
  }
};

void AllreduceRequest::abandon() noexcept {
  if (state_ == nullptr || state_->waited) return;
  // Always complete the exchange — peers block on our messages — then flag
  // the protocol violation: a request that was never waited on threw its
  // reduced data away. This runs on the owner thread so the violation is
  // visible as soon as the handle is gone.
  if (state_->worker.joinable()) state_->worker.join();
  state_->waited = true;
  obs::count("comm.iallreduce.abandoned");
  if (state_->error != nullptr) {
    log::warn("iallreduce: abandoned request also failed on its "
              "communication thread; error dropped");
  }
  if (sunway::check::enabled()) {
    sunway::check::note(sunway::check::kRuleCollAbandoned,
                        "iallreduce request destroyed without wait(); "
                        "algorithm=" +
                            std::string(allreduce_algorithm_name(
                                state_->algorithm)) +
                            " payload_doubles=" +
                            std::to_string(state_->data.size()));
  }
}

AllreduceRequest::~AllreduceRequest() { abandon(); }

AllreduceRequest& AllreduceRequest::operator=(
    AllreduceRequest&& other) noexcept {
  if (this != &other) {
    abandon();
    state_ = std::move(other.state_);
  }
  return *this;
}

bool AllreduceRequest::test() const {
  SWRAMAN_REQUIRE(state_ != nullptr, "AllreduceRequest::test: empty request");
  return state_->done.load(std::memory_order_acquire);
}

std::vector<double> AllreduceRequest::wait() {
  SWRAMAN_REQUIRE(state_ != nullptr, "AllreduceRequest::wait: empty request");
  const std::shared_ptr<State> st = std::move(state_);
  st->waited = true;
  const std::uint64_t wait_begin_ns = obs::now_ns();
  if (st->worker.joinable()) st->worker.join();
  if (st->error != nullptr) std::rethrow_exception(st->error);
  if (obs::enabled()) {
    // Overlap = communication time that ran while the caller was doing
    // other work; wait = time the caller stalled here. Wall-clock values,
    // hence the _ns suffix — excluded from determinism comparisons.
    const std::uint64_t done_ns =
        std::max(st->comm_done_ns.load(std::memory_order_relaxed),
                 st->start_ns);
    const std::uint64_t overlap_end = std::min(done_ns, wait_begin_ns);
    if (overlap_end > st->start_ns) {
      obs::count("comm.allreduce.overlap_ns",
                 static_cast<double>(overlap_end - st->start_ns));
    }
    if (done_ns > wait_begin_ns) {
      obs::count("comm.allreduce.wait_ns",
                 static_cast<double>(done_ns - wait_begin_ns));
    }
  }
  return std::move(st->data);
}

AllreduceRequest Communicator::iallreduce(std::vector<double> data,
                                          AllreduceAlgorithm algorithm) {
  auto st = std::make_shared<AllreduceRequest::State>();
  st->data = std::move(data);
  st->algorithm = resolve_algorithm(algorithm, st->data.size());
  st->start_ns = obs::now_ns();
  obs::count("comm.iallreduce.calls");
  if (size() == 1 || st->data.empty()) {
    st->comm_done_ns.store(st->start_ns, std::memory_order_relaxed);
    st->done.store(true, std::memory_order_release);
    return AllreduceRequest(std::move(st));
  }
  // Collective-ordering work happens here, on the calling thread: Auto is
  // already resolved, the hierarchy is built (two split()s), and the tag
  // base is drawn. The communication thread only moves messages.
  if (st->algorithm == AllreduceAlgorithm::Hierarchical) ensure_hierarchy();
  const int tag_base = next_tag_base();
  st->worker = std::thread([st, self = *this, tag_base]() mutable {
    try {
      self.allreduce_with_base(st->data, st->algorithm, tag_base);
    } catch (...) {
      st->error = std::current_exception();
    }
    st->comm_done_ns.store(obs::now_ns(), std::memory_order_relaxed);
    st->done.store(true, std::memory_order_release);
  });
  return AllreduceRequest(std::move(st));
}

Communicator Communicator::split(int color) {
  auto [child, new_rank] = ctx_->split(rank_, color);
  return Communicator(child, new_rank);
}

void run_spmd(std::size_t n_ranks,
              const std::function<void(Communicator&)>& fn,
              const CommConfig& config) {
  SWRAMAN_REQUIRE(n_ranks >= 1, "run_spmd: need at least one rank");
  auto ctx = std::make_shared<CommContext>(n_ranks, config);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(n_ranks);
  threads.reserve(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Communicator comm(ctx, r);
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void for_each_point(std::size_t n_points, std::size_t n_ranks,
                    const std::function<void(std::size_t)>& fn) {
  SWRAMAN_REQUIRE(n_ranks >= 1, "for_each_point: need at least one rank");
  const std::size_t ranks = std::min(n_ranks, n_points);
  if (ranks <= 1) {
    for (std::size_t k = 0; k < n_points; ++k) fn(k);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const obs::SpanContext caller = obs::current_context();
  run_spmd(ranks, [&](Communicator&) {
    const obs::AdoptedContext adopt(caller);
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= n_points) return;
      try {
        fn(k);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
}

std::size_t cpu_quota_cores(const std::string& quota_period) {
  std::istringstream in(quota_period);
  std::string quota;
  long long period = 0;
  if (!(in >> quota >> period) || period <= 0) return 0;
  long long q = 0;
  const auto [end, ec] =
      std::from_chars(quota.data(), quota.data() + quota.size(), q);
  if (ec != std::errc() || end != quota.data() + quota.size() || q <= 0) {
    return 0;
  }
  return static_cast<std::size_t>((q + period - 1) / period);
}

namespace {

// Cores the CPU quota of this process's cgroup allows; 0 when it has none
// or none can be read. A path from /proc/self/cgroup is looked up under
// the cgroup mount, then the mount itself (a container's own cgroup).
std::size_t cgroup_cpu_quota() {
  std::size_t limit = 0;
  const auto keep = [&limit](std::size_t cores) {
    if (cores > 0 && (limit == 0 || cores < limit)) limit = cores;
  };
  std::ifstream self("/proc/self/cgroup");
  std::string line;
  while (std::getline(self, line)) {
    const std::size_t a = line.find(':');
    const std::size_t b = a == std::string::npos ? a : line.find(':', a + 1);
    if (b == std::string::npos) continue;
    const std::string controllers = line.substr(a + 1, b - a - 1);
    const std::string path = line.substr(b + 1);
    if (controllers.empty()) {  // cgroup v2
      for (const std::string& dir :
           {"/sys/fs/cgroup" + path, std::string("/sys/fs/cgroup")}) {
        std::ifstream f(dir + "/cpu.max");
        std::string text;
        if (std::getline(f, text)) {
          keep(cpu_quota_cores(text));
          break;
        }
      }
    } else if (("," + controllers + ",").find(",cpu,") != std::string::npos) {
      for (const std::string& dir :
           {"/sys/fs/cgroup/cpu" + path, std::string("/sys/fs/cgroup/cpu")}) {
        std::ifstream q(dir + "/cpu.cfs_quota_us");
        std::ifstream p(dir + "/cpu.cfs_period_us");
        std::string quota;
        std::string period;
        if (q >> quota && p >> period) {
          keep(cpu_quota_cores(quota + " " + period));
          break;
        }
      }
    }
  }
  return limit;
}

}  // namespace

std::size_t host_ranks() {
  std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
#ifdef __linux__
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    cores = std::min(cores, static_cast<std::size_t>(
                                std::max(1, CPU_COUNT(&mask))));
  }
#endif
  const std::size_t quota = cgroup_cpu_quota();
  if (quota > 0) cores = std::min(cores, quota);
  return cores;
}

std::vector<Communicator> make_comm_group(std::size_t n_ranks,
                                          const CommConfig& config) {
  SWRAMAN_REQUIRE(n_ranks >= 1, "make_comm_group: need at least one rank");
  auto ctx = std::make_shared<CommContext>(n_ranks, config);
  std::vector<Communicator> group;
  group.reserve(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r) group.emplace_back(ctx, r);
  return group;
}

}  // namespace swraman::parallel
