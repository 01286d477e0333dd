#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <source_location>
#include <string>
#include <vector>

// SPMD message-passing runtime over std::thread — the stand-in for MPI
// (DESIGN.md S4). Ranks are threads sharing a CommContext of mailboxes;
// the API mirrors the MPI subset the paper's code needs: point-to-point,
// barrier, broadcast, communicator split (the geometry-level sub-groups of
// Fig. 4), and Allreduce in several algorithm variants including the
// paper's "Reduce-Scatter followed by Allgather" (Sec. 3.4) and the
// two-level topology-aware Hierarchical scheme (DESIGN.md S10).
//
// Fault tolerance: the transport models acknowledged delivery, so a send
// whose message the injector drops (fault site comm.send.drop) is detected
// by the sender and retransmitted with exponential backoff; recv waits with
// a bounded timeout instead of blocking forever on a lost peer and throws
// TimeoutError once its retry budget is spent. All collectives are built on
// send/recv and inherit both behaviours.
//
// Concurrency: collectives may overlap. Every collective call draws a
// per-rank operation sequence number on the calling thread and derives all
// of its internal message tags from it, so a blocking allreduce can run
// while non-blocking iallreduce operations are still in flight without tag
// collisions — as long as every rank issues its collective calls in the
// same program order (the usual MPI requirement).

namespace swraman::parallel {

// Retry/backoff policy shared by every rank of a communicator (split
// children inherit the parent's config).
struct CommConfig {
  double recv_timeout_s = 60.0;   // first recv wait; doubles per retry
  int recv_retries = 3;           // additional timed waits after the first
  int send_retries = 8;           // retransmissions after a dropped send
  double backoff_base_s = 1e-4;   // first retransmit backoff; doubles
  double backoff_max_s = 0.05;    // backoff ceiling
  // Decorrelated-jitter retransmit backoff (common/backoff.hpp) instead
  // of the plain doubling schedule: concurrent senders whose drops
  // coincide stop retrying in lockstep. Deterministic — each (rank, dest,
  // tag) derives its jitter stream from backoff_seed.
  bool backoff_jitter = false;
  std::uint64_t backoff_seed = 2026;
  double stall_s = 1e-3;          // injected delay for comm.stall / delay
  // Ranks per node group for AllreduceAlgorithm::Hierarchical: consecutive
  // ranks [k*node_size, (k+1)*node_size) share one "node" whose intra
  // reduction runs over the CPE RMA mesh (clamped to [1, size()]).
  std::size_t node_size = 4;
};

enum class AllreduceAlgorithm {
  Linear,                  // gather to root, reduce, broadcast
  Ring,                    // ring reduce-scatter + ring allgather
  RecursiveDoubling,       // log2(P) pairwise exchanges
  ReduceScatterAllgather,  // Rabenseifner (the paper's baseline optimized)
  CpePipelined,            // same pattern, local reduce via chunked pipeline
  Hierarchical,            // two-level: intra-node RMA mesh, leaders RSAG
  Auto,                    // cost-model-driven pick among the concrete ones
};

const char* allreduce_algorithm_name(AllreduceAlgorithm a);

class CommContext;
struct Hierarchy;

// Handle of a non-blocking allreduce started with Communicator::iallreduce.
// Exactly one of wait() must consume the handle; destroying a live request
// without wait() still completes the collective (so peers cannot deadlock)
// but is reported as the swcheck violation "coll.abandoned_request" and
// counted under comm.iallreduce.abandoned — the reduced data is lost.
class AllreduceRequest {
 public:
  AllreduceRequest() = default;
  AllreduceRequest(AllreduceRequest&&) noexcept = default;
  AllreduceRequest& operator=(AllreduceRequest&& other) noexcept;
  AllreduceRequest(const AllreduceRequest&) = delete;
  AllreduceRequest& operator=(const AllreduceRequest&) = delete;
  // Destroying a live handle still completes the exchange (peers block on
  // our messages) but reports check::kRuleCollAbandoned — the reduced data
  // was thrown away.
  ~AllreduceRequest();

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  // Non-blocking completion probe.
  [[nodiscard]] bool test() const;

  // Blocks until the collective finished, rethrows any error raised on the
  // communication thread, and returns the reduced data. Consumes the
  // handle. Records comm.allreduce.overlap_ns (communication time that ran
  // concurrently with the caller) and comm.allreduce.wait_ns (time the
  // caller stalled here).
  std::vector<double> wait();

 private:
  friend class Communicator;
  struct State;
  explicit AllreduceRequest(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  // Joins the worker and files the abandonment violation if the handle is
  // live and un-waited. Runs on the owner thread, never the worker.
  void abandon() noexcept;
  std::shared_ptr<State> state_;
};

class Communicator {
 public:
  Communicator(std::shared_ptr<CommContext> ctx, std::size_t rank);

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::size_t size() const;

  void barrier();

  // Reliable send: retransmits (with exponential backoff) when the
  // transport drops the message; throws TimeoutError once the retry budget
  // of the communicator's CommConfig is exhausted. The source_location
  // defaults carry the caller's site into the commcheck p2p verifier's
  // reports; never pass them explicitly.
  void send(std::size_t dest, const std::vector<double>& data, int tag = 0,
            std::source_location loc = std::source_location::current());

  // Timed receive: waits in bounded, doubling slices and throws
  // TimeoutError after CommConfig::recv_retries extra waits go unanswered.
  [[nodiscard]] std::vector<double> recv(
      std::size_t src, int tag = 0,
      std::source_location loc = std::source_location::current());

  // Non-throwing timed receive: waits at most timeout_s for one message;
  // false on expiry (out untouched). The polling primitive of server
  // loops that must stay responsive to shutdown (no exception churn, no
  // retry doubling).
  bool try_recv(std::size_t src, int tag, double timeout_s,
                std::vector<double>* out,
                std::source_location loc = std::source_location::current());

  // Id of the shared context in the commcheck p2p verifier (0 when
  // checking was off at construction). Lets endpoint owners like the
  // remote-cache fabric bind wire types to their tags.
  [[nodiscard]] std::uint64_t context_id() const;

  [[nodiscard]] const CommConfig& config() const;

  // Root's data is copied to everyone.
  void broadcast(std::vector<double>& data, std::size_t root = 0);

  // Element-wise sum across ranks; result available on every rank. All
  // ranks must pass the same number of elements. An empty payload is a
  // no-op on every rank (NOT a synchronization point).
  void allreduce(std::vector<double>& data,
                 AllreduceAlgorithm algorithm = AllreduceAlgorithm::Ring);

  // Non-blocking allreduce: takes ownership of the payload, runs the
  // exchange on a communication thread, and returns a handle whose wait()
  // yields the reduced vector. Collective-order rules are as for
  // allreduce(): every rank must start its iallreduce calls (and any other
  // collectives) in the same program order. Auto resolution and (for
  // Hierarchical) topology construction happen on the calling thread, so
  // the background thread never issues collective-ordering operations.
  [[nodiscard]] AllreduceRequest iallreduce(
      std::vector<double> data,
      AllreduceAlgorithm algorithm = AllreduceAlgorithm::Auto);

  // Collective: every rank calls with its color; returns a communicator
  // over the ranks sharing the color (ranks ordered by parent rank).
  [[nodiscard]] Communicator split(int color);

 private:
  std::shared_ptr<CommContext> ctx_;
  std::size_t rank_;
  // Cached two-level topology for Hierarchical (built collectively on
  // first use; shared with iallreduce communication threads).
  std::shared_ptr<Hierarchy> hierarchy_;

  // Draws this rank's next collective-operation tag base (calling thread
  // only — never from a communication thread).
  int next_tag_base();
  // Resolves Auto against the calibrated sunway cost model.
  [[nodiscard]] AllreduceAlgorithm resolve_algorithm(AllreduceAlgorithm a,
                                                     std::size_t n) const;
  // Collectively builds (or reuses) the node-group topology.
  void ensure_hierarchy();

  void allreduce_with_base(std::vector<double>& data,
                           AllreduceAlgorithm algorithm, int tag_base);
  void broadcast_with_tag(std::vector<double>& data, std::size_t root,
                          int tag);
  void allreduce_linear(std::vector<double>& data, int tag_base);
  void allreduce_ring(std::vector<double>& data, int tag_base);
  void allreduce_recursive_doubling(std::vector<double>& data, int tag_base);
  void allreduce_rsag(std::vector<double>& data, bool pipelined_local,
                      int tag_base);
  void allreduce_hierarchical(std::vector<double>& data, int tag_base);
};

// Launches fn on n_ranks threads, each receiving its Communicator. Any
// exception on a rank is rethrown on the caller after all threads join.
// The config sets the communicator's timeout/retry policy.
void run_spmd(std::size_t n_ranks,
              const std::function<void(Communicator&)>& fn,
              const CommConfig& config = {});

// Runs fn(k) once for every k in [0, n_points) on min(n_ranks, n_points)
// run_spmd ranks — the paper's geometry sub-groups. Points differ in cost,
// so ranks claim indices one at a time from a shared counter instead of
// taking a fixed share; fn(k) must write only what belongs to point k. One
// rank runs the points on the calling thread, in index order. No collective
// follows a point, so a point that throws leaves no peer blocked in one (its
// error would reach that peer as a TimeoutError): its rank raises a flag,
// the other ranks stop claiming, and the error is rethrown here, with its
// type, once every rank has joined. Rank threads adopt the caller's span
// context, so the spans fn opens nest under the caller's.
void for_each_point(std::size_t n_points, std::size_t n_ranks,
                    const std::function<void(std::size_t)>& fn);

// Rank count that fills the cores this process may use, at least 1: the
// fewest of hardware_concurrency(), the CPUs in the calling thread's
// affinity mask, and the cores its cgroup's CPU quota allows (cgroup v2
// cpu.max or v1 cpu.cfs_quota_us, when set).
std::size_t host_ranks();

// Whole cores a cgroup CPU quota "<quota> <period>" allows, rounded up
// ("150000 100000" -> 2); 0 for no quota ("max ..." in v2, a negative
// quota in v1) or text that does not parse.
std::size_t cpu_quota_cores(const std::string& quota_period);

// Endpoints of a fresh shared context without the run_spmd thread
// harness: element k of the returned vector is rank k. The caller owns
// the threading — each endpoint must be driven by at most one thread at a
// time (the usual one-thread-per-rank rule), but different endpoints may
// live on arbitrary threads. Used by the sharded serve tier's cross-shard
// cache, where shard server threads outlive any single SPMD region.
std::vector<Communicator> make_comm_group(std::size_t n_ranks,
                                          const CommConfig& config = {});

}  // namespace swraman::parallel
