#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <source_location>
#include <string>
#include <vector>

#include "common/error.hpp"

// lockcheck — host-concurrency contract checker (DESIGN.md §14), the
// host-tier sibling of swcheck (src/sunway/check). TSan proves the
// absence of data races on the interleavings it happens to see; it says
// nothing about lock-order deadlocks that never fired in that run,
// fsync stalls executed under a scheduler lock, or condvar waits that
// lose a wakeup. Checked mode closes that gap the lockdep way: every
// CheckedMutex belongs to a lock *class* keyed by its construction site
// (name + file:line), every acquisition records class-order edges from
// all locks the thread already holds into a global acquisition-order
// graph, and a cycle in that graph is reported as a potential deadlock
// with both orders' acquisition provenance — even when the actual
// deadlock interleaving never happened in this run.
//
// The same held-lock bookkeeping drives two more audits:
//   - blocking_call(): fsync/WAL appends/p2p send+recv/condvar waits
//     announce themselves; executing one while holding a lock that was
//     not constructed with kAllowsBlocking is lock.blocking_under_lock.
//   - assert_held(): components documented as "caller locks for us"
//     (FairShareScheduler, DisplacementCache) verify the contract,
//     reporting lock.guard_unheld instead of corrupting state silently.
//
// The p2p protocol rules (p2p.*) are detected by the Communicator-side
// verifier (src/parallel/commcheck) but share this tally and summary so
// one SWRAMAN_CHECK_FILE line covers the whole host tier.
//
// Enabling: SWRAMAN_CHECK=1 in the environment (read at static init,
// shared with swcheck), or set_enabled(true) / ScopedChecking in tests.
// Disabled cost is one relaxed atomic load per lock()/unlock() — no
// graph, no held set, no registration beyond the constructor storing
// three words.
//
// Violations are (a) tallied by rule, (b) surfaced through the obs
// layer when it is linked (check.violations counter + flight-recorder
// dump, installed via install_obs_sinks from an obs TU so this header
// stays at the bottom of the library stack), and (c) thrown as
// CheckViolation with file:line provenance. When enabled from the
// environment, an exit hook appends a swraman-lockcheck-v1 JSON line to
// SWRAMAN_CHECK_FILE (shared, line-per-checker, with swcheck).

namespace swraman::lockcheck {

namespace detail {
extern std::atomic<bool> g_lockcheck_enabled;
}  // namespace detail

// Hot-path gate: one relaxed load.
inline bool enabled() {
  return detail::g_lockcheck_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

// Canonical rule names — keys of the exit summary and of
// violation_counts(). Tests assert on these.
inline constexpr const char* kRuleOrderCycle = "lock.order_cycle";
inline constexpr const char* kRuleBlockingUnderLock =
    "lock.blocking_under_lock";
inline constexpr const char* kRuleCondvarNoPredicate =
    "lock.condvar_no_predicate";
inline constexpr const char* kRuleGuardUnheld = "lock.guard_unheld";
inline constexpr const char* kRuleP2pOrphan = "p2p.orphaned_message";
inline constexpr const char* kRuleP2pTagMismatch = "p2p.tag_mismatch";
inline constexpr const char* kRuleP2pRecvCycle = "p2p.recv_cycle";

// Records the violation (tally + obs sinks) and throws CheckViolation.
[[noreturn]] void report(const char* rule, const std::string& context);

// Same recording but non-throwing — for violations detected on paths
// that must not unwind (destructors, server/poll threads).
void note(const char* rule, const std::string& context);

[[nodiscard]] std::map<std::string, std::uint64_t> violation_counts();
[[nodiscard]] std::uint64_t total_violations();

// Registered lock classes (stable ids, append-only for the process).
struct SiteInfo {
  std::uint32_t id = 0;
  std::string name;
  std::string file;
  std::uint32_t line = 0;
};
[[nodiscard]] std::vector<SiteInfo> sites();

// swraman-lockcheck-v1 JSON: enabled flag, tally by rule, lock-class
// site table. A disabled run serializes to an empty report.
[[nodiscard]] std::string summary_json();

// Clears the tally, the acquisition-order graph, and the calling
// thread's held-lock set (tests). Lock-class ids stay stable.
void reset_for_testing();

// Obs-layer hooks. lockcheck lives in swraman_common, below the obs
// library; binaries that link obs install these from a static
// registrar (src/obs/metrics.cpp) so violations still bump the
// check.violations counter and dump the flight recorder without a
// layering inversion. Either pointer may be null.
struct ObsSinks {
  void (*violation)(const char* rule, const std::string& what) = nullptr;
  void (*flight_dump)(const char* reason) = nullptr;
};
void install_obs_sinks(const ObsSinks& sinks);

class CheckedMutex;

namespace detail {
std::uint32_t register_site(const char* name, const char* file,
                            std::uint32_t line);
void before_acquire(CheckedMutex* m, const std::source_location& acq);
void after_acquire(CheckedMutex* m, const std::source_location& acq);
void on_release(CheckedMutex* m);
void blocking_call_slow(const char* what, const CheckedMutex* exempt,
                        const std::source_location& loc);
void assert_held_slow(const CheckedMutex* m, const char* what,
                      const std::source_location& loc);
[[noreturn]] void condvar_no_predicate(const CheckedMutex* m,
                                       const std::source_location& loc);
}  // namespace detail

// Drop-in std::mutex replacement. The (name, construction file:line)
// pair is the lock *class*: every instance constructed at that site —
// one per worker deque, one per shard — shares ordering edges, which is
// what lets a run with one interleaving prove facts about the others.
// kAllowsBlocking marks the small set of control-plane locks that hold
// across fsync/join/replay by design (WAL internals, shard control
// plane, checkpoint writer); they are exempt from the blocking audit
// but still participate in order checking.
class CheckedMutex {
 public:
  static constexpr unsigned kAllowsBlocking = 1u;

  explicit CheckedMutex(
      const char* name = "mutex", unsigned flags = 0,
      std::source_location site = std::source_location::current())
      : name_(name), file_(site.file_name()), line_(site.line()),
        flags_(flags) {
    if (enabled()) static_cast<void>(site_id());  // eager registration
  }
  CheckedMutex(const CheckedMutex&) = delete;
  CheckedMutex& operator=(const CheckedMutex&) = delete;

  void lock(std::source_location acq = std::source_location::current()) {
    const bool checked = enabled();
    if (checked) detail::before_acquire(this, acq);
    m_.lock();
    if (checked) detail::after_acquire(this, acq);
  }

  void unlock() {
    if (enabled()) detail::on_release(this);
    m_.unlock();
  }

  // Lock-class id, registered lazily so a mutex constructed while
  // checking was off still joins the graph once it is turned on.
  [[nodiscard]] std::uint32_t site_id() const {
    std::uint32_t id = site_.load(std::memory_order_relaxed);
    if (id == 0) {
      id = detail::register_site(name_, file_, line_);
      site_.store(id, std::memory_order_relaxed);
    }
    return id;
  }

  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] const char* file() const { return file_; }
  [[nodiscard]] std::uint32_t line() const { return line_; }
  [[nodiscard]] bool allows_blocking() const {
    return (flags_ & kAllowsBlocking) != 0;
  }

 private:
  std::mutex m_;
  const char* name_;
  const char* file_;  // source_location file_name(): static storage
  std::uint32_t line_;
  mutable std::atomic<std::uint32_t> site_{0};
  unsigned flags_;
};

// RAII acquisition — the lock_guard/unique_lock replacement. Meets
// BasicLockable so CheckedCondVar (condition_variable_any) can release
// and reacquire it through the instrumented path, keeping the held-lock
// bookkeeping exact across waits.
class CheckedLock {
 public:
  explicit CheckedLock(
      CheckedMutex& m,
      std::source_location acq = std::source_location::current())
      : m_(&m) {
    m_->lock(acq);
    owned_ = true;
  }
  CheckedLock(const CheckedLock&) = delete;
  CheckedLock& operator=(const CheckedLock&) = delete;
  ~CheckedLock() {
    if (owned_) m_->unlock();
  }

  void lock(std::source_location acq = std::source_location::current()) {
    m_->lock(acq);
    owned_ = true;
  }
  void unlock() {
    owned_ = false;
    m_->unlock();
  }

  [[nodiscard]] bool owns_lock() const { return owned_; }
  [[nodiscard]] CheckedMutex* mutex() const { return m_; }

 private:
  CheckedMutex* m_;
  bool owned_ = false;
};

// Announces a blocking primitive (fsync, WAL append, p2p send/recv,
// checkpoint write). Reports lock.blocking_under_lock when the calling
// thread holds any checked lock without kAllowsBlocking, except
// `exempt` (a condvar's own mutex, released for the duration of the
// wait).
inline void blocking_call(
    const char* what, const CheckedMutex* exempt = nullptr,
    std::source_location loc = std::source_location::current()) {
  if (enabled()) detail::blocking_call_slow(what, exempt, loc);
}

// Guard-contract check for "the caller locks for us" components.
// Reports lock.guard_unheld when `m` is non-null and the calling thread
// does not hold it. A null guard (no service attached) checks nothing.
inline void assert_held(
    const CheckedMutex* m, const char* what,
    std::source_location loc = std::source_location::current()) {
  if (enabled()) detail::assert_held_slow(m, what, loc);
}

// True when the calling thread's tracked held set contains m (tests).
[[nodiscard]] bool is_held(const CheckedMutex* m);

// Condition variable over CheckedLock. An *untimed* wait without a
// predicate is itself a violation (lock.condvar_no_predicate): spurious
// wakeups make it return early and a missed notify parks it forever.
// Timed predicate-less waits (bounded idle parks) are legal; every wait
// form is audited as a blocking call with the condvar's own mutex
// exempt.
class CheckedCondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(CheckedLock& lock,
            std::source_location loc = std::source_location::current()) {
    if (enabled()) detail::condvar_no_predicate(lock.mutex(), loc);
    cv_.wait(lock);
  }

  template <class Predicate>
  void wait(CheckedLock& lock, Predicate pred,
            std::source_location loc = std::source_location::current()) {
    blocking_call("condvar.wait", lock.mutex(), loc);
    cv_.wait(lock, std::move(pred));
  }

  template <class Rep, class Period>
  std::cv_status wait_for(
      CheckedLock& lock, const std::chrono::duration<Rep, Period>& dur,
      std::source_location loc = std::source_location::current()) {
    blocking_call("condvar.wait_for", lock.mutex(), loc);
    return cv_.wait_for(lock, dur);
  }

  template <class Rep, class Period, class Predicate>
  bool wait_for(CheckedLock& lock,
                const std::chrono::duration<Rep, Period>& dur,
                Predicate pred,
                std::source_location loc = std::source_location::current()) {
    blocking_call("condvar.wait_for", lock.mutex(), loc);
    return cv_.wait_for(lock, dur, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

// RAII enable/disable for tests; restores the previous state and clears
// tally + graph on both ends so violations never leak across cases.
class ScopedChecking {
 public:
  explicit ScopedChecking(bool on = true) : prev_(enabled()) {
    reset_for_testing();
    set_enabled(on);
  }
  ScopedChecking(const ScopedChecking&) = delete;
  ScopedChecking& operator=(const ScopedChecking&) = delete;
  ~ScopedChecking() {
    set_enabled(prev_);
    reset_for_testing();
  }

 private:
  bool prev_;
};

}  // namespace swraman::lockcheck
