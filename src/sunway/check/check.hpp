#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/error.hpp"

// swcheck — shadow-state correctness checker for the Sunway execution
// model (DESIGN.md S9). The functional CpeCluster model completes every
// DMA synchronously, so a kernel with a broken reply-word protocol (a
// missing dma_wait, an overrunning tile, a read of a buffer whose
// transfer is still in flight) produces correct numerics here and
// garbage on the real SW26010Pro. Checked mode closes that gap: it
// maintains shadow state for every LDM tile and DMA/RMA operation and
// turns latent protocol violations into hard, attributed errors.
//
// Enabling: SWRAMAN_CHECK=1 in the environment (read at static init,
// like SWRAMAN_TRACE), or check::set_enabled(true) / ScopedChecking in
// tests. Disabled cost is a single relaxed atomic load per DMA call —
// no shadow state is allocated and no branch beyond the gate runs.
//
// Every violation is (a) recorded in a process-wide tally by rule name,
// (b) emitted through the obs layer (an instant event plus the
// "check.violations" counter), and (c) thrown as CheckViolation with
// kernel name, CPE id, and tile provenance in the message. When checked
// mode was enabled from the environment, an exit hook writes a
// machine-readable JSON summary (SWRAMAN_CHECK_FILE, default stderr).

namespace swraman::sunway::check {

namespace detail {
extern std::atomic<bool> g_check_enabled;
}  // namespace detail

// Hot-path gate: one relaxed load (the "one branch per DMA call" the
// disabled mode is allowed to cost).
inline bool enabled() {
  return detail::g_check_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

// Canonical rule names — the keys of the exit summary and of
// violation_counts(). Tests assert on these.
inline constexpr const char* kRuleLdmBounds = "ldm.bounds";
inline constexpr const char* kRuleLdmUseAfterReset = "ldm.use_after_reset";
inline constexpr const char* kRuleDmaInFlight = "dma.inflight_access";
inline constexpr const char* kRuleDmaOverlap = "dma.overlap";
inline constexpr const char* kRuleDmaWaitUnreachable = "dma.wait_unreachable";
inline constexpr const char* kRuleDmaReplyOverrun = "dma.reply_overrun";
inline constexpr const char* kRuleDmaUnwaited = "dma.unwaited_at_finish";
inline constexpr const char* kRuleRmaUnconsumed = "rma.unconsumed";
inline constexpr const char* kRuleRmaDeadlock = "rma.deadlock";
inline constexpr const char* kRuleCollAbandoned = "coll.abandoned_request";

// Records the violation (tally + obs instant + check.violations counter)
// and throws CheckViolation. `context` should already carry kernel name,
// CPE id, and tile provenance; report() prefixes the rule.
[[noreturn]] void report(const char* rule, const std::string& context);

// Same recording as report() but does not throw — for violations detected
// on paths that must not unwind (destructors, communication threads). The
// caller decides what, if anything, to do next.
void note(const char* rule, const std::string& context);

// Process-wide tally of reported violations by rule (includes thrown
// ones — recording happens before the throw).
[[nodiscard]] std::map<std::string, std::uint64_t> violation_counts();
[[nodiscard]] std::uint64_t total_violations();

// Serializes the current tally as the machine-readable summary JSON.
[[nodiscard]] std::string summary_json();

// Clears the tally (tests).
void reset_for_testing();

// Live shadow-object accounting, used by the leak tests: every
// registered tile / enqueued transfer increments, retirement or
// materialization decrements, and shadow destruction releases the rest.
// Both must return to zero once all CpeContexts are gone — including
// after sunway.cpe.death adoptions and sunway.dma.fail retries.
[[nodiscard]] std::int64_t live_shadow_tiles();
[[nodiscard]] std::int64_t live_transfers();

namespace detail {
void tiles_add(std::int64_t n);
void transfers_add(std::int64_t n);
}  // namespace detail

// RAII enable/disable for tests; restores the previous state and clears
// the tally on both ends so violations never leak across test cases.
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

}  // namespace swraman::sunway::check
