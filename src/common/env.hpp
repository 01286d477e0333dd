#pragma once

#include <string>

// Process-environment switches shared by the runtime subsystems that
// configure themselves at static-initialization time (span tracer,
// flight recorder, lockcheck, swcheck), so every binary — bench,
// example, test — picks them up without touching its main().

namespace swraman {

// An environment switch is on when set to anything but "", "0", "off",
// "OFF", "false" or "no". Pass std::getenv(...) directly; null is off.
bool env_truthy(const char* value);

// Checker exit summaries. SWRAMAN_CHECK_FILE is a JSON-lines file shared
// by every runtime checker, one line per checker. The first call
// truncates it (static init, pre-main) and every registered checker
// appends its `summary()` line at process exit; an unset or empty path,
// or "-", sends the lines to stderr instead. `checker` names the
// checker in the error logged when the file cannot be opened.
void write_check_summary_at_exit(const char* checker,
                                 std::string (*summary)());

}  // namespace swraman
