#include "common/env.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "common/logging.hpp"

namespace swraman {

bool env_truthy(const char* value) {
  if (value == nullptr || *value == '\0') return false;
  const std::string s(value);
  return s != "0" && s != "off" && s != "false" && s != "OFF" && s != "no";
}

namespace {

struct CheckSummary {
  const char* checker;
  std::string (*summary)();
};

// Leaked: read by the atexit writer after other statics are gone.
std::vector<CheckSummary>& check_summaries() {
  static auto* v = new std::vector<CheckSummary>;
  return *v;
}

// "" or "-" (and unset) mean stderr.
std::string check_file() {
  const char* path = std::getenv("SWRAMAN_CHECK_FILE");
  return path == nullptr || std::string(path) == "-" ? std::string()
                                                     : std::string(path);
}

void write_check_summaries() {
  const std::string path = check_file();
  for (const CheckSummary& c : check_summaries()) {
    const std::string json = c.summary();
    if (path.empty()) {
      std::cerr << json << "\n";
      continue;
    }
    std::ofstream out(path, std::ios::app);
    if (!out) {
      log::error(c.checker, ": cannot open summary file ", path);
      continue;
    }
    out << json << "\n";
  }
}

}  // namespace

void write_check_summary_at_exit(const char* checker,
                                 std::string (*summary)()) {
  std::vector<CheckSummary>& all = check_summaries();
  if (all.empty()) {
    const std::string path = check_file();
    if (!path.empty()) {
      const std::ofstream trunc(path, std::ios::trunc);
    }
    std::atexit(write_check_summaries);
  }
  all.push_back({checker, summary});
}

}  // namespace swraman
