#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace swraman::obs::flight {

namespace detail {
std::atomic<bool> g_flight_enabled{false};
}  // namespace detail

namespace {

// One ring slot. Payload fields are relaxed atomics and the slot seq is a
// seqlock: odd while the owner thread is writing, bumped to even when the
// record is stable. Readers that observe a torn write (odd or changed seq)
// skip the slot — no lock is ever taken on the record path.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ordinal{0};  // per-thread record number, from 1
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<std::uint64_t> tag[3]{};    // kTagBytes packed little-endian
  std::atomic<double> a{0.0};
  std::atomic<double> b{0.0};
};

struct Ring {
  std::uint32_t tid = 0;
  std::atomic<std::uint64_t> head{0};  // records ever written
  Slot slots[kRingSlots];
};

struct GlobalState {
  std::mutex mutex;                  // ring list + dump bookkeeping
  std::vector<Ring*> rings;          // leaked (dead threads keep their tail)
  std::string dump_dir_override;
  bool dump_dir_overridden = false;
  std::uint64_t dump_count = 0;
  std::string last_dump_path;
  std::map<std::string, double> counter_baseline;
};

GlobalState& state() {
  static GlobalState* s = new GlobalState;
  return *s;
}

Ring& ring() {
  thread_local Ring* r = [] {
    auto* fresh = new Ring;
    fresh->tid = thread_id();
    GlobalState& s = state();
    const std::scoped_lock lock(s.mutex);
    s.rings.push_back(fresh);
    return fresh;
  }();
  return *r;
}

void pack_tag(const char* tag, std::uint64_t out[3]) {
  char buf[kTagBytes] = {};
  std::snprintf(buf, sizeof(buf), "%s", tag == nullptr ? "" : tag);
  for (std::size_t i = 0; i < 3; ++i) out[i] = 0;
  for (std::size_t i = 0; i < kTagBytes; ++i) {
    out[i / 8] |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(buf[i]))
                  << (8 * (i % 8));
  }
}

std::string unpack_tag(const std::uint64_t in[3]) {
  std::string out;
  for (std::size_t i = 0; i < kTagBytes; ++i) {
    const char c =
        static_cast<char>((in[i / 8] >> (8 * (i % 8))) & 0xffu);
    if (c == '\0') break;
    out += c;
  }
  return out;
}

std::string sanitize(const std::string& reason) {
  std::string out;
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("unknown") : out;
}

struct EnvInit {
  EnvInit() {
    state();
    if (env_truthy(std::getenv("SWRAMAN_FLIGHT"))) set_enabled(true);
  }
};
const EnvInit g_env_init;

}  // namespace

void set_enabled(bool on) {
  detail::g_flight_enabled.store(on, std::memory_order_relaxed);
}

void record(const char* tag, double a, double b) {
  if (!enabled()) return;
  Ring& r = ring();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  Slot& s = r.slots[h % kRingSlots];
  const std::uint64_t q = s.seq.load(std::memory_order_relaxed);
  s.seq.store(q + 1, std::memory_order_relaxed);  // odd: write in flight
  std::atomic_thread_fence(std::memory_order_release);
  std::uint64_t packed[3];
  pack_tag(tag, packed);
  s.ordinal.store(h + 1, std::memory_order_relaxed);
  s.t_ns.store(now_ns(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < 3; ++i) {
    s.tag[i].store(packed[i], std::memory_order_relaxed);
  }
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.seq.store(q + 2, std::memory_order_release);  // even: stable
  r.head.store(h + 1, std::memory_order_release);
}

std::vector<Event> snapshot() {
  GlobalState& g = state();
  std::vector<Ring*> rings;
  {
    const std::scoped_lock lock(g.mutex);
    rings = g.rings;
  }
  std::vector<Event> out;
  for (Ring* r : rings) {
    for (Slot& s : r->slots) {
      const std::uint64_t q1 = s.seq.load(std::memory_order_acquire);
      if ((q1 & 1) != 0) continue;  // torn: writer mid-flight
      Event e;
      e.seq = s.ordinal.load(std::memory_order_relaxed);
      e.t_ns = s.t_ns.load(std::memory_order_relaxed);
      std::uint64_t packed[3];
      for (std::size_t i = 0; i < 3; ++i) {
        packed[i] = s.tag[i].load(std::memory_order_relaxed);
      }
      e.a = s.a.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t q2 = s.seq.load(std::memory_order_relaxed);
      if (q1 != q2 || e.seq == 0) continue;  // torn or never written
      e.tid = r->tid;
      e.tag = unpack_tag(packed);
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.seq < b.seq;
  });
  return out;
}

std::string dump(const std::string& reason) {
  if (!enabled()) return {};
  const std::vector<Event> events = snapshot();
  const auto counters = Registry::instance().counter_values();

  GlobalState& g = state();
  const std::scoped_lock lock(g.mutex);
  std::string dir;
  if (g.dump_dir_overridden) {
    dir = g.dump_dir_override;
  } else if (const char* v = std::getenv("SWRAMAN_FLIGHT_DIR")) {
    dir = v;
  }
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "flight-" + sanitize(reason) + ".json";

  std::string out;
  out.reserve(events.size() * 96 + 512);
  out += "{\n  \"schema\": \"swraman-flight-v1\",\n";
  out += "  \"generated\": \"" + json_escape(log::timestamp_utc_now()) +
         "\",\n";
  out += "  \"reason\": \"" + json_escape(reason) + "\",\n";
  out += "  \"dump_seq\": " + std::to_string(g.dump_count + 1) + ",\n";
  out += "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out += "    {\"t_ns\": " + std::to_string(e.t_ns) +
           ", \"tid\": " + std::to_string(e.tid) +
           ", \"seq\": " + std::to_string(e.seq) + ", \"tag\": \"" +
           json_escape(e.tag) + "\", \"a\": " + json_num(e.a) +
           ", \"b\": " + json_num(e.b) + '}';
    out += (i + 1 < events.size()) ? ",\n" : "\n";
  }
  out += "  ],\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ", ";
    first = false;
    const auto prev = g.counter_baseline.find(name);
    const double delta =
        v - (prev == g.counter_baseline.end() ? 0.0 : prev->second);
    out += '"' + json_escape(name) + "\": {\"value\": " + json_num(v) +
           ", \"delta\": " + json_num(delta) + '}';
  }
  out += "}\n}\n";

  if (!write_text_file(path, out)) return {};
  g.counter_baseline = counters;
  ++g.dump_count;
  g.last_dump_path = path;
  return path;
}

void set_dump_dir(const std::string& dir) {
  GlobalState& g = state();
  const std::scoped_lock lock(g.mutex);
  g.dump_dir_override = dir;
  g.dump_dir_overridden = true;
}

std::uint64_t dump_count() {
  GlobalState& g = state();
  const std::scoped_lock lock(g.mutex);
  return g.dump_count;
}

std::string last_dump_path() {
  GlobalState& g = state();
  const std::scoped_lock lock(g.mutex);
  return g.last_dump_path;
}

void reset_for_testing() {
  GlobalState& g = state();
  const std::scoped_lock lock(g.mutex);
  for (Ring* r : g.rings) {
    r->head.store(0, std::memory_order_relaxed);
    for (Slot& s : r->slots) {
      s.ordinal.store(0, std::memory_order_relaxed);
      s.seq.store(0, std::memory_order_relaxed);
    }
  }
  g.dump_count = 0;
  g.last_dump_path.clear();
  g.counter_baseline.clear();
}

}  // namespace swraman::obs::flight
