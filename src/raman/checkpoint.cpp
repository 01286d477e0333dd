#include "raman/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/obs.hpp"
#include "parallel/comm.hpp"
#include "raman/bec.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {

namespace {

// Geometry fingerprint: FNV-1a over the exact bit patterns of every
// element number and coordinate, so a checkpoint can never be resumed
// against a different molecule (or the same molecule moved).
std::uint64_t fingerprint(const std::vector<grid::AtomSite>& atoms,
                          double displacement) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(&displacement, sizeof(displacement));
  for (const grid::AtomSite& a : atoms) {
    mix(&a.z, sizeof(a.z));
    for (int k = 0; k < 3; ++k) {
      const double x = a.pos[k];
      mix(&x, sizeof(x));
    }
  }
  return h;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Checkpoint::Checkpoint(std::string path,
                       const std::vector<grid::AtomSite>& atoms,
                       double displacement)
    : path_(std::move(path)) {
  SWRAMAN_REQUIRE(!path_.empty(), "Checkpoint: empty path");
  const std::size_t n_coords = 3 * atoms.size();
  const std::uint64_t fp = fingerprint(atoms, displacement);

  std::ifstream in(path_);
  if (in) {
    // Validate header lines; any mismatch means the file belongs to a
    // different run configuration and must not be mixed in.
    std::string tag;
    int version = 0;
    if (!(in >> tag >> version) || tag != "swraman-raman-checkpoint") {
      throw CheckpointError("Checkpoint: " + path_ +
                            " is not a swraman checkpoint file");
    }
    if (version != kVersion) {
      throw CheckpointError("Checkpoint: " + path_ + " has version " +
                            std::to_string(version) + ", expected " +
                            std::to_string(kVersion));
    }
    std::size_t file_coords = 0;
    double file_disp = 0.0;
    std::string fp_hex;
    if (!(in >> tag >> file_coords >> file_disp >> fp_hex) ||
        tag != "system") {
      throw CheckpointError("Checkpoint: " + path_ +
                            " has a malformed system header");
    }
    std::uint64_t file_fp = 0;
    std::sscanf(fp_hex.c_str(), "%" SCNx64, &file_fp);
    if (file_coords != n_coords || file_fp != fp) {
      throw CheckpointError(
          "Checkpoint: " + path_ +
          " was written for a different geometry or displacement (" +
          std::to_string(file_coords) + " coords vs " +
          std::to_string(n_coords) + " expected)");
    }
    // Load finished geometry records. A truncated trailing line — the
    // crash signature checkpointing exists to survive — ends the parse;
    // everything before it is intact because records are flushed whole.
    bool truncated = false;
    std::string line;
    std::getline(in, line);  // consume remainder of the header line
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream rec(line);
      std::size_t coord = 0;
      std::string kind;
      char sign_ch = 0;
      GeometryRecord r;
      bool ok = static_cast<bool>(rec >> kind >> coord >> sign_ch) &&
                kind == "geom" &&
                (sign_ch == '+' || sign_ch == '-' || sign_ch == '0') &&
                (sign_ch == '0' ? coord < kMaxFieldRecords : coord < n_coords);
      for (double& v : r.alpha) ok = ok && static_cast<bool>(rec >> v);
      for (double& v : r.dipole) ok = ok && static_cast<bool>(rec >> v);
      // Optional forces tail: "f <n> <values...>" (bec field records).
      std::string tail;
      if (ok && (rec >> tail)) {
        std::size_t n_f = 0;
        ok = tail == "f" && static_cast<bool>(rec >> n_f) && n_f <= n_coords;
        if (ok) {
          r.forces.resize(n_f);
          for (double& v : r.forces) ok = ok && static_cast<bool>(rec >> v);
        }
      }
      if (!ok) {
        log::warn("checkpoint: dropping truncated record in ", path_,
                  " (\"", line.substr(0, 40), "\")");
        truncated = true;
        break;
      }
      records_[{coord, sign_ch == '+' ? +1 : (sign_ch == '-' ? -1 : 0)}] =
          std::move(r);
    }
    in.close();
    if (truncated) {
      // Compact the file so later appends never land on a partial line.
      write_header(n_coords, displacement, fp);
      for (const auto& [key, r] : records_) append_record(key, r);
    }
    // Field records (sign 0) count against the field stencil, displaced
    // geometries against the 2 n_coords of the central differences.
    std::size_t n_fields = 0;
    for (const auto& entry : records_) {
      if (entry.first.second == 0) ++n_fields;
    }
    const std::size_t n_geoms = records_.size() - n_fields;
    std::ostringstream progress;
    if (n_geoms > 0 || n_fields == 0) {
      progress << n_geoms << " of " << 2 * n_coords << " geometries";
    }
    if (n_fields > 0) {
      if (n_geoms > 0) progress << " and ";
      progress << n_fields << " of " << n_field_points() << " field points";
    }
    log::info("checkpoint: resuming from ", path_, " with ", progress.str(),
              " finished");
    return;
  }

  // Fresh run: write the header now so even a crash before the first
  // geometry leaves a well-formed (empty) checkpoint.
  write_header(n_coords, displacement, fp);
}

void Checkpoint::write_header(std::size_t n_coords, double displacement,
                              std::uint64_t fp) const {
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw CheckpointError("Checkpoint: cannot create " + path_);
  }
  char fp_hex[24];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016" PRIx64, fp);
  out << "swraman-raman-checkpoint " << kVersion << "\n"
      << "system " << n_coords << " " << format_double(displacement) << " "
      << fp_hex << "\n";
  out.flush();
  if (!out) {
    throw CheckpointError("Checkpoint: write to " + path_ + " failed");
  }
}

void Checkpoint::append_record(const std::pair<std::size_t, int>& key,
                               const GeometryRecord& rec) const {
  std::ofstream out(path_, std::ios::app);
  if (!out) {
    throw CheckpointError("Checkpoint: cannot append to " + path_);
  }
  std::ostringstream line;
  line << "geom " << key.first << " "
       << (key.second > 0 ? '+' : (key.second < 0 ? '-' : '0'));
  for (const double v : rec.alpha) line << " " << format_double(v);
  for (const double v : rec.dipole) line << " " << format_double(v);
  if (!rec.forces.empty()) {
    line << " f " << rec.forces.size();
    for (const double v : rec.forces) line << " " << format_double(v);
  }
  line << "\n";
  const std::string text = line.str();
  out << text;
  out.flush();
  if (!out) {
    throw CheckpointError("Checkpoint: write to " + path_ + " failed");
  }
  obs::count("checkpoint.bytes_written", static_cast<double>(text.size()));
  obs::instant("checkpoint.write", "bytes", static_cast<double>(text.size()));
}

const GeometryRecord* Checkpoint::lookup(std::size_t coord,
                                         int sign) const {
  const auto it = records_.find({coord, sign});
  return it == records_.end() ? nullptr : &it->second;
}

void Checkpoint::record(std::size_t coord, int sign,
                        const GeometryRecord& rec) {
  if (!active()) return;
  records_[{coord, sign}] = rec;
  append_record({coord, sign}, rec);
}

std::vector<GeometryRecord> replay_or_evaluate(
    Checkpoint& ckpt, const std::vector<TaskKey>& keys, int attempts,
    const char* kill_site, std::size_t n_ranks,
    const std::function<GeometryRecord(std::size_t)>& evaluate,
    int* committed,
    const std::function<void(std::size_t, GeometryRecord&)>& finish) {
  std::vector<GeometryRecord> records(keys.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (const GeometryRecord* stored =
            ckpt.lookup(keys[i].first, keys[i].second)) {
      obs::count("checkpoint.hits");
      records[i] = *stored;
    } else {
      obs::count("checkpoint.misses");
      misses.push_back(i);
    }
  }
  attempts = std::max(1, attempts);

  std::mutex commit_mutex;
  bool stopped = false;  // a task failed or the kill fired; commits end
  const auto stop = [&] {
    const std::scoped_lock lock(commit_mutex);
    stopped = true;
  };
  const auto commit = [&](std::size_t i) {
    const std::scoped_lock lock(commit_mutex);
    if (stopped) return;
    try {
      ckpt.record(keys[i].first, keys[i].second, records[i]);
      if (committed != nullptr) ++*committed;
      if (fault::should_fire(kill_site)) fault::FaultInjector::raise(kill_site);
    } catch (...) {
      stopped = true;  // before the lock is released to a peer's commit
      throw;
    }
  };
  const auto evaluate_with_retry = [&](std::size_t i) {
    for (int attempt = 1;; ++attempt) {
      try {
        return evaluate(i);
      } catch (const FaultInjected&) {
        throw;  // a simulated hard failure (process kill) must propagate
      } catch (const Error& e) {
        if (attempt >= attempts) throw;
        log::warn("raman: task (", keys[i].first, ", ", keys[i].second,
                  ") failed on attempt ", attempt, "/", attempts, " (",
                  e.what(), ") — retrying");
      }
    }
  };
  parallel::for_each_point(misses.size(), n_ranks, [&](std::size_t m) {
    const std::size_t i = misses[m];
    try {
      records[i] = evaluate_with_retry(i);
    } catch (...) {
      stop();
      throw;
    }
    if (!finish) commit(i);
  });
  if (finish) {
    for (const std::size_t i : misses) {
      finish(i, records[i]);
      commit(i);
    }
  }
  return records;
}

}  // namespace swraman::raman
