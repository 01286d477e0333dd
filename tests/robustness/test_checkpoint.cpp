#include "raman/checkpoint.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "robustness/fault.hpp"

namespace swraman::raman {
namespace {

std::vector<grid::AtomSite> water() {
  return {{8, {0.0, 0.0, 0.2217}},
          {1, {0.0, 1.4309, -0.8867}},
          {1, {0.0, -1.4309, -0.8867}}};
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// Finished-task records ("geom ..." lines) in a checkpoint file.
std::size_t geom_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("geom ", 0) == 0) ++n;
  }
  return n;
}

GeometryRecord sample_record(double base) {
  GeometryRecord r;
  for (std::size_t i = 0; i < 9; ++i) {
    // Awkward non-representable values exercise the %.17g round-trip.
    r.alpha[i] = base + static_cast<double>(i) / 3.0;
  }
  r.dipole = {base * 0.1, -base * 0.2, base / 7.0};
  return r;
}

TEST(Checkpoint, InactiveByDefault) {
  Checkpoint ckpt;
  EXPECT_FALSE(ckpt.active());
  EXPECT_EQ(ckpt.lookup(0, +1), nullptr);
  ckpt.record(0, +1, sample_record(1.0));  // no-op, no crash
  EXPECT_EQ(ckpt.size(), 0u);
}

TEST(Checkpoint, RoundTripsRecordsAtFullPrecision) {
  const std::string path = temp_path("ckpt_roundtrip.txt");
  std::remove(path.c_str());
  const auto atoms = water();
  {
    Checkpoint ckpt(path, atoms, 0.01);
    EXPECT_TRUE(ckpt.active());
    EXPECT_EQ(ckpt.size(), 0u);
    ckpt.record(0, +1, sample_record(1.0));
    ckpt.record(0, -1, sample_record(-2.0));
    ckpt.record(7, +1, sample_record(0.125));
  }
  Checkpoint resumed(path, atoms, 0.01);
  EXPECT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed.lookup(1, +1), nullptr);
  EXPECT_EQ(resumed.lookup(7, -1), nullptr);
  const GeometryRecord* rec = resumed.lookup(0, -1);
  ASSERT_NE(rec, nullptr);
  const GeometryRecord expect = sample_record(-2.0);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(rec->alpha[i], expect.alpha[i]) << "alpha " << i;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rec->dipole[i], expect.dipole[i]) << "dipole " << i;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsDifferentGeometryOrDisplacement) {
  const std::string path = temp_path("ckpt_mismatch.txt");
  std::remove(path.c_str());
  const auto atoms = water();
  { Checkpoint ckpt(path, atoms, 0.01); }

  // Different displacement step.
  EXPECT_THROW(Checkpoint(path, atoms, 0.02), CheckpointError);
  // Moved atom.
  auto moved = atoms;
  moved[1].pos[2] += 0.1;
  EXPECT_THROW(Checkpoint(path, moved, 0.01), CheckpointError);
  // Different element.
  auto mutated = atoms;
  mutated[0].z = 7;
  EXPECT_THROW(Checkpoint(path, mutated, 0.01), CheckpointError);
  // Different atom count.
  auto fewer = atoms;
  fewer.pop_back();
  EXPECT_THROW(Checkpoint(path, fewer, 0.01), CheckpointError);
  // Original configuration still resumes fine.
  EXPECT_NO_THROW(Checkpoint(path, atoms, 0.01));
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsForeignOrFutureFiles) {
  const std::string path = temp_path("ckpt_foreign.txt");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not a checkpoint at all\n";
  }
  EXPECT_THROW(Checkpoint(path, water(), 0.01), CheckpointError);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "swraman-raman-checkpoint 999\nsystem 9 0.01 0\n";
  }
  EXPECT_THROW(Checkpoint(path, water(), 0.01), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, ToleratesTruncatedTrailingRecord) {
  const std::string path = temp_path("ckpt_truncated.txt");
  std::remove(path.c_str());
  const auto atoms = water();
  {
    Checkpoint ckpt(path, atoms, 0.01);
    ckpt.record(2, +1, sample_record(3.0));
    ckpt.record(2, -1, sample_record(4.0));
  }
  {
    // Simulate a crash mid-append: a half-written record at the tail.
    std::ofstream out(path, std::ios::app);
    out << "geom 3 + 1.5 2.5";
  }
  Checkpoint resumed(path, atoms, 0.01);
  EXPECT_EQ(resumed.size(), 2u);
  EXPECT_NE(resumed.lookup(2, +1), nullptr);
  EXPECT_EQ(resumed.lookup(3, +1), nullptr);  // truncated record dropped
  // Recording over a truncated tail keeps the file parseable.
  resumed.record(3, +1, sample_record(5.0));
  Checkpoint again(path, atoms, 0.01);
  EXPECT_EQ(again.size(), 3u);
  ASSERT_NE(again.lookup(3, +1), nullptr);
  EXPECT_EQ(again.lookup(3, +1)->alpha[0], sample_record(5.0).alpha[0]);
  std::remove(path.c_str());
}

// The checkpointed loop both Raman calculators run their tasks through.
TEST(ReplayOrEvaluate, RetriesTransientErrorThenRecordsAndReplays) {
  fault::ScopedFaults guard;
  const std::string path = temp_path("ckpt_replay_retry.txt");
  std::remove(path.c_str());
  Checkpoint ckpt(path, water(), 0.01);
  int calls = 0;
  const auto flaky = [&](std::size_t) {
    if (++calls == 1) throw TimeoutError("transient");
    return sample_record(3.0);
  };
  const GeometryRecord rec = replay_or_evaluate(ckpt, {{4, -1}}, 2,
                                                fault::kRamanKill, 1, flaky,
                                                nullptr)
                                 .front();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(rec.alpha, sample_record(3.0).alpha);
  ASSERT_NE(ckpt.lookup(4, -1), nullptr);
  // A stored task is replayed without evaluating again.
  const GeometryRecord again = replay_or_evaluate(ckpt, {{4, -1}}, 2,
                                                  fault::kRamanKill, 1, flaky,
                                                  nullptr)
                                   .front();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(again.dipole, rec.dipole);
  std::remove(path.c_str());
}

TEST(ReplayOrEvaluate, RethrowsAfterLastAttemptAndNeverRetriesAKill) {
  fault::ScopedFaults guard;
  Checkpoint ckpt;
  int calls = 0;
  EXPECT_THROW(replay_or_evaluate(ckpt, {{0, +1}}, 2, fault::kRamanKill, 1,
                                  [&](std::size_t) -> GeometryRecord {
                                    ++calls;
                                    throw ConvergenceError("unconverged");
                                  },
                                  nullptr),
               ConvergenceError);
  EXPECT_EQ(calls, 2);
  calls = 0;
  EXPECT_THROW(replay_or_evaluate(ckpt, {{0, +1}}, 3, fault::kRamanKill, 1,
                                  [&](std::size_t) -> GeometryRecord {
                                    ++calls;
                                    throw FaultInjected("killed");
                                  },
                                  nullptr),
               FaultInjected);
  EXPECT_EQ(calls, 1);
}

TEST(ReplayOrEvaluate, KillSiteFiresAfterTheRecordIsDurable) {
  fault::ScopedFaults guard;
  fault::FaultSpec fs;
  fs.fire_at = 1;
  fault::FaultInjector::instance().configure(fault::kBecKill, fs);
  const std::string path = temp_path("ckpt_replay_kill.txt");
  std::remove(path.c_str());
  {
    Checkpoint ckpt(path, water(), 0.01);
    EXPECT_THROW(
        replay_or_evaluate(ckpt, {{2, 0}}, 2, fault::kBecKill, 1,
                           [](std::size_t) { return sample_record(5.0); },
                           nullptr),
        FaultInjected);
  }
  Checkpoint resumed(path, water(), 0.01);
  ASSERT_NE(resumed.lookup(2, 0), nullptr);
  EXPECT_EQ(resumed.lookup(2, 0)->alpha, sample_record(5.0).alpha);
  std::remove(path.c_str());
}

TEST(ReplayOrEvaluate, KillUnderRanksLeavesExactlyKRecordsAndResumesTheRest) {
  // Water's 18 displaced-geometry keys on 2 and 4 ranks. Each task sleeps
  // so peers are still in flight when the kill fires on the 5th commit;
  // none of them may commit after it.
  std::vector<TaskKey> keys;
  for (std::size_t coord = 0; coord < 9; ++coord) {
    keys.emplace_back(coord, +1);
    keys.emplace_back(coord, -1);
  }
  std::atomic<int> calls{0};
  const auto evaluate = [&](std::size_t i) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return sample_record(static_cast<double>(i));
  };
  for (const std::size_t ranks : {2, 4}) {
    SCOPED_TRACE(ranks);
    fault::ScopedFaults guard;
    const std::string path = temp_path("ckpt_replay_ranks_kill.txt");
    std::remove(path.c_str());
    calls = 0;
    {
      fault::FaultSpec fs;
      fs.fire_at = 5;
      fault::FaultInjector::instance().configure(fault::kRamanKill, fs);
      Checkpoint ckpt(path, water(), 0.01);
      int committed = 0;
      EXPECT_THROW(replay_or_evaluate(ckpt, keys, 2, fault::kRamanKill, ranks,
                                      evaluate, &committed),
                   FaultInjected);
      EXPECT_EQ(committed, 5);
      EXPECT_GE(calls.load(), 5);
      fault::reset();
    }
    EXPECT_EQ(geom_lines(path), 5u);

    calls = 0;
    Checkpoint resumed(path, water(), 0.01);
    ASSERT_EQ(resumed.size(), 5u);
    int committed = 0;
    const std::vector<GeometryRecord> records = replay_or_evaluate(
        resumed, keys, 2, fault::kRamanKill, ranks, evaluate, &committed);
    EXPECT_EQ(calls.load(), 13);
    EXPECT_EQ(committed, 13);
    EXPECT_EQ(geom_lines(path), keys.size());
    ASSERT_EQ(records.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(records[i].alpha, sample_record(static_cast<double>(i)).alpha)
          << "task " << i;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace swraman::raman
