#include "parallel/comm.hpp"

#include <atomic>
#include <cmath>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "common/error.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace swraman::parallel {
namespace {

TEST(Spmd, RunsAllRanks) {
  std::atomic<int> count{0};
  run_spmd(7, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 7u);
    EXPECT_LT(comm.rank(), 7u);
    ++count;
  });
  EXPECT_EQ(count.load(), 7);
}

TEST(Spmd, PropagatesExceptions) {
  EXPECT_THROW(run_spmd(3,
                        [](Communicator& comm) {
                          if (comm.rank() == 1) {
                            throw Error("rank 1 failed");
                          }
                        }),
               Error);
}

TEST(HostRanks, CpuQuotaRoundsUpToWholeCores) {
  EXPECT_EQ(cpu_quota_cores("200000 100000"), 2u);
  EXPECT_EQ(cpu_quota_cores("150000 100000"), 2u);
  EXPECT_EQ(cpu_quota_cores("50000 100000"), 1u);
  EXPECT_EQ(cpu_quota_cores("max 100000"), 0u);
  EXPECT_EQ(cpu_quota_cores("-1 100000"), 0u);
  EXPECT_EQ(cpu_quota_cores("100000 0"), 0u);
  EXPECT_EQ(cpu_quota_cores("12x 100000"), 0u);
  EXPECT_EQ(cpu_quota_cores(""), 0u);
}

TEST(HostRanks, AtLeastOneAndNoMoreThanTheHostHas) {
  const std::size_t ranks = host_ranks();
  EXPECT_GE(ranks, 1u);
  EXPECT_LE(ranks, std::max(1u, std::thread::hardware_concurrency()));
}

#ifdef __linux__
TEST(HostRanks, FollowsTheThreadsAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = host_ranks();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}
#endif

TEST(Comm, PointToPoint) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1.0, 2.0, 3.0}, 5);
      const std::vector<double> back = comm.recv(1, 6);
      EXPECT_EQ(back.size(), 1u);
      EXPECT_DOUBLE_EQ(back[0], 42.0);
    } else {
      const std::vector<double> msg = comm.recv(0, 5);
      EXPECT_EQ(msg.size(), 3u);
      EXPECT_DOUBLE_EQ(msg[2], 3.0);
      comm.send(0, {42.0}, 6);
    }
  });
}

TEST(Comm, Broadcast) {
  run_spmd(5, [](Communicator& comm) {
    std::vector<double> data;
    if (comm.rank() == 2) data = {3.5, -1.0};
    comm.broadcast(data, 2);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_DOUBLE_EQ(data[0], 3.5);
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_spmd(6, [&](Communicator& comm) {
    ++before;
    comm.barrier();
    if (before.load() != 6) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

struct AllreduceCase {
  AllreduceAlgorithm algo;
  std::size_t ranks;
  std::size_t n;
};

class AllreduceSweep : public ::testing::TestWithParam<AllreduceCase> {};

TEST_P(AllreduceSweep, MatchesSerialSum) {
  const AllreduceCase c = GetParam();
  // Reference: sum over ranks of deterministic pseudo-random data.
  std::vector<std::vector<double>> inputs(c.ranks);
  std::vector<double> expected(c.n, 0.0);
  for (std::size_t r = 0; r < c.ranks; ++r) {
    std::mt19937 rng(static_cast<unsigned>(97 * r + c.n));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    inputs[r].resize(c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      inputs[r][i] = dist(rng);
      expected[i] += inputs[r][i];
    }
  }
  run_spmd(c.ranks, [&](Communicator& comm) {
    std::vector<double> data = inputs[comm.rank()];
    comm.allreduce(data, c.algo);
    ASSERT_EQ(data.size(), c.n);
    for (std::size_t i = 0; i < c.n; ++i) {
      EXPECT_NEAR(data[i], expected[i], 1e-11)
          << "rank " << comm.rank() << " index " << i;
    }
  });
}

std::vector<AllreduceCase> allreduce_cases() {
  std::vector<AllreduceCase> cases;
  for (AllreduceAlgorithm algo :
       {AllreduceAlgorithm::Linear, AllreduceAlgorithm::Ring,
        AllreduceAlgorithm::RecursiveDoubling,
        AllreduceAlgorithm::ReduceScatterAllgather,
        AllreduceAlgorithm::CpePipelined}) {
    for (std::size_t ranks : {1, 2, 3, 4, 5, 8}) {
      for (std::size_t n : {1, 17, 256, 1000}) {
        cases.push_back({algo, ranks, n});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AllreduceSweep,
                         ::testing::ValuesIn(allreduce_cases()));

TEST(Comm, SplitFormsSubCommunicators) {
  run_spmd(6, [](Communicator& comm) {
    // Two geometry groups of 3 ranks each (paper Fig. 4 level 1).
    const int color = static_cast<int>(comm.rank() / 3);
    Communicator sub = comm.split(color);
    EXPECT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.rank(), comm.rank() % 3);
    // Group-local allreduce: sums stay within the group.
    std::vector<double> data{static_cast<double>(comm.rank())};
    sub.allreduce(data, AllreduceAlgorithm::Ring);
    const double expected = (color == 0) ? 0.0 + 1.0 + 2.0 : 3.0 + 4.0 + 5.0;
    EXPECT_DOUBLE_EQ(data[0], expected);
  });
}

TEST(Comm, SplitSingletonColors) {
  run_spmd(4, [](Communicator& comm) {
    Communicator sub = comm.split(static_cast<int>(comm.rank()));
    EXPECT_EQ(sub.size(), 1u);
    std::vector<double> v{1.0};
    sub.allreduce(v, AllreduceAlgorithm::RecursiveDoubling);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
  });
}

}  // namespace
}  // namespace swraman::parallel
// -- appended coverage: message ordering and repeated collectives.

namespace swraman::parallel {
namespace {

TEST(Comm, SameTagMessagesAreFifo) {
  run_spmd(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, {1.0}, 9);
      comm.send(1, {2.0}, 9);
      comm.send(1, {3.0}, 9);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 1.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 2.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 9)[0], 3.0);
    }
  });
}

TEST(Comm, RepeatedAllreducesStayConsistent) {
  run_spmd(4, [](Communicator& comm) {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> data(64, static_cast<double>(comm.rank() + round));
      comm.allreduce(data, AllreduceAlgorithm::Ring);
      const double expected = 4.0 * round + 6.0;  // sum over ranks 0..3
      EXPECT_DOUBLE_EQ(data[0], expected) << "round " << round;
      EXPECT_DOUBLE_EQ(data[63], expected);
    }
  });
}

TEST(Comm, NestedSplits) {
  run_spmd(8, [](Communicator& comm) {
    Communicator half = comm.split(static_cast<int>(comm.rank() / 4));
    Communicator quarter = half.split(static_cast<int>(half.rank() / 2));
    EXPECT_EQ(quarter.size(), 2u);
    std::vector<double> v{1.0};
    quarter.allreduce(v, AllreduceAlgorithm::Linear);
    EXPECT_DOUBLE_EQ(v[0], 2.0);
  });
}

}  // namespace
}  // namespace swraman::parallel
