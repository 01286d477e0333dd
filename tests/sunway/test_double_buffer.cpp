#include "sunway/double_buffer.hpp"

#include <random>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sunway/check/check.hpp"

namespace swraman::sunway {
namespace {

struct PipelineCase {
  std::size_t count;
  std::size_t ldm_doubles;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineSweep, MatchesSerialReduction) {
  const PipelineCase c = GetParam();
  std::mt19937 rng(static_cast<unsigned>(c.count));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> dst(c.count);
  std::vector<double> src(c.count);
  std::vector<double> expected(c.count);
  for (std::size_t i = 0; i < c.count; ++i) {
    dst[i] = dist(rng);
    src[i] = dist(rng);
    expected[i] = dst[i] + src[i];
  }
  CpeContext ctx(0, 64, sw26010pro());
  const std::size_t stages = reduce_local_pipelined(
      ctx, dst.data(), src.data(), c.count, c.ldm_doubles);
  EXPECT_GE(stages, 1u);
  for (std::size_t i = 0; i < c.count; ++i) {
    EXPECT_DOUBLE_EQ(dst[i], expected[i]) << "index " << i;
  }
  // The pipeline moved roughly 3x the payload (two reads + one write).
  const double bytes = ctx.counters().dma_bytes;
  EXPECT_GT(bytes, 2.9 * static_cast<double>(c.count) * sizeof(double));
  EXPECT_LT(bytes, 3.6 * static_cast<double>(c.count) * sizeof(double) +
                       4.0 * static_cast<double>(c.ldm_doubles) * 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(PipelineCase{10000, 4096}, PipelineCase{4096, 4096},
                      PipelineCase{4097, 4096}, PipelineCase{1023, 4096},
                      PipelineCase{100, 4096}, PipelineCase{3, 16},
                      PipelineCase{65536, 8192}));

TEST(Pipeline, CustomCombineOp) {
  std::vector<double> dst{1.0, 2.0, 3.0, 4.0};
  std::vector<double> src{5.0, 6.0, 7.0, 8.0};
  CpeContext ctx(0, 64, sw26010pro());
  reduce_local_pipelined(ctx, dst.data(), src.data(), 4, 16,
                         [](double* d, const double* s, std::size_t n) {
                           for (std::size_t i = 0; i < n; ++i) {
                             d[i] = std::max(d[i], s[i]);
                           }
                         });
  EXPECT_DOUBLE_EQ(dst[0], 5.0);
  EXPECT_DOUBLE_EQ(dst[3], 8.0);
}

TEST(Pipeline, RespectsLdmCapacity) {
  std::vector<double> dst(100, 0.0);
  std::vector<double> src(100, 1.0);
  CpeContext ctx(0, 64, sw26010pro());
  // 4 x 16384 doubles = 512 KB exceeds the 256 KB scratchpad.
  EXPECT_THROW(
      reduce_local_pipelined(ctx, dst.data(), src.data(), 100, 65536),
      Error);
  EXPECT_THROW(
      reduce_local_pipelined(ctx, dst.data(), src.data(), 100, 4), Error);
}

TEST(Pipeline, ReplyWordProtocol) {
  CpeContext ctx(0, 64, sw26010pro());
  ReplyWord reply;
  std::vector<double> host(8, 1.0);
  ctx.ldm().reset();
  double* tile = ctx.ldm().allocate<double>(8);
  dma_get_async(ctx, tile, host.data(), 8, reply);
  if (check::enabled()) {
    // Checked mode (SWRAMAN_CHECK=1) genuinely defers: the reply word
    // advances when dma_wait materializes the transfer, and a wait that
    // exceeds the issued count is an unreachable-wait violation.
    EXPECT_EQ(reply.value, 0);
    EXPECT_NO_THROW(dma_wait(reply, 1));
    EXPECT_EQ(reply.value, 1);
    {
      // The seeded unreachable wait is cleared from the tally on scope
      // exit, because a checked run of this suite is asserted
      // violation-free. ScopedChecking also clears on entry, so first
      // make sure nothing earlier in the process violated.
      EXPECT_EQ(check::total_violations(), 0u);
      check::ScopedChecking seeded;
      EXPECT_THROW(dma_wait(reply, 2), Error);
    }
    dma_put_async(ctx, tile, host.data(), 8, reply);
    EXPECT_NO_THROW(dma_wait(reply, 2));
    EXPECT_EQ(reply.value, 2);
  } else {
    EXPECT_EQ(reply.value, 1);
    EXPECT_NO_THROW(dma_wait(reply, 1));
    EXPECT_THROW(dma_wait(reply, 2), Error);
    dma_put_async(ctx, tile, host.data(), 8, reply);
    EXPECT_EQ(reply.value, 2);
  }
}

}  // namespace
}  // namespace swraman::sunway
