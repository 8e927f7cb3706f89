// Additional edge-case coverage: unit formatting extremes, thread-pool
// structured parallelism, and logger levels.
#include <gtest/gtest.h>

#include <atomic>

#include "core/log.hpp"
#include "core/stats.hpp"
#include "core/thread_pool.hpp"
#include "core/units.hpp"

namespace dynmo {
namespace {

TEST(UnitsExtra, FormatSecondsExtremes) {
  EXPECT_EQ(format_seconds(1e-9), "1 ns");
  EXPECT_EQ(format_seconds(2.5e-6), "2.5 us");
  EXPECT_EQ(format_seconds(120.0), "120 s");
}

TEST(UnitsExtra, ConstantsConsistent) {
  EXPECT_DOUBLE_EQ(GiB, 1024.0 * 1024.0 * 1024.0);
  EXPECT_DOUBLE_EQ(TFLOPS, 1e12);
  EXPECT_DOUBLE_EQ(ms, 1e-3);
}

TEST(ThreadPoolExtra, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolExtra, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.parallel_for(0, 1, [&](std::size_t lo, std::size_t hi) {
    sum.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPoolExtra, RepeatedUseIsStable) {
  // Regression guard for the completion-synchronization race: hammer the
  // pool with many short parallel_for calls from several caller threads.
  std::vector<std::thread> callers;
  std::atomic<long> total{0};
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&total] {
      for (int round = 0; round < 200; ++round) {
        std::atomic<long> local{0};
        ThreadPool::global().parallel_for(
            0, 64, [&](std::size_t lo, std::size_t hi) {
              local.fetch_add(static_cast<long>(hi - lo));
            });
        total.fetch_add(local.load());
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4L * 200 * 64);
}

TEST(LoggerExtra, LevelsGate) {
  auto& logger = Logger::instance();
  const auto prev = logger.level();
  logger.set_level(LogLevel::Error);
  EXPECT_FALSE(logger.enabled(LogLevel::Info));
  EXPECT_TRUE(logger.enabled(LogLevel::Error));
  logger.set_level(LogLevel::Trace);
  EXPECT_TRUE(logger.enabled(LogLevel::Debug));
  logger.set_level(prev);
}

}  // namespace
}  // namespace dynmo
