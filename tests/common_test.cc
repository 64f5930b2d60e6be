// Tests for the common substrate: Status/StatusOr, deterministic RNG, string
// helpers, and the TaskPool worker pool (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/task_pool.h"

namespace blackbox {
namespace {

TEST(Status, CodesRoundTrip) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::NotFound("x").code(), Status::Code::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), Status::Code::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), Status::Code::kNotSupported);
  EXPECT_EQ(Status::OutOfRange("x").code(), Status::Code::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), Status::Code::kInternal);
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), Status::Code::kNotFound);
}

TEST(StatusOr, MoveOutValue) {
  StatusOr<std::string> s(std::string("hello"));
  std::string v = std::move(s).value();
  EXPECT_EQ(v, "hello");
}

TEST(ReturnNotOkMacro, PropagatesFailure) {
  auto inner = []() { return Status::InvalidArgument("bad"); };
  auto outer = [&]() -> Status {
    BLACKBOX_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), Status::Code::kInvalidArgument);
}

TEST(Rng, IsDeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
  }
  // Different seed diverges immediately with overwhelming probability.
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
  EXPECT_EQ(rng.Uniform(4, 4), 4);
  EXPECT_EQ(rng.Uniform(9, 2), 9);  // degenerate range clamps to lo
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZipfBoundsAndSkew) {
  Rng rng(19);
  int64_t low_bucket = 0;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.Zipf(100, 1.2);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
    if (v <= 10) ++low_bucket;
  }
  // Skewed: the first decile gets far more than 10% of the mass.
  EXPECT_GT(low_bucket, 2500);
  EXPECT_EQ(rng.Zipf(1, 1.2), 1);
}

TEST(Rng, StringHasRequestedLengthAndAlphabet) {
  Rng rng(23);
  std::string s = rng.String(64);
  EXPECT_EQ(s.size(), 64u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(StrUtil, JoinFormatsWithSeparator) {
  std::vector<int> v = {1, 2, 3};
  EXPECT_EQ(Join(v, ", "), "1, 2, 3");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(StrUtil, SplitPreservesEmptyTokens) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

// --- TaskPool ------------------------------------------------------------

TEST(TaskPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    TaskPool pool(threads);
    for (size_t n : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "pool " << threads << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(TaskPool, SingleThreadPoolRunsInlineInIndexOrder) {
  TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

// Concurrent callers on one pool, the way QueryServer drivers share theirs:
// every call completes and visits each of its indices exactly once.
TEST(TaskPool, ConcurrentCallersEachSeeEveryIndexOnce) {
  TaskPool pool(3);
  constexpr size_t kN = 500;
  constexpr int kCallers = 4;
  constexpr int kRounds = 20;
  std::atomic<int> bad_counts{0};
  std::atomic<int> calls_done{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kN);
        pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) bad_counts.fetch_add(1);
        }
        calls_done.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(calls_done.load(), kCallers * kRounds);
  EXPECT_EQ(bad_counts.load(), 0);
}

// A priority call makes progress while another thread's normal-priority
// call holds the pool's worker: its caller participates, and its helpers
// queue ahead of normal work.
TEST(TaskPool, PriorityCallCompletesWhileANormalCallRuns) {
  TaskPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> normal_done{false};
  std::thread normal([&] {
    pool.ParallelFor(2, [&](size_t) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    });
    normal_done.store(true);
  });
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> visited{0};
  pool.ParallelFor(8, [&](size_t) { visited.fetch_add(1); }, /*priority=*/1);
  EXPECT_EQ(visited.load(), 8);
  EXPECT_FALSE(normal_done.load());

  release.store(true);
  normal.join();
  EXPECT_TRUE(normal_done.load());
}

}  // namespace
}  // namespace blackbox
