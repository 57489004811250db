#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nanocost/exec/parallel.hpp"
#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/seed.hpp"
#include "nanocost/exec/thread_pool.hpp"
#include "nanocost/obs/metrics.hpp"

namespace nanocost::exec {
namespace {

TEST(SeedSequence, IsDeterministic) {
  EXPECT_EQ(SeedSequence::for_task(42, 0), SeedSequence::for_task(42, 0));
  EXPECT_EQ(SeedSequence{42}.derive(17), SeedSequence::for_task(42, 17));
}

TEST(SeedSequence, NearbyTasksAndBasesGetDistinctSeeds) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (std::uint64_t task = 0; task < 1000; ++task) {
      seen.insert(SeedSequence::for_task(base, task));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 1000u);
}

TEST(SeedSequence, MatchesSplitmix64Stream) {
  // for_task(base, i) is random access into the splitmix64 stream.
  constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
  std::uint64_t state = 123;
  for (std::uint64_t i = 0; i < 8; ++i) {
    state += kGamma;
    EXPECT_EQ(SeedSequence::for_task(123, i), splitmix64(state));
  }
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  EXPECT_GE(ThreadPool::global().thread_count(), 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.run_tasks(n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  pool.run_tasks(0, [](std::int64_t) { FAIL() << "task ran"; });
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.run_tasks(64,
                                [](std::int64_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
  }
}

TEST(ThreadPool, PropagatesTheLowestIndexException) {
  // Several tasks throw; the rethrown exception must be the one of the
  // lowest-index thrower -- a deterministic choice for any thread count
  // and any schedule.
  const std::vector<std::int64_t> throwers{71, 23, 58, 90};
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 8; ++repeat) {
      try {
        pool.run_tasks(128, [&](std::int64_t i) {
          for (const std::int64_t t : throwers) {
            if (i == t) throw std::runtime_error("task " + std::to_string(i));
          }
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 23") << "threads " << threads;
      }
    }
  }
}

TEST(ThreadPool, StaysUsableAfterAnException) {
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.run_tasks(64,
                                [](std::int64_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The failed batch must not wedge the pool: the next batch runs
    // every task exactly once.
    const std::int64_t n = 256;
    std::vector<std::atomic<int>> hits(n);
    pool.run_tasks(n, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesTheLowestChunkException) {
  // A worker failing mid-range surfaces the lowest-begin chunk's
  // exception through parallel_for, for any thread count.
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    try {
      parallel_for(&pool, 1000, 32, [](std::int64_t begin, std::int64_t) {
        if (begin >= 320) throw std::runtime_error("chunk " + std::to_string(begin));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 320") << "threads " << threads;
    }
  }
}

TEST(ParallelReduce, PropagatesWorkerExceptionsAndStaysUsable) {
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    EXPECT_THROW(parallel_reduce(
                     &pool, 500, 25, [] { return 0; },
                     [](std::int64_t begin, std::int64_t, int&) {
                       if (begin >= 100) throw std::runtime_error("reduce boom");
                     },
                     [](int) {}),
                 std::runtime_error);
    // The same pool still reduces correctly afterwards.
    std::int64_t total = 0;
    parallel_reduce(
        &pool, 100, 10, [] { return std::int64_t{0}; },
        [](std::int64_t begin, std::int64_t end, std::int64_t& acc) {
          for (std::int64_t i = begin; i < end; ++i) acc += i;
        },
        [&](std::int64_t acc) { total += acc; });
    EXPECT_EQ(total, 99 * 100 / 2);
  }
}

TEST(ThreadPool, NestedRegionsRunInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.run_tasks(8, [&](std::int64_t outer) {
    // Nested parallel region on the same pool must not deadlock.
    pool.run_tasks(8, [&](std::int64_t inner) {
      hits[static_cast<std::size_t>(outer * 8 + inner)]++;
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CoversTheRangeInChunks) {
  for (const int threads : {1, 3}) {
    ThreadPool pool(threads);
    const std::int64_t n = 1037;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(&pool, n, 64, [&](std::int64_t begin, std::int64_t end) {
      ASSERT_LT(begin, end);
      ASSERT_LE(end - begin, 64);
      for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ValidatesGrain) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(&pool, 10, 0, [](std::int64_t, std::int64_t) {}),
               std::invalid_argument);
}

TEST(ParallelReduce, MergesInChunkOrderForAnyThreadCount) {
  // The merge sequence must be the ascending chunk order, regardless of
  // which threads ran the chunks.
  const std::int64_t n = 999;
  const std::int64_t grain = 10;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::int64_t> merge_order;
    parallel_reduce(
        &pool, n, grain, [] { return std::int64_t{-1}; },
        [&](std::int64_t begin, std::int64_t, std::int64_t& chunk_id) {
          chunk_id = begin / grain;
        },
        [&](std::int64_t chunk_id) { merge_order.push_back(chunk_id); });
    ASSERT_EQ(merge_order.size(), static_cast<std::size_t>(chunk_count(n, grain)));
    for (std::size_t c = 0; c < merge_order.size(); ++c) {
      EXPECT_EQ(merge_order[c], static_cast<std::int64_t>(c));
    }
  }
}

TEST(ParallelReduce, SumsMatchSerial) {
  const std::int64_t n = 12345;
  std::int64_t expected = 0;
  for (std::int64_t i = 0; i < n; ++i) expected += i * i;
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::int64_t total = 0;
    parallel_reduce(
        &pool, n, 100, [] { return std::int64_t{0}; },
        [](std::int64_t begin, std::int64_t end, std::int64_t& acc) {
          for (std::int64_t i = begin; i < end; ++i) acc += i * i;
        },
        [&](std::int64_t acc) { total += acc; });
    EXPECT_EQ(total, expected);
  }
}

TEST(ChunkCount, RoundsUp) {
  EXPECT_EQ(chunk_count(0, 4), 0);
  EXPECT_EQ(chunk_count(1, 4), 1);
  EXPECT_EQ(chunk_count(4, 4), 1);
  EXPECT_EQ(chunk_count(5, 4), 2);
  EXPECT_EQ(chunk_count(1000, 1), 1000);
}

TEST(ThreadPoolCancel, ExceptionWinsOverCancellation) {
  // Regression: a chunk that trips the cancel token and *then* throws
  // must still surface its exception -- deterministically the
  // lowest-index thrower -- not be silently swallowed by the
  // cancellation path.
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 8; ++repeat) {
      const robust::CancelToken token = robust::CancelToken::manual();
      try {
        (void)parallel_for(
            &pool, 256, 1,
            [&](std::int64_t begin, std::int64_t) {
              if (begin == 0) token.cancel();
              throw std::runtime_error("task " + std::to_string(begin));
            },
            token);
        // Legal only if the token tripped before any chunk started
        // throwing -- impossible here: chunk 0 throws unconditionally
        // and polls the token before it runs, when it is still live.
        FAIL() << "expected an exception (threads " << threads << ")";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 0") << "threads " << threads;
      }
    }
  }
}

TEST(ParallelForCancellable, InvalidTokenRunsEverything) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  const LoopStatus status = parallel_for(
      &pool, 1000, 32,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
      },
      robust::CancelToken{});
  EXPECT_TRUE(status.complete());
  EXPECT_FALSE(status.cancelled);
  EXPECT_EQ(status.total_chunks, chunk_count(1000, 32));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForCancellable, FrontierIsTheFirstIncompleteChunk) {
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    robust::CancelToken token = robust::CancelToken::manual();
    const LoopStatus status = parallel_for(
        &pool, 640, 8,
        [&](std::int64_t begin, std::int64_t) {
          if (begin >= 160) token.cancel();  // chunk 20 onward trips it
        },
        token);
    EXPECT_TRUE(status.cancelled) << "threads " << threads;
    EXPECT_FALSE(status.complete());
    EXPECT_GE(status.frontier, 0);
    EXPECT_LT(status.frontier, status.total_chunks);
  }
}

TEST(ParallelForCancellable, ALoopThatFinishesEveryChunkIsNotCancelled) {
  // The last chunk trips the token while it runs: every chunk still
  // completed, so the loop is complete, not cancelled, and no cancelled
  // loop is counted.
  obs::set_metrics_enabled(true);
  const std::uint64_t loops_before = obs::counter_value("robust.cancelled_loops");
  ThreadPool pool(1);
  robust::CancelToken token = robust::CancelToken::manual();
  const LoopStatus status = parallel_for(
      &pool, 64, 8,
      [&](std::int64_t begin, std::int64_t) {
        if (begin == 56) token.cancel();
      },
      token);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(status.total_chunks, 8);
  EXPECT_EQ(status.frontier, 8);
  EXPECT_TRUE(status.complete());
  EXPECT_FALSE(status.cancelled);
  EXPECT_EQ(obs::counter_value("robust.cancelled_loops"), loops_before);
  obs::set_metrics_enabled(false);
}

TEST(ParallelFor, ExecCountersFollowTheLoopShape) {
  // BENCH_perf.json's obs blocks and the trace smoke read these: a
  // tokenless single chunk runs on the caller without a pool batch,
  // anything else is one batch of one task per chunk.
  obs::set_metrics_enabled(true);
  ThreadPool pool(4);
  struct Counts {
    std::uint64_t batches, tasks, chunks;
    bool operator==(const Counts&) const = default;
  };
  const auto counts = [] {
    return Counts{obs::counter_value("exec.batches"), obs::counter_value("exec.tasks"),
                  obs::counter_value("exec.chunks")};
  };
  const auto delta = [&](std::int64_t n, const robust::CancelToken& token) {
    const Counts before = counts();
    parallel_for(&pool, n, 8, [](std::int64_t, std::int64_t) {}, token);
    const Counts after = counts();
    return Counts{after.batches - before.batches, after.tasks - before.tasks,
                  after.chunks - before.chunks};
  };
  const robust::CancelToken none;
  const robust::CancelToken manual = robust::CancelToken::manual();
  EXPECT_EQ(delta(8, none), (Counts{0, 0, 1}));
  EXPECT_EQ(delta(8, manual), (Counts{1, 1, 1}));
  EXPECT_EQ(delta(64, none), (Counts{1, 8, 8}));
  EXPECT_EQ(delta(64, manual), (Counts{1, 8, 8}));
  obs::set_metrics_enabled(false);
}

TEST(ParallelReduceCancellable, MergesOnlyBelowTheFrontierInOrder) {
  // Chunks past the trip point may complete out of order on other lanes;
  // none of them may leak into the merged result.
  const int hw = ThreadPool::default_thread_count();
  for (const int threads : {1, 2, hw}) {
    ThreadPool pool(threads);
    robust::CancelToken token = robust::CancelToken::manual();
    std::vector<std::int64_t> merged;
    const LoopStatus status = parallel_reduce(
        &pool, 320, 8, [] { return std::int64_t{-1}; },
        [&](std::int64_t begin, std::int64_t, std::int64_t& acc) {
          acc = begin / 8;
          if (begin >= 80) token.cancel();
        },
        [&](std::int64_t&& acc) { merged.push_back(acc); }, token);
    EXPECT_EQ(static_cast<std::int64_t>(merged.size()), status.frontier)
        << "threads " << threads;
    for (std::size_t k = 0; k < merged.size(); ++k) {
      EXPECT_EQ(merged[k], static_cast<std::int64_t>(k)) << "threads " << threads;
    }
  }
}

TEST(GammaDraw, GoldenBitsPinTheStream) {
  // The first four draws at a shape below the boost threshold and one
  // above it, as IEEE bit patterns.  A failing golden means the stream
  // changed, which needs a cache::kKeySchemaVersion bump, not a new
  // golden.
  const auto first_four = [](double shape) {
    SplitMix64 rng(7);
    std::vector<std::uint64_t> bits;
    for (int i = 0; i < 4; ++i) {
      bits.push_back(std::bit_cast<std::uint64_t>(gamma_draw(rng, shape)));
    }
    return bits;
  };
  // 1.13812, 0.12610, 0.11260, 0.45189
  EXPECT_EQ(first_four(0.5),
            (std::vector<std::uint64_t>{0x3FF235BC0C1B1DDBULL, 0x3FC023F3544510E6ULL,
                                        0x3FBCD306B5B35C39ULL, 0x3FDCEBC653ECD38EULL}));
  // 4.12290, 0.68538, 1.02385, 3.43953
  EXPECT_EQ(first_four(2.0),
            (std::vector<std::uint64_t>{0x40107DD8367E036FULL, 0x3FE5EEA1F00EB43CULL,
                                        0x3FF061B45DC477F8ULL, 0x400B8427A3B9B34AULL}));
}

TEST(GammaDraw, MomentsMatchTheShape) {
  // Gamma(shape, 1) has mean and variance both equal to the shape.
  const int n = 200000;
  for (const double shape : {0.5, 1.0, 1.5, 2.0, 8.0}) {
    SplitMix64 rng(99);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
      const double g = gamma_draw(rng, shape);
      sum += g;
      sum_sq += g * g;
    }
    const double mean = sum / n;
    const double variance = (sum_sq - n * mean * mean) / (n - 1);
    EXPECT_NEAR(mean, shape, 0.02 * shape) << "shape " << shape;
    EXPECT_NEAR(variance, shape, 0.05 * shape) << "shape " << shape;
  }
}

TEST(ThreadCountEnv, MalformedValuePrintsOneDiagnosticAndUsesTheHardware) {
  // The variable is read once per process, so each value runs in a fresh
  // one: two pools and a direct call must print exactly one line.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const std::string value : {"4x", "abc", "0", "-2"}) {
    EXPECT_EXIT(
        {
          ::setenv("NANOCOST_THREADS", value.c_str(), 1);
          const bool hardware = ThreadPool(0).thread_count() == hw &&
                                ThreadPool(0).thread_count() == hw &&
                                ThreadPool::default_thread_count() == hw;
          std::fprintf(stderr, "end\n");
          std::exit(hardware ? 0 : 1);
        },
        ::testing::ExitedWithCode(0),
        "^nanocost: NANOCOST_THREADS='" + value +
            "' is not a positive thread count; using the hardware's [0-9]+\nend\n$");
  }
  // Values that parsed before still do, silently; past 1024 clamps.
  for (const auto& [value, lanes] : {std::pair<std::string, int>{"1", 1}, {"97", 97},
                                     {"5000", 1024}}) {
    EXPECT_EXIT(
        {
          ::setenv("NANOCOST_THREADS", value.c_str(), 1);
          std::fprintf(stderr, "end\n");
          std::exit(ThreadPool::default_thread_count() == lanes ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "^end\n$");
  }
}

}  // namespace
}  // namespace nanocost::exec
