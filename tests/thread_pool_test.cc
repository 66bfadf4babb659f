// ThreadPool contract tests: degenerate inline pools, FIFO submission
// order, parallel_for index coverage, deterministic (lowest-index)
// exception propagation, and reentrancy from worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace nanomap {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, DegeneratePoolsRunInline) {
  // ThreadPool(1) is always inline; ThreadPool(0) resolves to
  // hardware_threads() and is inline only on a single-core host.
  for (int n : {1, 0}) {
    ThreadPool pool(n);
    const int resolved = n > 0 ? n : ThreadPool::hardware_threads();
    EXPECT_EQ(pool.num_threads(), resolved);
    const bool inline_pool = resolved == 1;
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    std::future<void> f = pool.submit([&] { ran_on = std::this_thread::get_id(); });
    if (inline_pool) {
      // Inline execution: the task already ran, on the calling thread.
      EXPECT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
      EXPECT_EQ(ran_on, caller);
    } else {
      f.get();
      EXPECT_NE(ran_on, caller);
    }

    std::mutex mu;
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.submit([&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }));
      // Inline pools finish each task before submit() returns.
      if (inline_pool) {
        EXPECT_EQ(order.size(), static_cast<std::size_t>(i + 1));
      }
    }
    for (auto& fut : futures) fut.get();
    ASSERT_EQ(order.size(), 8u);
    if (inline_pool) {
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
  }
}

TEST(ThreadPool, SubmitRunsTasksInFifoOrder) {
  ThreadPool pool(2);  // one worker thread drains the queue in order
  std::mutex mu;
  std::vector<int> started;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      started.push_back(i);
    }));
  }
  for (auto& f : futures) f.get();
  // A 2-thread pool has exactly one worker, so queue order is start order.
  ASSERT_EQ(started.size(), 64u);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(started[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::future<void> f =
        pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The pool must still be usable afterwards.
    std::atomic<int> ran{0};
    pool.submit([&] { ran = 1; }).get();
    EXPECT_EQ(ran.load(), 1);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    pool.parallel_for(257, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForZeroAndOneIndex) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](int i) {
    EXPECT_EQ(i, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // Indices 5, 9 and 200 throw; every thread count must report index 5 —
  // error reporting is part of the determinism contract.
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(256);
    for (auto& h : hits) h = 0;
    try {
      pool.parallel_for(256, [&](int i) {
        ++hits[static_cast<std::size_t>(i)];
        if (i == 5 || i == 9 || i == 200)
          throw std::runtime_error("fail " + std::to_string(i));
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 5") << "threads=" << threads;
    }
    // Every index was still attempted despite the failures.
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, StressConcurrentMultiFailureIsDeterministic) {
  // Randomized failing index sets with mixed exception *types*: whatever
  // races the workers run, parallel_for must (a) attempt every index,
  // (b) rethrow exactly the lowest failing index's exception, preserving
  // its message — the error contract the flow's recovery ladder and the
  // fault-injection sweep build on.
  auto fail_message = [](int i) { return "task " + std::to_string(i); };
  auto fail_with_mixed_type = [&](int i) {
    switch (i % 3) {
      case 0: throw std::runtime_error(fail_message(i));
      case 1: throw std::logic_error(fail_message(i));
      default: throw std::out_of_range(fail_message(i));
    }
  };
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    Rng rng(static_cast<std::uint64_t>(threads) * 1000 + 7);
    for (int round = 0; round < 50; ++round) {
      const int n = rng.next_int(1, 128);
      std::vector<char> fails(static_cast<std::size_t>(n), 0);
      const int num_failures = rng.next_int(1, 8);
      for (int k = 0; k < num_failures; ++k)
        fails[static_cast<std::size_t>(rng.next_int(0, n - 1))] = 1;
      int lowest = 0;
      while (!fails[static_cast<std::size_t>(lowest)]) ++lowest;

      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      for (auto& h : hits) h = 0;
      try {
        pool.parallel_for(n, [&](int i) {
          ++hits[static_cast<std::size_t>(i)];
          if (fails[static_cast<std::size_t>(i)]) fail_with_mixed_type(i);
        });
        FAIL() << "expected an exception (threads=" << threads
               << " round=" << round << ")";
      } catch (const std::exception& e) {
        EXPECT_EQ(std::string(e.what()), fail_message(lowest))
            << "threads=" << threads << " round=" << round;
      }
      for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(ThreadPool, ParallelForPreservesExceptionTypeOfLowestIndex) {
  // Index 4 throws logic_error, index 7 runtime_error: the caller must
  // see index 4's *type*, not just its message, at every thread count.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    bool caught_logic = false;
    try {
      pool.parallel_for(16, [](int i) {
        if (i == 4) throw std::logic_error("logic 4");
        if (i == 7) throw std::runtime_error("runtime 7");
      });
    } catch (const std::logic_error& e) {
      caught_logic = true;
      EXPECT_STREQ(e.what(), "logic 4");
    } catch (const std::exception&) {
    }
    EXPECT_TRUE(caught_logic) << "threads=" << threads;
  }
}

TEST(ThreadPool, ParallelForEveryIndexFailing) {
  // The degenerate worst case: all 128 indices throw. Still: full
  // coverage, lowest index (0) reported, pool reusable afterwards.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(128);
  for (auto& h : hits) h = 0;
  try {
    pool.parallel_for(128, [&](int i) {
      ++hits[static_cast<std::size_t>(i)];
      throw std::runtime_error("all " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "all 0");
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::atomic<long> sum{0};
  pool.parallel_for(16, [&](int i) { sum += i; });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPool, ParallelForIsReentrantFromWorkers) {
  // A parallel_for inside a pool task must run inline instead of
  // deadlocking on the pool's own queue.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h = 0;
  pool.parallel_for(8, [&](int outer) {
    pool.parallel_for(8, [&](int inner) {
      ++hits[static_cast<std::size_t>(outer * 8 + inner)];
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool a(2), b(2);
  EXPECT_FALSE(a.on_worker_thread());
  bool seen_a_in_a = false, seen_b_in_a = true;
  a.submit([&] {
      seen_a_in_a = a.on_worker_thread();
      seen_b_in_a = b.on_worker_thread();
    }).get();
  EXPECT_TRUE(seen_a_in_a);
  EXPECT_FALSE(seen_b_in_a);
}

TEST(ThreadPool, PoolForEachWithoutPoolIsSequential) {
  std::vector<int> order;
  pool_for_each(nullptr, 5, [&](int i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, StressManySmallLoops) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(16, [&](int i) { sum += i; });
    ASSERT_EQ(sum.load(), 120);
  }
}

TEST(DeriveSeed, StreamZeroIsBaseAndStreamsDecorrelate) {
  EXPECT_EQ(derive_seed(42, 0), 42u);
  EXPECT_EQ(derive_seed(7, 0), 7u);
  // Streams differ from the base and from each other.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 16; ++s) seen.push_back(derive_seed(42, s));
  for (std::size_t i = 0; i < seen.size(); ++i)
    for (std::size_t j = i + 1; j < seen.size(); ++j)
      EXPECT_NE(seen[i], seen[j]) << i << " vs " << j;
  // And are a pure function of (base, stream).
  EXPECT_EQ(derive_seed(42, 3), derive_seed(42, 3));
  EXPECT_NE(derive_seed(42, 3), derive_seed(43, 3));
}

}  // namespace
}  // namespace nanomap
