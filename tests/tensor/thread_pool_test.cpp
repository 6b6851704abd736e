#include "tensor/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace dmis {
namespace {

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
  parallel_for(pool, 5, 3, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, MatchesSerialSum) {
  ThreadPool pool(8);
  std::vector<double> partial(8, 0.0);
  std::atomic<int> slot{0};
  parallel_for(pool, 1, 100001, [&](int64_t lo, int64_t hi) {
    double acc = 0.0;
    for (int64_t i = lo; i < hi; ++i) acc += static_cast<double>(i);
    partial[static_cast<size_t>(slot.fetch_add(1))] = acc;
  });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 100000.0 * 100001.0 / 2.0);
}

TEST(ParallelForTest, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](int64_t lo, int64_t) {
                     if (lo >= 0) throw InternalError("boom");
                   }),
      InternalError);
}

TEST(ParallelForTest, NestedCallsDoNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 4, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      parallel_for(pool, 0, 8, [&](int64_t l2, int64_t h2) {
        count.fetch_add(static_cast<int>(h2 - l2));
      });
    }
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ParallelForTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  parallel_for(pool, 0, 10,
               [&](int64_t, int64_t) { body_thread = std::this_thread::get_id(); });
  EXPECT_EQ(body_thread, caller);
}

// The share is per thread, so each case sets it on a fresh thread and
// leaves the test runner's own thread unset.
template <typename Fn>
void on_fresh_thread(Fn fn) {
  std::thread t(fn);
  t.join();
}

// Counts the chunks one parallel_for call splits [0, 64) into and the
// threads that ran them.
struct ChunkCount {
  int chunks = 0;
  std::set<std::thread::id> threads;
};

ChunkCount count_chunks(ThreadPool& pool) {
  ChunkCount out;
  std::mutex mutex;
  parallel_for(pool, 0, 64, [&](int64_t, int64_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++out.chunks;
    out.threads.insert(std::this_thread::get_id());
  });
  return out;
}

TEST(IntraOpShareTest, UnsetShareSplitsOverTheWholePool) {
  ThreadPool pool(4);
  on_fresh_thread([&] {
    EXPECT_EQ(intra_op_share(), ThreadPool::global().size());
    EXPECT_EQ(count_chunks(pool).chunks, 4);
  });
}

TEST(IntraOpShareTest, ShareOneRunsInlineOnTheCaller) {
  ThreadPool pool(4);
  on_fresh_thread([&] {
    set_intra_op_share(1);
    const ChunkCount c = count_chunks(pool);
    EXPECT_EQ(c.chunks, 1);
    ASSERT_EQ(c.threads.size(), 1U);
    EXPECT_EQ(*c.threads.begin(), std::this_thread::get_id());
  });
}

TEST(IntraOpShareTest, ShareTwoGivesExactlyTwoChunks) {
  ThreadPool pool(4);
  on_fresh_thread([&] {
    set_intra_op_share(2);
    EXPECT_EQ(count_chunks(pool).chunks, 2);
  });
}

TEST(IntraOpShareTest, ShareAbovePoolSizeIsClamped) {
  ThreadPool pool(4);
  on_fresh_thread([&] {
    set_intra_op_share(16);
    EXPECT_EQ(intra_op_share(), 16);
    EXPECT_EQ(count_chunks(pool).chunks, 4);
  });
}

TEST(IntraOpShareTest, UnitsSplitTheStartersShare) {
  on_fresh_thread([] {
    const int root = ThreadPool::global().size();
    EXPECT_EQ(unit_share(1), root);
    EXPECT_EQ(unit_share(2), std::max(1, root / 2));
    set_intra_op_share(4);
    EXPECT_EQ(unit_share(2), 2);
    EXPECT_EQ(unit_share(3), 1);
    EXPECT_EQ(unit_share(8), 1);  // never below one core
  });
}

TEST(IntraOpShareTest, RejectsNonPositiveValues) {
  on_fresh_thread([] {
    EXPECT_THROW(set_intra_op_share(0), InvalidArgument);
    EXPECT_THROW(unit_share(0), InvalidArgument);
  });
}

}  // namespace
}  // namespace dmis
