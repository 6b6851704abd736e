// Failure semantics of the collective group: per-collective deadlines,
// the poison pill, the health table, and the survivor agreement round.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injector.hpp"

namespace dmis::comm {
namespace {

class CommFailureTest : public ::testing::Test {
 protected:
  void SetUp() override { common::FaultInjector::instance().reset(); }
  void TearDown() override { common::FaultInjector::instance().reset(); }
};

TEST_F(CommFailureTest, KindNames) {
  EXPECT_STREQ(comm_error_kind_name(CommErrorKind::kTimeout), "timeout");
  EXPECT_STREQ(comm_error_kind_name(CommErrorKind::kPeerFailed),
               "peer_failed");
  EXPECT_STREQ(comm_error_kind_name(CommErrorKind::kAborted), "aborted");
}

TEST_F(CommFailureTest, FreshGroupIsHealthyAndUnpoisoned) {
  auto comms = make_group(3, /*timeout_ms=*/250);
  EXPECT_EQ(comms[0].timeout_ms(), 250);
  EXPECT_FALSE(comms[0].aborted());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(comms[1].health(r), RankHealth::kHealthy);
  }
}

// A rank whose peers never show up must not block forever: its own
// deadline fires, it throws the typed kTimeout, and the missing peer is
// recorded as a suspect in the health table.
TEST_F(CommFailureTest, DeadlineTurnsMissingPeerIntoTimeout) {
  auto comms = make_group(2, /*timeout_ms=*/150);
  std::vector<float> buf(8, 1.0F);
  bool timed_out = false;
  try {
    comms[0].all_reduce_sum(buf);  // rank 1 never calls
  } catch (const CommError& e) {
    timed_out = true;
    EXPECT_EQ(e.kind(), CommErrorKind::kTimeout);
  }
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_EQ(comms[0].health(1), RankHealth::kSuspect);
  EXPECT_EQ(comms[0].health(0), RankHealth::kHealthy);

  // The group is poisoned: the late rank fails fast with kPeerFailed
  // instead of waiting for a rendezvous that can never complete.
  bool poisoned = false;
  try {
    comms[1].all_reduce_sum(buf);
  } catch (const CommError& e) {
    poisoned = true;
    EXPECT_EQ(e.kind(), CommErrorKind::kPeerFailed);
  }
  EXPECT_TRUE(poisoned);
}

// abort() is the poison pill: every rank blocked in a rendezvous wakes
// with a typed error instead of deadlocking (no deadline needed).
TEST_F(CommFailureTest, AbortWakesBlockedRanks) {
  auto comms = make_group(3);  // no deadline: pre-failure-semantics mode
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(16, 1.0F);
      try {
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommErrorKind::kPeerFailed);
        errors.fetch_add(1);
      }
    });
  }
  // Give ranks 0/1 a moment to block in the ring, then kill rank 2.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  comms[2].abort("simulated crash");
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 2);
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_EQ(comms[0].health(2), RankHealth::kDead);
}

// Survivors must leave the agreement round with the *same* dead-set,
// and the dead rank itself must be fenced out with kAborted.
TEST_F(CommFailureTest, AgreementSealsIdenticalDeadSet) {
  auto comms = make_group(4);
  comms[3].abort("rank 3 going down");
  std::vector<std::vector<int>> sealed(3);
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      sealed[static_cast<size_t>(r)] =
          comms[static_cast<size_t>(r)].agree_on_failures(/*grace_ms=*/500);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(sealed[static_cast<size_t>(r)], std::vector<int>{3})
        << "rank " << r;
  }
  // The condemned rank arrives after the seal: fenced out.
  bool fenced = false;
  try {
    comms[3].agree_on_failures(100);
  } catch (const CommError& e) {
    fenced = true;
    EXPECT_EQ(e.kind(), CommErrorKind::kAborted);
  }
  EXPECT_TRUE(fenced);
}

// A healthy rank that never joins the round is condemned once the grace
// deadline passes, so one silent peer cannot wedge recovery.
TEST_F(CommFailureTest, AgreementGraceCondemnsSilentRank) {
  auto comms = make_group(3);
  comms[0].abort("rank 0 dead");
  // Rank 2 never calls agree_on_failures; rank 1 waits out the grace.
  const std::vector<int> dead = comms[1].agree_on_failures(/*grace_ms=*/100);
  EXPECT_EQ(dead, (std::vector<int>{0, 2}));
  EXPECT_EQ(comms[1].health(2), RankHealth::kDead);
}

TEST_F(CommFailureTest, AgreementRequiresPoisonedGroup) {
  auto comms = make_group(2);
  EXPECT_THROW(comms[0].agree_on_failures(10), InvalidArgument);
}

// A rank that loses a collective at entry (injected fault) and moves on
// desynchronizes from its peers. The rendezvous sequence check must
// poison the group with kPeerFailed instead of silently pairing
// mismatched collectives. The deadline only bounds the test if the
// check is broken; the correct path never waits on it.
TEST_F(CommFailureTest, CollectiveSequenceMismatchPoisonsGroup) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r0", 1);
  auto comms = make_group(2, /*timeout_ms=*/5000);
  std::atomic<int> comm_errors{0};

  // Rank 0 is the broadcast root, so it never writes its buffer while
  // rank 1's all-reduce reads it.
  std::vector<float> buf0(6, 1.0F);
  std::thread peer([&] {
    std::vector<float> buf(6, 2.0F);
    try {
      comms[1].all_reduce_sum(buf);
    } catch (const CommError& e) {
      EXPECT_EQ(e.kind(), CommErrorKind::kPeerFailed);
      comm_errors.fetch_add(1);
    }
  });

  EXPECT_THROW(comms[0].all_reduce_sum(buf0), common::FaultInjected);
  // Rank 0 lost the all-reduce and moved on. Its first broadcast pairs
  // up with the all-reduce's first rendezvous steps (same op count),
  // but the *second* broadcast arrives one op ahead and trips the
  // sequence check.
  comms[0].broadcast(buf0, /*root=*/0);
  try {
    comms[0].broadcast(buf0, /*root=*/0);
  } catch (const CommError& e) {
    EXPECT_EQ(e.kind(), CommErrorKind::kPeerFailed);
    comm_errors.fetch_add(1);
  }
  peer.join();
  EXPECT_EQ(comm_errors.load(), 2);
  EXPECT_TRUE(comms[0].aborted());
}

// A rank that passes a buffer of the wrong length is a caller bug, but
// its peers must not wait forever for it (there is no deadline here):
// the mismatch poisons the group, the mismatched rank gets
// InvalidArgument and every peer CommError{kPeerFailed}. A watchdog
// turns a hang into a test failure.
TEST_F(CommFailureTest, SizeMismatchPoisonsInsteadOfHanging) {
  constexpr int kRanks = 3;
  constexpr int kOdd = 2;  // the rank with the short buffer
  for (const bool broadcast : {false, true}) {
    SCOPED_TRACE(broadcast ? "broadcast" : "all_reduce_sum");
    auto comms = make_group(kRanks);
    std::vector<std::vector<float>> bufs;
    for (int r = 0; r < kRanks; ++r) bufs.emplace_back(r == kOdd ? 6 : 8);
    std::atomic<int> invalid{0};
    std::atomic<int> peer_failed{0};
    std::atomic<int> finished{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < kRanks; ++r) {
      threads.emplace_back([&, r] {
        auto& comm = comms[static_cast<size_t>(r)];
        auto& buf = bufs[static_cast<size_t>(r)];
        try {
          if (broadcast) {
            comm.broadcast(buf, /*root=*/0);
          } else {
            comm.all_reduce_sum(buf);
          }
        } catch (const CommError& e) {
          if (r != kOdd && e.kind() == CommErrorKind::kPeerFailed) {
            peer_failed.fetch_add(1);
          }
        } catch (const InvalidArgument&) {
          if (r == kOdd) invalid.fetch_add(1);
        }
        finished.fetch_add(1);
      });
    }
    const auto limit =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (finished.load() < kRanks &&
           std::chrono::steady_clock::now() < limit) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const bool hung = finished.load() < kRanks;
    if (hung) comms[0].abort("watchdog");  // release the blocked ranks
    for (auto& t : threads) t.join();
    EXPECT_FALSE(hung) << "peers still blocked after 10 s";
    EXPECT_EQ(invalid.load(), 1);
    EXPECT_EQ(peer_failed.load(), kRanks - 1);
    EXPECT_TRUE(comms[0].aborted());
  }
}

// A hung (not crashed) rank is exactly what deadlines exist for: the
// waiting rank times out and poisons the group; the hung rank finds the
// poison when it finally wakes up.
TEST_F(CommFailureTest, HungRankDetectedByDeadline) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r1", 1);
  faults.set_action_hang("comm.all_reduce.r1", /*auto_release_ms=*/700);

  auto comms = make_group(2, /*timeout_ms=*/200);
  std::atomic<bool> hung_rank_failed{false};
  std::thread hung([&] {
    std::vector<float> buf(4, 1.0F);
    try {
      comms[1].all_reduce_sum(buf);  // parks ~700ms, then finds poison
    } catch (const CommError&) {
      hung_rank_failed.store(true);
    }
  });

  std::vector<float> buf(4, 1.0F);
  bool timed_out = false;
  try {
    comms[0].all_reduce_sum(buf);
  } catch (const CommError& e) {
    timed_out = true;
    EXPECT_EQ(e.kind(), CommErrorKind::kTimeout);
  }
  hung.join();
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(hung_rank_failed.load());
  EXPECT_NE(comms[0].health(1), RankHealth::kHealthy);
}

// A slow rank (delay fault) inside the deadline is *not* a failure: the
// collective completes and the health table stays clean.
TEST_F(CommFailureTest, DelayedRankWithinDeadlineSucceeds) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r1", 1);
  faults.set_action_delay("comm.all_reduce.r1", 100);

  auto comms = make_group(2, /*timeout_ms=*/5000);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(4, static_cast<float>(r + 1));
      comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      for (const float v : buf) EXPECT_FLOAT_EQ(v, 3.0F);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(comms[0].aborted());
  EXPECT_EQ(comms[0].health(0), RankHealth::kHealthy);
  EXPECT_EQ(comms[0].health(1), RankHealth::kHealthy);
}

// The async path surfaces the same typed failures from wait(): a rank
// killed at collective entry leaves its peers' deadlines to fire, and
// every error comes out of AsyncRequest::wait, not the submitting call.
TEST_F(CommFailureTest, AsyncCollectivesSurfaceTypedFailures) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r2", 1);

  constexpr int kRanks = 3;
  auto comms = make_group(kRanks, /*timeout_ms=*/300);
  std::atomic<int> injected{0};
  std::atomic<int> comm_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(32, static_cast<float>(r));
      AsyncRequest req =
          comms[static_cast<size_t>(r)].all_reduce_sum_async(buf);
      try {
        req.wait();
      } catch (const common::FaultInjected&) {
        injected.fetch_add(1);
      } catch (const CommError&) {
        comm_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(injected.load(), 1);      // the killed rank
  EXPECT_EQ(comm_errors.load(), 2);   // its peers (timeout / poisoned)
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_NE(comms[0].health(2), RankHealth::kHealthy);

  // Later async submissions on the poisoned group fail fast.
  std::vector<float> buf(8, 1.0F);
  AsyncRequest req = comms[0].all_reduce_sum_async(buf);
  EXPECT_THROW(req.wait(), CommError);
}

// The same contracts on a 4-rank ring, where a failure can land
// mid-schedule with more than one rank still ahead of the fault in its
// reduce-scatter and all-gather steps.
using CommFailureRingTest = CommFailureTest;

// Ranks 0-2 enter the collective; rank 3 never shows up. Every present
// rank must surface a typed error (the first deadline to fire poisons
// the group for the rest) — no deadlock.
TEST_F(CommFailureRingTest, DeadlineTurnsMissingPeerIntoTypedError) {
  auto comms = make_group(4, /*timeout_ms=*/200);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(64, 1.0F);
      try {
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      } catch (const CommError& e) {
        EXPECT_TRUE(e.kind() == CommErrorKind::kTimeout ||
                    e.kind() == CommErrorKind::kPeerFailed)
            << comm_error_kind_name(e.kind());
        errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 3);
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_NE(comms[0].health(3), RankHealth::kHealthy);
}

// abort() must wake ranks blocked mid-schedule.
TEST_F(CommFailureRingTest, AbortWakesRanksBlockedInSchedule) {
  auto comms = make_group(4, /*timeout_ms=*/0);  // no deadline: poison only
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(256, 1.0F);
      try {
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      } catch (const CommError& e) {
        EXPECT_EQ(e.kind(), CommErrorKind::kPeerFailed);
        errors.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  comms[3].abort("simulated crash");
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 3);
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_EQ(comms[0].health(3), RankHealth::kDead);
}

// A hung (not crashed) rank: survivors' deadlines fire; the hung rank
// wakes into the poisoned group.
TEST_F(CommFailureRingTest, HungRankDetectedByDeadline) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r1", 1);
  faults.set_action_hang("comm.all_reduce.r1", /*auto_release_ms=*/700);

  auto comms = make_group(4, /*timeout_ms=*/200);
  std::atomic<int> survivor_errors{0};
  std::atomic<bool> hung_rank_failed{false};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(32, 1.0F);
      try {
        comms[static_cast<size_t>(r)].all_reduce_sum(buf);
      } catch (const CommError&) {
        if (r == 1) {
          hung_rank_failed.store(true);
        } else {
          survivor_errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(survivor_errors.load(), 3);
  EXPECT_TRUE(hung_rank_failed.load());
  EXPECT_TRUE(comms[0].aborted());
  EXPECT_NE(comms[0].health(1), RankHealth::kHealthy);
}

// Async submissions surface the same typed failures from wait(), and
// the poisoned group keeps failing fast.
TEST_F(CommFailureRingTest, AsyncCollectivesSurfaceTypedFailures) {
  auto& faults = common::FaultInjector::instance();
  faults.arm_nth_call("comm.all_reduce.r2", 1);

  auto comms = make_group(4, /*timeout_ms=*/300);
  std::atomic<int> injected{0};
  std::atomic<int> comm_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> buf(32, static_cast<float>(r));
      AsyncRequest req =
          comms[static_cast<size_t>(r)].all_reduce_sum_async(buf);
      try {
        req.wait();
      } catch (const common::FaultInjected&) {
        injected.fetch_add(1);
      } catch (const CommError&) {
        comm_errors.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(injected.load(), 1);
  EXPECT_EQ(comm_errors.load(), 3);
  EXPECT_TRUE(comms[0].aborted());

  std::vector<float> buf(8, 1.0F);
  AsyncRequest req = comms[0].all_reduce_sum_async(buf);
  EXPECT_THROW(req.wait(), CommError);
}

TEST_F(CommFailureTest, RejectsMalformedTimeoutEnv) {
  ::setenv("DMIS_COMM_TIMEOUT_MS", "soon", 1);
  EXPECT_THROW(make_group(2), InvalidArgument);
  ::setenv("DMIS_COMM_TIMEOUT_MS", "250", 1);
  auto comms = make_group(2);
  EXPECT_EQ(comms[0].timeout_ms(), 250);
  ::unsetenv("DMIS_COMM_TIMEOUT_MS");
}

}  // namespace
}  // namespace dmis::comm
