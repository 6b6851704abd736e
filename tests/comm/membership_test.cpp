#include "comm/membership.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

namespace dmis::comm {
namespace {

WorldSignature tiny_signature() {
  return {{"conv.weight", {2, 1, 3, 3, 3}}, {"conv.bias", {2}}};
}

// Polls until `parked()` reaches `n` — the joiner thread needs a moment
// to reach await_admission().
bool wait_parked(MembershipService& ms, size_t n, int timeout_ms = 5000) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < until) {
    if (ms.parked() >= n) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(MembershipTest, LeaseLifecycleIsDeterministic) {
  MembershipService ms(3, tiny_signature(), /*lease_ms=*/100);
  EXPECT_EQ(ms.lease_ms(), 100);
  EXPECT_EQ(ms.world(), 3);
  EXPECT_EQ(ms.epoch(), 0);

  // Fresh service: all leases date from time 0.
  EXPECT_TRUE(ms.lease_valid(0, /*now_us=*/100'000));   // exactly at bound
  EXPECT_FALSE(ms.lease_valid(0, /*now_us=*/100'001));  // just past it

  ms.renew(1, /*beat_us=*/500'000);
  EXPECT_TRUE(ms.lease_valid(1, 600'000));
  EXPECT_FALSE(ms.lease_valid(0, 600'000));
  EXPECT_EQ(ms.expired_ranks(600'000), (std::vector<int>{0, 2}));

  // Renewal takes the max: an older heartbeat cannot roll a lease back.
  ms.renew(1, 400'000);
  EXPECT_TRUE(ms.lease_valid(1, 600'000));

  // A shrink resets every lease and bumps the epoch.
  ms.set_world(2, /*now_us=*/1'000'000);
  EXPECT_EQ(ms.world(), 2);
  EXPECT_EQ(ms.epoch(), 1);
  EXPECT_TRUE(ms.expired_ranks(1'000'000).empty());
  EXPECT_THROW((void)ms.lease_valid(2, 0), Error);  // outside new world
}

TEST(MembershipTest, EnvOverridesLeaseDuration) {
  ::setenv("DMIS_COMM_LEASE_MS", "123", 1);
  MembershipService ms(1, tiny_signature(), /*lease_ms=*/5000);
  EXPECT_EQ(ms.lease_ms(), 123);  // env wins over the option
  ::unsetenv("DMIS_COMM_LEASE_MS");
  MembershipService from_opt(1, tiny_signature(), /*lease_ms=*/5000);
  EXPECT_EQ(from_opt.lease_ms(), 5000);
  MembershipService def(1, tiny_signature());
  EXPECT_EQ(def.lease_ms(), 2000);

  // A value with trailing junk is rejected, not read as its prefix.
  for (const char* bad : {"10abc", "0", "-5", "2s"}) {
    ::setenv("DMIS_COMM_LEASE_MS", bad, 1);
    EXPECT_THROW(MembershipService(1, tiny_signature()), InvalidArgument)
        << bad;
  }
  ::unsetenv("DMIS_COMM_LEASE_MS");
}

TEST(MembershipTest, JoinAdmitCommitAssignsNextRanks) {
  MembershipService ms(3, tiny_signature(), 1000);
  auto join = [&](int64_t timeout_ms) {
    const JoinTicket t = ms.request_join(tiny_signature());
    return ms.await_admission(t, timeout_ms);
  };
  auto j0 = std::async(std::launch::async, join, 10'000);
  auto j1 = std::async(std::launch::async, join, 10'000);
  ASSERT_TRUE(wait_parked(ms, 2));
  EXPECT_EQ(ms.pending(), 2U);

  // Driver side: epoch-boundary admission, then the commit barrier.
  EXPECT_EQ(ms.admit_pending(), 2);
  EXPECT_EQ(ms.world(), 3);  // not grown until the commit
  EXPECT_EQ(ms.commit_transition(/*now_us=*/42), 5);
  EXPECT_EQ(ms.world(), 5);
  EXPECT_EQ(ms.epoch(), 1);

  // The joiners get the appended ranks (in request order).
  std::vector<int> ranks{j0.get(), j1.get()};
  std::sort(ranks.begin(), ranks.end());
  EXPECT_EQ(ranks, (std::vector<int>{3, 4}));
  EXPECT_EQ(ms.pending(), 0U);
  // Fresh leases for everyone, dated from the commit.
  EXPECT_TRUE(ms.expired_ranks(42).empty());
}

TEST(MembershipTest, ShapeMismatchIsTypedRejection) {
  MembershipService ms(2, tiny_signature(), 1000);
  WorldSignature bad = tiny_signature();
  bad[0].dims = {4, 1, 3, 3, 3};  // wrong channel count
  auto joiner = std::async(std::launch::async, [&] {
    const JoinTicket t = ms.request_join(bad);
    return ms.await_admission(t, 10'000);
  });
  ASSERT_TRUE(wait_parked(ms, 1));
  EXPECT_EQ(ms.admit_pending(), 0);  // validated, not admitted
  try {
    (void)joiner.get();
    FAIL() << "expected MembershipError{kShapeMismatch}";
  } catch (const MembershipError& e) {
    EXPECT_EQ(e.kind(), MembershipErrorKind::kShapeMismatch);
    EXPECT_NE(std::string(e.what()).find("conv.weight"), std::string::npos);
  }
  // The rejected request is gone; a later commit is a no-op.
  EXPECT_EQ(ms.pending(), 0U);
  EXPECT_EQ(ms.commit_transition(0), 2);
  EXPECT_EQ(ms.epoch(), 0);
}

TEST(MembershipTest, MixedBatchAdmitsGoodRejectsBad) {
  MembershipService ms(2, tiny_signature(), 1000);
  WorldSignature bad = tiny_signature();
  bad.pop_back();  // parameter count differs
  auto good = std::async(std::launch::async, [&] {
    return ms.await_admission(ms.request_join(tiny_signature()), 10'000);
  });
  auto rejected = std::async(std::launch::async, [&]() -> int {
    return ms.await_admission(ms.request_join(bad), 10'000);
  });
  ASSERT_TRUE(wait_parked(ms, 2));
  EXPECT_EQ(ms.admit_pending(), 1);
  EXPECT_EQ(ms.commit_transition(7), 3);
  EXPECT_EQ(good.get(), 2);
  EXPECT_THROW((void)rejected.get(), MembershipError);
}

TEST(MembershipTest, PendingTimeoutIsTyped) {
  MembershipService ms(1, tiny_signature(), 1000);
  const JoinTicket t = ms.request_join(tiny_signature());
  try {
    (void)ms.await_admission(t, /*timeout_ms=*/50);  // nobody admits
    FAIL() << "expected MembershipError{kTimeout}";
  } catch (const MembershipError& e) {
    EXPECT_EQ(e.kind(), MembershipErrorKind::kTimeout);
  }
  EXPECT_EQ(ms.pending(), 0U);  // the timed-out request cleaned up
}

TEST(MembershipTest, UnparkedRequestsAreNotAdmitted) {
  // A request that was filed but whose joiner never reached
  // await_admission() must not be committed into the world — the
  // commit would hand a rank to a thread that is not waiting for it.
  MembershipService ms(2, tiny_signature(), 1000);
  (void)ms.request_join(tiny_signature());
  EXPECT_EQ(ms.pending(), 1U);
  EXPECT_EQ(ms.parked(), 0U);
  EXPECT_EQ(ms.admit_pending(), 0);
  EXPECT_EQ(ms.commit_transition(0), 2);
  EXPECT_EQ(ms.world(), 2);
}

TEST(MembershipTest, ShutdownWakesParkedJoinersTyped) {
  auto ms = std::make_unique<MembershipService>(2, tiny_signature(), 1000);
  auto joiner = std::async(std::launch::async, [&] {
    return ms->await_admission(ms->request_join(tiny_signature()), 60'000);
  });
  ASSERT_TRUE(wait_parked(*ms, 1));
  ms->shutdown();
  try {
    (void)joiner.get();
    FAIL() << "expected MembershipError{kShutdown}";
  } catch (const MembershipError& e) {
    EXPECT_EQ(e.kind(), MembershipErrorKind::kShutdown);
  }
  // Requests filed after shutdown are rejected on arrival.
  const JoinTicket late = ms->request_join(tiny_signature());
  EXPECT_THROW((void)ms->await_admission(late, 1000), MembershipError);
}

TEST(MembershipTest, AdmittedTicketSurvivesPendingDeadline) {
  // Once admitted, the commit is imminent: the pending timeout no
  // longer applies and the joiner waits for commit_transition().
  MembershipService ms(1, tiny_signature(), 1000);
  auto joiner = std::async(std::launch::async, [&] {
    return ms.await_admission(ms.request_join(tiny_signature()),
                              /*timeout_ms=*/100);
  });
  ASSERT_TRUE(wait_parked(ms, 1));
  ASSERT_EQ(ms.admit_pending(), 1);
  // Sleep past the pending deadline before committing.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(ms.commit_transition(0), 2);
  EXPECT_EQ(joiner.get(), 1);
}

TEST(MembershipTest, SignatureMismatchDescriptions) {
  const WorldSignature world = tiny_signature();
  EXPECT_EQ(describe_signature_mismatch(world, world), "");
  WorldSignature fewer = world;
  fewer.pop_back();
  EXPECT_NE(describe_signature_mismatch(world, fewer).find("count"),
            std::string::npos);
  WorldSignature renamed = world;
  renamed[1].name = "conv.beta";
  EXPECT_NE(describe_signature_mismatch(world, renamed).find("name"),
            std::string::npos);
  WorldSignature reshaped = world;
  reshaped[0].dims = {2, 1, 5, 5, 5};
  const std::string why = describe_signature_mismatch(world, reshaped);
  EXPECT_NE(why.find("shape"), std::string::npos);
  EXPECT_NE(why.find("[2,1,5,5,5]"), std::string::npos);
}

}  // namespace
}  // namespace dmis::comm
