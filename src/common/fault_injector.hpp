// Deterministic fault injection for chaos/robustness testing.
//
// Production code declares *failure points* by calling
// `FaultInjector::instance().maybe_fail("subsystem.operation")` at the
// places where a real deployment can crash (task execution, collective
// entry, checkpoint writes). By default every point is disarmed and the
// call is a single relaxed atomic load — safe to leave in hot paths.
//
// Tests arm points by name with one of three triggers:
//   * nth-call    — fire on the Nth invocation (1-based),
//   * every-N     — fire on every Nth invocation,
//   * probability — fire with probability p per invocation,
// each optionally bounded by a fire budget. Probability draws use a
// per-point splitmix64 stream seeded from `seed() ^ fnv1a(point)`, so a
// fixed seed reproduces the same fire pattern per point regardless of
// how calls to *other* points interleave across threads.
//
// A fired point performs its configured *action*. The default action —
// and the only one before the failure-semantics work — is to throw
// `FaultInjected`, which propagates like any other error (through
// `Future::get()` and trial execution) and is what the tune
// layer classifies as a transient, retryable failure. Two more actions
// model the failures a crash cannot: `delay(ms)` makes the fired call
// sleep and then proceed (a slow rank / stalled NIC), and `hang` parks
// the fired call until `release_hangs()` (or an optional auto-release
// timeout) — the dead-but-not-crashed rank that deadline-aware
// collectives exist to detect. For elastic chaos two callback actions
// model a node's *return*: `restart` runs a user callback (file the
// rejoin request) and then throws like the default crash, `rejoin`
// runs the callback and proceeds.
//
// Rank scoping: the two-argument `maybe_fail(point, rank)` checks both
// the bare point and `<point>.r<rank>`, so a test can target exactly one
// rank of a collective group (`comm.all_reduce.r2`) while other ranks
// sail through.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/check.hpp"

namespace dmis::common {

/// The error thrown by an armed failure point. Subclasses dmis::Error so
/// generic error handling treats it like a real crash.
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

class FaultInjector {
 public:
  /// Process-wide injector shared by all subsystems.
  static FaultInjector& instance();

  /// Disarms every point, clears all counters, and restores seed 0.
  void reset();

  /// Sets the base seed for probability-triggered points. Affects points
  /// armed *after* the call (each point's stream is derived at arm time).
  void seed(uint64_t s);

  /// Fires on the `nth` call (1-based) to `point`; with `max_fires` > 1
  /// the following `max_fires - 1` calls fire too.
  void arm_nth_call(const std::string& point, int64_t nth,
                    int64_t max_fires = 1);

  /// Fires on every `n`th call to `point` (calls n, 2n, 3n, ...), at
  /// most `max_fires` times (-1 = unbounded).
  void arm_every_n(const std::string& point, int64_t n,
                   int64_t max_fires = -1);

  /// Fires with probability `p` per call, at most `max_fires` times.
  void arm_probability(const std::string& point, double p,
                       int64_t max_fires = -1);

  /// Disarms one point (its counters are kept).
  void disarm(const std::string& point);

  /// Replaces `point`'s fire action: sleep `ms` milliseconds, then
  /// return normally (a slow rank, not a dead one).
  void set_action_delay(const std::string& point, int64_t ms);

  /// Replaces `point`'s fire action: block until release_hangs() — or
  /// until `auto_release_ms` elapses when >= 0 — then return normally.
  /// Models a hung rank; armed alongside any trigger.
  void set_action_hang(const std::string& point, int64_t auto_release_ms = -1);

  /// Replaces `point`'s fire action: run `on_restart` (the "process
  /// came back and asked to rejoin" side effect — e.g.
  /// MirroredStrategy::request_rejoin()), then throw FaultInjected as usual. This
  /// is how a chaos test kills a rank *and* deterministically schedules
  /// its return: the crash is real (the exception propagates, the group
  /// is poisoned) but the replacement worker's rejoin is already in
  /// flight. The callback runs outside the injector's registry lock.
  void set_action_restart(const std::string& point,
                          std::function<void()> on_restart);

  /// Replaces `point`'s fire action: run `on_rejoin` and return
  /// normally — a node that came back without ever crashing this call
  /// (a drained standby re-advertising itself). Also runs outside the
  /// registry lock.
  void set_action_rejoin(const std::string& point,
                         std::function<void()> on_rejoin);

  /// Wakes every thread currently parked in a hang action (also done by
  /// reset(), so test teardown can never deadlock on a forgotten hang).
  void release_hangs();

  /// Threads currently parked in a hang action.
  int64_t hung_now() const;

  /// True while at least one point is armed (the hot-path gate).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Registers a call to `point`; returns true if the fault fires.
  /// No-op (and not counted) while nothing at all is armed.
  bool should_fail(const std::string& point);

  /// should_fail, then performs the point's action when it fires: throw
  /// FaultInjected (default), sleep (delay), or park (hang).
  void maybe_fail(const std::string& point);

  /// Rank-scoped maybe_fail: checks `point` and then `<point>.r<rank>`,
  /// so faults can target a single rank of a group. The scoped name is
  /// only materialized while the injector is active.
  void maybe_fail(const std::string& point, int rank);

  /// Calls observed at `point` since the last reset (only counted while
  /// the injector has at least one armed point).
  int64_t calls(const std::string& point) const;

  /// Times `point` has fired since the last reset.
  int64_t fires(const std::string& point) const;

  /// Total fires across all points since the last reset.
  int64_t total_fires() const;

 private:
  FaultInjector() = default;

  enum class Mode { kOff, kNthCall, kEveryN, kProbability };
  enum class Action { kThrow, kDelay, kHang, kRestart, kRejoin };

  struct Point {
    Mode mode = Mode::kOff;
    int64_t n = 0;            // nth-call / every-N parameter
    double probability = 0.0;
    int64_t max_fires = -1;   // -1 = unbounded
    int64_t calls = 0;
    int64_t fires = 0;
    uint64_t rng_state = 0;   // splitmix64 stream for kProbability
    Action action = Action::kThrow;
    int64_t delay_ms = 0;           // kDelay sleep
    int64_t auto_release_ms = -1;   // kHang bound; -1 = explicit release
    std::function<void()> callback;  // kRestart / kRejoin side effect
  };

  Point& point_locked(const std::string& name);
  void hang_until_released(int64_t auto_release_ms);

  mutable std::mutex mutex_;
  std::map<std::string, Point> points_;
  uint64_t seed_ = 0;
  int64_t total_fires_ = 0;
  // Fast-path gate: true while >= 1 point is armed. Relaxed is fine —
  // tests arm points before starting the threads they want to disturb.
  std::atomic<bool> active_{false};

  // Hang parking lot, separate from mutex_ so parked threads never hold
  // the registry lock.
  mutable std::mutex hang_mutex_;
  std::condition_variable hang_cv_;
  uint64_t hang_epoch_ = 0;  // bumped by release_hangs()
  int64_t hung_now_ = 0;
};

}  // namespace dmis::common
