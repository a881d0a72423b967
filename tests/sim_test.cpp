// Tests for the discrete-event simulation kernel: the event loop, Task
// composition, and every synchronization primitive. Everything downstream
// (devices, file systems, the DLFS core) assumes these semantics, so this
// suite is deliberately picky about ordering and determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/doorbell.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace {

using dlsim::Channel;
using dlsim::CpuCore;
using dlsim::Doorbell;
using dlsim::Event;
using dlsim::Mutex;
using dlsim::Process;
using dlsim::Semaphore;
using dlsim::SimTime;
using dlsim::Simulator;
using dlsim::Task;
using namespace dlsim::literals;

TEST(SimTime, Literals) {
  EXPECT_EQ(1_ns, 1u);
  EXPECT_EQ(1_us, 1000u);
  EXPECT_EQ(1_ms, 1000000u);
  EXPECT_EQ(1_sec, 1000000000u);
  EXPECT_EQ(3_us + 500_ns, 3500u);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(dlsim::to_seconds(1_sec), 1.0);
  EXPECT_DOUBLE_EQ(dlsim::to_micros(2500_ns), 2.5);
  EXPECT_DOUBLE_EQ(dlsim::to_millis(1500_us), 1.5);
}

TEST(SimTime, TransferTime) {
  // 1 GiB at 1 GB/s is ~1.0737 seconds.
  EXPECT_EQ(dlsim::transfer_time(1000000000ull, 1e9), 1_sec);
  EXPECT_EQ(dlsim::transfer_time(4096, 2.5e9), 1638u);
  EXPECT_EQ(dlsim::transfer_time(0, 1e9), 0u);
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.live_processes(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, DelayAdvancesTime) {
  Simulator sim;
  SimTime observed = 0;
  sim.spawn([](Simulator& s, SimTime& out) -> Task<void> {
    co_await s.delay(42_us);
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 42_us);
  EXPECT_EQ(sim.now(), 42_us);
}

TEST(Simulator, ZeroDelayRunsAtSameTime) {
  Simulator sim;
  SimTime observed = 1;
  sim.spawn([](Simulator& s, SimTime& out) -> Task<void> {
    co_await s.delay(0);
    co_await s.yield();
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 0u);
}

TEST(Simulator, FifoOrderWithinSameTimestamp) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
      co_await s.delay(10_ns);
      ord.push_back(id);
    }(sim, order, i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsInterleaveByTimestamp) {
  Simulator sim;
  std::vector<std::string> trace;
  auto proc = [](Simulator& s, std::vector<std::string>& t, std::string name,
                 dlsim::SimDuration step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      t.push_back(name + std::to_string(i));
    }
  };
  sim.spawn(proc(sim, trace, "a", 10_ns));
  sim.spawn(proc(sim, trace, "b", 15_ns));
  sim.run();
  // a: 10,20,30; b: 15,30,45. At t=30 'a2' was scheduled before 'b1'... no:
  // b1 fires at 30 — scheduled at t=15, a2 scheduled at t=20: a2 first? No:
  // scheduling order: a2 scheduled when a1 ran (t=20); b1 scheduled when b0
  // ran (t=15). Both fire at 30; b1 was enqueued earlier so runs first.
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2",
                                             "b2"}));
}

TEST(Simulator, NestedTasksPropagateValues) {
  Simulator sim;
  int result = 0;
  auto leaf = [](Simulator& s) -> Task<int> {
    co_await s.delay(5_ns);
    co_return 21;
  };
  auto mid = [&leaf](Simulator& s) -> Task<int> {
    int v = co_await leaf(s);
    co_return v * 2;
  };
  sim.spawn([](Simulator& s, decltype(mid)& m, int& out) -> Task<void> {
    out = co_await m(s);
  }(sim, mid, result));
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, ExceptionsPropagateThroughTaskChain) {
  Simulator sim;
  auto thrower = [](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("boom");
  };
  bool caught = false;
  sim.spawn([](Simulator& s, decltype(thrower)& t, bool& c) -> Task<void> {
    try {
      co_await t(s);
    } catch (const std::runtime_error& e) {
      c = std::string(e.what()) == "boom";
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, ProcessFailureIsReported) {
  Simulator sim;
  Process p = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::logic_error("fatal");
  }(sim));
  sim.run();
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.failed());
  EXPECT_THROW(p.rethrow(), std::logic_error);
  EXPECT_THROW(sim.rethrow_failures(), std::logic_error);
}

TEST(Simulator, JoinWaitsForCompletion) {
  Simulator sim;
  SimTime joined_at = 0;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(100_ns);
  }(sim));
  sim.spawn([](Simulator& s, Process w, SimTime& out) -> Task<void> {
    co_await w.join();
    out = s.now();
  }(sim, worker, joined_at));
  sim.run();
  EXPECT_EQ(joined_at, 100_ns);
}

TEST(Simulator, JoinOnFinishedProcessReturnsImmediately) {
  Simulator sim;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(10_ns);
  }(sim));
  sim.run();
  SimTime joined_at = 123;
  sim.spawn([](Simulator& s, Process w, SimTime& out) -> Task<void> {
    co_await w.join();
    out = s.now();
  }(sim, worker, joined_at));
  sim.run();
  EXPECT_EQ(joined_at, 10_ns);  // no extra time passed
}

TEST(Simulator, JoinRethrowsProcessError) {
  Simulator sim;
  Process worker = sim.spawn([](Simulator& s) -> Task<void> {
    co_await s.delay(1_ns);
    throw std::runtime_error("worker died");
  }(sim));
  bool caught = false;
  sim.spawn([](Simulator&, Process w, bool& c) -> Task<void> {
    try {
      co_await w.join();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, worker, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, RunUntilStopsMidway) {
  Simulator sim;
  int ticks = 0;
  sim.spawn([](Simulator& s, int& t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await s.delay(10_ns);
      ++t;
    }
  }(sim, ticks));
  sim.run_until(35_ns);
  EXPECT_EQ(sim.now(), 35_ns);
  EXPECT_EQ(ticks, 3);  // events at 10, 20, 30 ran; 40 is still queued
  sim.run();
  EXPECT_EQ(ticks, 10);
}

TEST(Simulator, DeadlockDetected) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev));
  EXPECT_THROW(sim.run(), dlsim::DeadlockError);
}

TEST(Simulator, DeadlockErrorNamesBlockedProcesses) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev),
            "stuck-reader");
  // Daemons idle forever by design; they must not be named as culprits.
  sim.spawn_daemon([](Event& e) -> Task<void> { co_await e.wait(); }(ev),
                   "idle-server");
  try {
    sim.run();
    FAIL() << "expected DeadlockError";
  } catch (const dlsim::DeadlockError& e) {
    EXPECT_EQ(e.blocked_processes, 1u);
    ASSERT_EQ(e.blocked_names.size(), 1u);
    EXPECT_EQ(e.blocked_names[0], "stuck-reader");
    EXPECT_NE(std::string(e.what()).find("stuck-reader"), std::string::npos);
  }
}

TEST(Simulator, WatchdogPassesWhenWorkFinishesInTime) {
  Simulator sim;
  bool done = false;
  sim.spawn([](Simulator& s, bool& d) -> Task<void> {
    co_await s.delay(1000);
    d = true;
  }(sim, done));
  EXPECT_NO_THROW(sim.run_watchdog(/*deadline=*/5000));
  EXPECT_TRUE(done);
}

TEST(Simulator, WatchdogThrowsWhenProcessOutlivesDeadline) {
  Simulator sim;
  Event never(sim);
  sim.spawn(
      [](Simulator& s, Event& e) -> Task<void> {
        co_await s.delay(100);
        co_await e.wait();
      }(sim, never),
      "hung-recovery");
  // A ticking daemon keeps the queue non-empty forever: without the
  // deadline the loop would spin past the hang indefinitely.
  sim.spawn_daemon(
      [](Simulator& s) -> Task<void> {
        // Deliberate busy-ticker: this test exists to prove the watchdog
        // catches exactly this shape. DLFSLINT-ALLOW: CL007
        for (;;) co_await s.delay(1000);
      }(sim),
      "ticker");
  try {
    sim.run_watchdog(/*deadline=*/5000);
    FAIL() << "expected DeadlockError";
  } catch (const dlsim::DeadlockError& e) {
    ASSERT_EQ(e.blocked_names.size(), 1u);
    EXPECT_EQ(e.blocked_names[0], "hung-recovery");
  }
}

TEST(Simulator, AllowBlockedSuppressesDeadlock) {
  Simulator sim;
  Event ev(sim);
  sim.spawn([](Event& e) -> Task<void> { co_await e.wait(); }(ev));
  EXPECT_NO_THROW(sim.run(/*allow_blocked=*/true));
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) {
      sim.spawn([](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
        co_await s.delay(static_cast<dlsim::SimDuration>((id * 7) % 5));
        co_await s.delay(static_cast<dlsim::SimDuration>((id * 3) % 4));
        ord.push_back(id);
      }(sim, order, i));
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Event

TEST(SimEvent, WaitersWakeWhenSet) {
  Simulator sim;
  Event ev(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Event& e, std::vector<int>& ord, int id) -> Task<void> {
      co_await e.wait();
      ord.push_back(id);
    }(ev, order, i));
  }
  sim.spawn([](Simulator& s, Event& e) -> Task<void> {
    co_await s.delay(50_ns);
    e.set();
  }(sim, ev));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(ev.is_set());
}

TEST(SimEvent, WaitOnSetEventDoesNotSuspend) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  SimTime t = 1;
  sim.spawn([](Simulator& s, Event& e, SimTime& out) -> Task<void> {
    co_await e.wait();
    out = s.now();
  }(sim, ev, t));
  sim.run();
  EXPECT_EQ(t, 0u);
}

TEST(SimEvent, ResetRearmsEvent) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
}

// ---------------------------------------------------------------------------
// Mutex

TEST(SimMutex, MutualExclusion) {
  Simulator sim;
  Mutex mu(sim);
  int inside = 0;
  int max_inside = 0;
  auto critical = [](Simulator& s, Mutex& m, int& in, int& mx) -> Task<void> {
    auto guard = co_await m.scoped_lock();
    ++in;
    mx = std::max(mx, in);
    co_await s.delay(10_ns);
    --in;
  };
  for (int i = 0; i < 4; ++i) {
    sim.spawn(critical(sim, mu, inside, max_inside));
  }
  sim.run();
  EXPECT_EQ(max_inside, 1);
  EXPECT_FALSE(mu.locked());
}

TEST(SimMutex, FifoHandoff) {
  Simulator sim;
  Mutex mu(sim);
  std::vector<int> order;
  auto grab = [](Simulator& s, Mutex& m, std::vector<int>& ord,
                 int id) -> Task<void> {
    auto guard = co_await m.scoped_lock();
    ord.push_back(id);
    co_await s.delay(5_ns);
  };
  for (int i = 0; i < 5; ++i) sim.spawn(grab(sim, mu, order, i));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimMutex, ScopedLockMoveTransfersOwnership) {
  Simulator sim;
  Mutex mu(sim);
  sim.spawn([](Mutex& m) -> Task<void> {
    auto a = co_await m.scoped_lock();
    dlsim::ScopedLock b = std::move(a);
    EXPECT_TRUE(m.locked());
    // b unlocks at scope exit; a must not double-unlock.
  }(mu));
  sim.run();
  EXPECT_FALSE(mu.locked());
}

// ---------------------------------------------------------------------------
// Semaphore

TEST(SimSemaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int inside = 0;
  int max_inside = 0;
  auto body = [](Simulator& s, Semaphore& sm, int& in, int& mx) -> Task<void> {
    co_await sm.acquire();
    ++in;
    mx = std::max(mx, in);
    co_await s.delay(10_ns);
    --in;
    sm.release();
  };
  for (int i = 0; i < 6; ++i) sim.spawn(body(sim, sem, inside, max_inside));
  sim.run();
  EXPECT_EQ(max_inside, 2);
  EXPECT_EQ(sem.count(), 2u);
}

TEST(SimSemaphore, TryAcquire) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
  sem.release();
  EXPECT_TRUE(sem.try_acquire());
}

// ---------------------------------------------------------------------------
// Channel

TEST(SimChannel, FifoDelivery) {
  Simulator sim;
  Channel<int> ch(sim, 16);
  std::vector<int> received;
  sim.spawn([](Channel<int>& c) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await c.push(i);
    c.close();
  }(ch));
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimChannel, BoundedCapacityBlocksProducer) {
  Simulator sim;
  Channel<int> ch(sim, 2);
  SimTime producer_done = 0;
  sim.spawn([](Simulator& s, Channel<int>& c, SimTime& done) -> Task<void> {
    for (int i = 0; i < 4; ++i) co_await c.push(i);
    done = s.now();
    c.close();
  }(sim, ch, producer_done));
  sim.spawn([](Simulator& s, Channel<int>& c) -> Task<void> {
    for (;;) {
      co_await s.delay(100_ns);  // slow consumer
      auto v = co_await c.pop();
      if (!v) break;
    }
  }(sim, ch));
  sim.run();
  // Producer had to wait for the slow consumer to drain two slots.
  EXPECT_GE(producer_done, 200_ns);
}

TEST(SimChannel, PushAfterCloseThrows) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  ch.close();
  bool threw = false;
  sim.spawn([](Channel<int>& c, bool& t) -> Task<void> {
    try {
      co_await c.push(1);
    } catch (const dlsim::ChannelClosed&) {
      t = true;
    }
  }(ch, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST(SimChannel, CloseDrainsRemainingItems) {
  Simulator sim;
  Channel<int> ch(sim, 8);
  std::vector<int> received;
  sim.spawn([](Channel<int>& c, std::vector<int>& out) -> Task<void> {
    EXPECT_TRUE(c.try_push(1));
    EXPECT_TRUE(c.try_push(2));
    c.close();
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      out.push_back(*v);
    }
  }(ch, received));
  sim.run();
  EXPECT_EQ(received, (std::vector<int>{1, 2}));
}

TEST(SimChannel, TryPop) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  EXPECT_EQ(ch.try_pop(), std::nullopt);
  EXPECT_TRUE(ch.try_push(7));
  auto v = ch.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(SimChannel, ManyProducersOneConsumer) {
  Simulator sim;
  Channel<int> ch(sim, 4);
  int sum = 0;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 10;
  int producers_left = kProducers;
  for (int p = 0; p < kProducers; ++p) {
    sim.spawn([](Simulator& s, Channel<int>& c, int id, int& left) -> Task<void> {
      for (int i = 0; i < kPerProducer; ++i) {
        co_await s.delay(static_cast<dlsim::SimDuration>(id + 1));
        co_await c.push(1);
      }
      if (--left == 0) c.close();
    }(sim, ch, p, producers_left));
  }
  sim.spawn([](Channel<int>& c, int& total) -> Task<void> {
    for (;;) {
      auto v = co_await c.pop();
      if (!v) break;
      total += *v;
    }
  }(ch, sum));
  sim.run();
  EXPECT_EQ(sum, kProducers * kPerProducer);
}

// ---------------------------------------------------------------------------
// CpuCore

TEST(SimCpu, ComputeAccruesBusyTime) {
  Simulator sim;
  CpuCore core(sim, "c0");
  sim.spawn([](Simulator& s, CpuCore& c) -> Task<void> {
    co_await c.compute(30_ns);
    co_await s.delay(70_ns);  // blocked, not busy
  }(sim, core));
  sim.run();
  EXPECT_EQ(core.busy_ns(), 30_ns);
  EXPECT_EQ(core.elapsed_ns(), 100_ns);
  EXPECT_DOUBLE_EQ(core.utilization(), 0.3);
}

TEST(SimCpu, ChargeWithoutSuspend) {
  Simulator sim;
  CpuCore core(sim);
  core.charge(500_ns);
  EXPECT_EQ(core.busy_ns(), 500_ns);
}

TEST(SimCpu, ResetAccounting) {
  Simulator sim;
  CpuCore core(sim);
  sim.spawn([](CpuCore& c) -> Task<void> { co_await c.compute(10_ns); }(core));
  sim.run();
  core.reset_accounting();
  EXPECT_EQ(core.busy_ns(), 0u);
  EXPECT_EQ(core.elapsed_ns(), 0u);
}

TEST(SimSpinGrid, LooksAlternatePostAndPoll) {
  const dlsim::SpinGrid g{1000, 500, 200, 500};
  EXPECT_EQ(g.at(0), 1500u);  // post
  EXPECT_EQ(g.at(1), 1700u);  // poll
  EXPECT_EQ(g.at(2), 2200u);  // post
  EXPECT_TRUE(g.is_poll(3));
  EXPECT_EQ(g.first_at_or_after(0), 0u);
  EXPECT_EQ(g.first_at_or_after(1600), 1u);
  EXPECT_EQ(g.first_at_or_after(1700), 1u);
  EXPECT_EQ(g.first_at_or_after(1701), 2u);
  EXPECT_EQ(g.first_post_at_or_after(1600), 2u);
  EXPECT_EQ(g.round_polling_at_or_after(1701), 2u);
  EXPECT_EQ(g.posts_before(3), 2u);
  const dlsim::SpinGrid flat{0, 100, 0, 100};
  EXPECT_EQ(flat.first_at_or_after(250), 2u);
  EXPECT_EQ(flat.posts_before(2), 2u);
}

struct SpinOutcome {
  SimTime seen_at = 0;
  dlsim::SimDuration busy = 0;
  std::vector<int> order;
  bool operator==(const SpinOutcome&) const = default;
};

/// A poller waits for a flag that a setter raises at `set_at` (reached
/// through a first hop of `hop` ns); a bystander also acts at `set_at`
/// (first hop `by_hop`). The poller either spins in `quantum` steps or
/// idles on a doorbell the setter rings.
SpinOutcome run_flag_poll(bool idle, bool poller_first, SimTime set_at,
                          dlsim::SimDuration hop, dlsim::SimDuration by_hop) {
  constexpr dlsim::SimDuration kQuantum = 250;
  Simulator sim;
  CpuCore core(sim, "poller");
  Doorbell bell(sim);
  bool flag = false;
  SpinOutcome out;
  auto poller = [](Simulator& s, CpuCore& c, Doorbell& b, bool& f,
                   bool use_bell, SpinOutcome& o) -> Task<void> {
    for (;;) {
      const std::uint64_t since = b.stamp();
      if (f) break;
      if (use_bell) {
        const dlsim::SpinGrid grid{s.now(), kQuantum, 0, kQuantum};
        (void)co_await b.idle(c, grid, 1, since, std::nullopt);
      } else {
        co_await c.compute(kQuantum);
      }
    }
    o.seen_at = s.now();
    o.order.push_back(1);
  };
  auto setter = [](Simulator& s, Doorbell& b, bool& f, SimTime at,
                   dlsim::SimDuration first, SpinOutcome& o) -> Task<void> {
    co_await s.delay(first);
    co_await s.delay(at - first);
    f = true;
    b.ring(1);
    o.order.push_back(2);
  };
  auto bystander = [](Simulator& s, SimTime at, dlsim::SimDuration first,
                      SpinOutcome& o) -> Task<void> {
    co_await s.delay(first);
    co_await s.delay(at - first);
    o.order.push_back(3);
  };
  if (poller_first) sim.spawn(poller(sim, core, bell, flag, idle, out));
  sim.spawn(setter(sim, bell, flag, set_at, hop, out));
  sim.spawn(bystander(sim, set_at, by_hop, out));
  if (!poller_first) sim.spawn(poller(sim, core, bell, flag, idle, out));
  sim.run();
  out.busy = core.busy_ns();
  return out;
}

TEST(SimDoorbell, IdlePollerMatchesTheSpinOnEveryTie) {
  // The flag lands on a look instant (1000, 1250) or between looks, set
  // through hops that schedule it before, at, or after the poller's
  // previous look; the idle poller must see it at the same look, resume
  // in the same place among same-instant events, and be charged the same
  // busy time as the spinning one.
  for (const bool poller_first : {true, false}) {
    for (const SimTime set_at : {1000u, 1100u, 1250u}) {
      for (const dlsim::SimDuration hop : {0u, 100u, 500u, 750u, 1000u}) {
        for (const dlsim::SimDuration by_hop : {0u, 750u, 1000u}) {
          if (hop > set_at || by_hop > set_at) continue;
          SCOPED_TRACE(testing::Message()
                       << "poller_first=" << poller_first << " set_at="
                       << set_at << " hop=" << hop << " by_hop=" << by_hop);
          const SpinOutcome spin =
              run_flag_poll(false, poller_first, set_at, hop, by_hop);
          const SpinOutcome idle =
              run_flag_poll(true, poller_first, set_at, hop, by_hop);
          EXPECT_EQ(idle.seen_at, spin.seen_at);
          EXPECT_EQ(idle.busy, spin.busy);
          EXPECT_EQ(idle.order, spin.order);
        }
      }
    }
  }
}

TEST(SimDoorbell, TimerResumesWithoutARing) {
  Simulator sim;
  CpuCore core(sim, "poller");
  Doorbell bell(sim);
  std::uint64_t look = 0;
  sim.spawn([](Simulator& s, CpuCore& c, Doorbell& b,
               std::uint64_t& out) -> Task<void> {
    const dlsim::SpinGrid g{s.now(), 500, 100, 500};
    out = co_await b.idle(c, g, 1, b.stamp(), g.first_post_at_or_after(10_us));
  }(sim, core, bell, look));
  sim.run();
  EXPECT_EQ(look, 32u);  // post looks every 600 ns from 500 ns
  EXPECT_EQ(sim.now(), 10'100u);
  EXPECT_EQ(core.busy_ns(), 10'100u);
  EXPECT_EQ(sim.events_processed(), 2u);  // start + one wakeup
}

TEST(SimDoorbell, RunUntilPassesLooksOfAnIdlePoller) {
  // A poller parked with no timer, a ring from outside the run after
  // run_until(): it resumes at its first look after that time.
  Simulator sim;
  CpuCore core(sim, "poller");
  Doorbell bell(sim);
  std::uint64_t look = 0;
  sim.spawn([](Simulator& s, CpuCore& c, Doorbell& b,
               std::uint64_t& out) -> Task<void> {
    out = co_await b.idle(c, dlsim::SpinGrid{s.now(), 300, 0, 300}, 1,
                          b.stamp(), std::nullopt);
  }(sim, core, bell, look));
  sim.run_until(1'000);
  bell.ring(1);
  sim.run();
  EXPECT_EQ(look, 3u);  // looks at 300, 600, 900 passed; 1200 is next
  EXPECT_EQ(sim.now(), 1'200u);
  EXPECT_EQ(core.busy_ns(), 1'200u);
}

TEST(SimRng, SameSeedSameStreamDifferentSeedDifferentStream) {
  // The simulation-wide RNG is the reproducibility anchor for jitter and
  // chaos schedules: one seed must replay the exact draw sequence, and
  // reseeding must rewind it.
  Simulator a;
  Simulator b;
  a.seed_rng(42);
  b.seed_rng(42);
  std::vector<std::uint64_t> sa;
  std::vector<std::uint64_t> sb;
  for (int i = 0; i < 64; ++i) sa.push_back(a.rand64());
  for (int i = 0; i < 64; ++i) sb.push_back(b.rand64());
  EXPECT_EQ(sa, sb);
  // Reseeding rewinds the stream.
  a.seed_rng(42);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.rand64(), sa[i]);
  // A different seed diverges immediately (splitmix64 mixes the seed into
  // the first output).
  b.seed_rng(43);
  EXPECT_NE(b.rand64(), sa[0]);
  // The stream is not trivially degenerate: 64 draws, no repeats.
  std::vector<std::uint64_t> sorted = sa;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
