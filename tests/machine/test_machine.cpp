#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include "machine/bodies.hpp"

namespace pprophet::machine {
namespace {

MachineConfig cfg(CoreCount cores, Cycles quantum = 100'000,
                  Cycles ctx = 0) {
  MachineConfig c;
  c.cores = cores;
  c.quantum = quantum;
  c.context_switch = ctx;
  return c;
}

TEST(Machine, SingleThreadRunsToCompletion) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(1000), Op::exec(500)}));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 1500u);
  EXPECT_EQ(s.spawned_threads, 1u);
  EXPECT_EQ(s.preemptions, 0u);
}

TEST(Machine, EmptyMachineFinishesAtZero) {
  Machine m(cfg(2));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 0u);
}

TEST(Machine, RunTwiceThrows) {
  Machine m(cfg(1));
  m.run();
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, ZeroCoresRejected) {
  EXPECT_THROW(Machine(cfg(0)), std::invalid_argument);
}

TEST(Machine, TwoThreadsTwoCoresRunInParallel) {
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  EXPECT_EQ(m.run().finish_time, 1000u);
}

TEST(Machine, TwoThreadsOneCoreSerialize) {
  Machine m(cfg(1, /*quantum=*/1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  EXPECT_EQ(m.run().finish_time, 2000u);
}

TEST(Machine, PreemptionTimeSlicesOversubscribedThreads) {
  // 2 threads, 1 core, quantum far smaller than work: both should finish at
  // ~the same (doubled) time instead of one finishing at 1000.
  Machine m(cfg(1, /*quantum=*/100));
  const ThreadId a = m.spawn_thread(
      std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  // Observe thread a's completion through its exit event.
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  struct Watcher : ThreadBody {
    WaitHandle evt;
    Cycles* done_at;
    explicit Watcher(WaitHandle e, Cycles* d) : evt(e), done_at(d) {}
    int phase = 0;
    std::optional<Op> next(Machine& m, ThreadId) override {
      if (phase == 0) {
        ++phase;
        return Op::wait(evt);
      }
      *done_at = m.now();
      return std::nullopt;
    }
  };
  // (watcher occupies no core while blocked)
  Cycles a_done = 0;
  m.spawn_thread(std::make_unique<Watcher>(m.exit_event(a), &a_done));
  const MachineStats s = m.run();
  EXPECT_GT(s.preemptions, 5u);
  // Compute-only progress is exact and switches are free here.
  EXPECT_EQ(s.finish_time, 2000u);
  // With time slicing, thread a cannot finish much before the end.
  EXPECT_GT(a_done, 1700u);
}

TEST(Machine, ContextSwitchCostCharged) {
  Machine with(cfg(1, 100, /*ctx=*/10));
  with.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  with.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(1000)}));
  const MachineStats s = with.run();
  EXPECT_GT(s.context_switches, 0u);
  EXPECT_GT(s.finish_time, 2000u);  // 2000 + switching overhead
}

TEST(Machine, MutexSerializesCriticalSections) {
  Machine m(cfg(2));
  for (int i = 0; i < 2; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
        Op::acquire(1), Op::exec(1000), Op::release(1)}));
  }
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 2000u);  // fully serialized
  EXPECT_EQ(s.lock_acquisitions, 2u);
  EXPECT_EQ(s.lock_contentions, 1u);
  EXPECT_EQ(s.total_lock_wait, 1000u);
}

TEST(Machine, UncontendedLocksAreFree) {
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
      Op::acquire(1), Op::exec(500), Op::release(1)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
      Op::acquire(2), Op::exec(500), Op::release(2)}));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 500u);
  EXPECT_EQ(s.lock_contentions, 0u);
}

TEST(Machine, FifoLockHandoffIsFair) {
  // Three threads contend; completion order must follow arrival order.
  Machine m(cfg(4, 1'000'000));
  std::vector<Cycles> done(3, 0);
  for (int i = 0; i < 3; ++i) {
    struct Body : ThreadBody {
      int idx;
      Cycles* done_at;
      Cycles stagger;
      int phase = 0;
      Body(int i, Cycles* d, Cycles st) : idx(i), done_at(d), stagger(st) {}
      std::optional<Op> next(Machine& m, ThreadId) override {
        switch (phase++) {
          case 0: return Op::exec(stagger);  // arrive staggered
          case 1: return Op::acquire(7);
          case 2: return Op::exec(100);
          case 3: return Op::release(7);
          default:
            *done_at = m.now();
            return std::nullopt;
        }
      }
    };
    m.spawn_thread(std::make_unique<Body>(i, &done[i],
                                          static_cast<Cycles>(1 + i * 10)));
  }
  m.run();
  EXPECT_LT(done[0], done[1]);
  EXPECT_LT(done[1], done[2]);
}

TEST(Machine, ReleasingUnownedLockThrows) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10), Op::release(3)}));
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, WaitOnNotifiedEventDoesNotBlock) {
  Machine m(cfg(1));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::notify(h), Op::wait(h), Op::exec(100)}));
  EXPECT_EQ(m.run().finish_time, 100u);
}

TEST(Machine, WaitBlocksUntilNotify) {
  Machine m(cfg(2));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::wait(h), Op::exec(10)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(500), Op::notify(h)}));
  EXPECT_EQ(m.run().finish_time, 510u);
}

TEST(Machine, DeadlockIsDetected) {
  Machine m(cfg(1));
  const WaitHandle h = m.make_event();  // never notified
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::wait(h)}));
  EXPECT_THROW(m.run(), std::logic_error);
}

TEST(Machine, SpawnFromRunningThread) {
  // A main thread forks a worker mid-run and joins it.
  struct Main : ThreadBody {
    int phase = 0;
    ThreadId child = kNoThread;
    std::optional<Op> next(Machine& m, ThreadId) override {
      switch (phase++) {
        case 0:
          return Op::exec(100);
        case 1:
          child = m.spawn_thread(
              std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(400)}));
          return Op::exec(50);
        case 2:
          return Op::wait(m.exit_event(child));
        default:
          return std::nullopt;
      }
    }
  };
  Machine m(cfg(2));
  m.spawn_thread(std::make_unique<Main>());
  // Child starts at t=100 on the idle core, finishes at 500; main waits.
  EXPECT_EQ(m.run().finish_time, 500u);
}

TEST(Machine, GreedySchedulingUsesAllCores) {
  // 4 unequal threads on 2 cores, non-preemptive sizes: makespan equals the
  // greedy list-scheduling bound.
  Machine m(cfg(2, 1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(10)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(5)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(5)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(10)}));
  // Order: c0 <- 10, c1 <- 5; t=5: c1 <- 5; t=10: c0 <- 10; finish 20.
  EXPECT_EQ(m.run().finish_time, 20u);
}

TEST(Machine, PreemptionFixesNestedImbalance) {
  // The Figure-7 situation reduced to threads: lengths 10,5,5,10 (scaled),
  // 2 cores. Non-preemptive greedy gives 20 (speedup 1.5); preemptive RR
  // sharing gives ~15 (speedup 2.0).
  const Cycles k = 100'000;  // scale so the quantum is fine-grained
  Machine nonpre(cfg(2, /*quantum=*/1'000'000'000));
  for (const Cycles len : {10 * k, 5 * k, 5 * k, 10 * k}) {
    nonpre.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  EXPECT_EQ(nonpre.run().finish_time, 20 * k);

  Machine pre(cfg(2, /*quantum=*/k / 10));
  for (const Cycles len : {10 * k, 5 * k, 5 * k, 10 * k}) {
    pre.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  const Cycles t = pre.run().finish_time;
  EXPECT_LT(t, 16 * k);  // ~15k: the paper's "real speedup 2.0"
  EXPECT_GE(t, 15 * k);
}

TEST(Machine, BusyAccountingMatchesWork) {
  Machine m(cfg(2, 1'000'000));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(300)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(700)}));
  EXPECT_EQ(m.run().total_busy, 1000u);
}

TEST(Machine, FuncBodyDrivesAdHocStateMachines) {
  Machine m(cfg(1));
  int phase = 0;
  m.spawn_thread(std::make_unique<FuncBody>(
      [&phase](Machine&, ThreadId) -> std::optional<Op> {
        switch (phase++) {
          case 0: return Op::exec(100);
          case 1: return Op::exec(50);
          default: return std::nullopt;
        }
      }));
  EXPECT_EQ(m.run().finish_time, 150u);
  EXPECT_EQ(phase, 3);
}

TEST(Machine, NotifyWakesEveryWaiter) {
  Machine m(cfg(4, 1'000'000));
  const WaitHandle h = m.make_event();
  for (int i = 0; i < 3; ++i) {
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::wait(h), Op::exec(100)}));
  }
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(500), Op::notify(h)}));
  // All three waiters run their 100 cycles in parallel after the notify.
  EXPECT_EQ(m.run().finish_time, 600u);
}

TEST(Machine, EventStaysNotifiedForLateWaiters) {
  Machine m(cfg(2));
  const WaitHandle h = m.make_event();
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::notify(h)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(1'000), Op::wait(h), Op::exec(10)}));
  EXPECT_EQ(m.run().finish_time, 1'010u);  // wait is a no-op by then
}

TEST(Machine, MemOnlyExecUsesStallCycles) {
  Machine m(cfg(1));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 5'000, 100.0)}));
  EXPECT_EQ(m.run().finish_time, 5'000u);  // below saturation: undilated
}

// --- bandwidth contention ---

TEST(Bandwidth, NoDilationBelowSaturation) {
  BandwidthModel bw({.saturation_mbps = 6000, .log_alpha = 0.2});
  EXPECT_DOUBLE_EQ(bw.dilation(3000), 1.0);
  EXPECT_DOUBLE_EQ(bw.dilation(6000), 1.0);
}

TEST(Bandwidth, DilationGrowsBeyondSaturation) {
  BandwidthModel bw({.saturation_mbps = 6000, .log_alpha = 0.2});
  const double d2 = bw.dilation(12000);
  const double d4 = bw.dilation(24000);
  EXPECT_GT(d2, 1.0);
  EXPECT_GT(d4, d2);
  // Effective bandwidth grows only logarithmically.
  EXPECT_LT(bw.effective_bandwidth(24000), 2 * bw.effective_bandwidth(12000));
}

TEST(Machine, MemoryContentionDilatesConcurrentThreads) {
  MachineConfig c = cfg(4);
  c.bandwidth.saturation_mbps = 4000;
  // One memory-heavy thread alone: mem cycles run at full speed.
  {
    Machine m(c);
    m.spawn_thread(std::make_unique<ScriptBody>(
        std::vector<Op>{Op::exec(0, 10000, 3000)}));
    EXPECT_EQ(m.run().finish_time, 10000u);
  }
  // Four such threads: 12000 MB/s demanded of 4000 → everyone dilates.
  {
    Machine m(c);
    for (int i = 0; i < 4; ++i) {
      m.spawn_thread(std::make_unique<ScriptBody>(
          std::vector<Op>{Op::exec(0, 10000, 3000)}));
    }
    const Cycles t = m.run().finish_time;
    EXPECT_GT(t, 15000u);  // clearly slower than the no-contention 10000
  }
}

TEST(Machine, ComputeOnlyThreadsUnaffectedByBandwidth) {
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 1000;
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10000, 0, 0)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(10000, 0, 0)}));
  EXPECT_EQ(m.run().finish_time, 10000u);
}

TEST(Machine, ContentionEndsWhenHeavyThreadFinishes) {
  // A short memory hog and a long memory task: after the hog exits, the
  // survivor speeds back up, so the finish time is between the all-dilated
  // and no-dilation extremes.
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 4000;
  c.bandwidth.log_alpha = 0.0;  // hard ceiling: dilation = demand/sat
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 2000, 4000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 10000, 4000)}));
  const Cycles t = m.run().finish_time;
  // Both dilate 2x while together. Hog: 2000 mem cycles at f=2 -> done 4000.
  // Survivor consumed 2000 of 10000 by then; remaining 8000 at f=1.
  EXPECT_EQ(t, 12000u);
}

// --- DES work counters (events, stale_events, reschedules) ---

TEST(Machine, WorkCountersOnMemoryContention) {
  // A short memory hog beside a memory task with a compute tail, 2 cores,
  // dilation = demand / sat (4000 MB/s).
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 4000;
  c.bandwidth.log_alpha = 0.0;
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 2000, 4000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 10000, 4000), Op::exec(1000)}));
  const MachineStats s = m.run();
  // run() opens at f = 2: push hog@4000, B@20000            (2 reschedules)
  // pop hog@4000: hog exits, f = 1, push B@12000            (event 1, +1)
  // pop B@12000: B's compute tail starts, push B@13000      (event 2, +1)
  // pop B@13000: B exits                                    (event 3)
  // pop B@20000: superseded at 4000                         (event 4, stale)
  EXPECT_EQ(s.finish_time, 13000u);
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.stale_events, 1u);
  EXPECT_EQ(s.reschedules, 4u);
}

TEST(Machine, WorkCountersUnderTimeSlicing) {
  // Two 200-cycle threads on one core with a 100-cycle quantum. Every
  // quantum check preempts, and each preemption strands the preempted
  // thread's completion event.
  Machine m(cfg(1, /*quantum=*/100));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(200)}));
  m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(200)}));
  const MachineStats s = m.run();
  // Pops, in order (A and B alternate every 100 cycles):
  //   quantum@100 (A out, B in)   A@200 stale   quantum@200 (B out, A in)
  //   B@300 stale                 quantum@300 (A out with 0 left, B in)
  //   A@300 stale                 quantum@400 (B out with 0 left, A in)
  //   B@400 stale                 A@400 (A exits, B in)   B@400 (B exits)
  //   quantum@500 stale (the core was re-dispatched after A exited)
  // Completions pushed: A@200, B@300, A@300, B@400, A@400, B@400.
  EXPECT_EQ(s.finish_time, 400u);
  EXPECT_EQ(s.events, 11u);
  EXPECT_EQ(s.stale_events, 5u);
  EXPECT_EQ(s.reschedules, 6u);
  EXPECT_EQ(s.preemptions, 4u);
  EXPECT_EQ(s.context_switches, 4u);
}

TEST(Machine, UnmovedCompletionIsNotRepushed) {
  // Two memory tasks of unequal length on 2 cores below saturation: the
  // dilation stays 1, so the survivor's queued completion stands.
  MachineConfig c = cfg(2);
  c.bandwidth.saturation_mbps = 4000;
  Machine m(c);
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(1000, 1000, 1000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(2000, 2000, 1000)}));
  const MachineStats s = m.run();
  // run() opens at f = 1: push A@2000, B@4000               (2 reschedules)
  // pop A@2000: A exits, f stays 1; B has 1000 + 1000 left, due 4000 as
  //             queued, so no push                          (event 1)
  // pop B@4000: B exits                                     (event 2)
  EXPECT_EQ(s.finish_time, 4000u);
  EXPECT_EQ(s.events, 2u);
  EXPECT_EQ(s.stale_events, 0u);
  EXPECT_EQ(s.reschedules, 2u);
}

TEST(Machine, StaleEventsNeverExceedEvents) {
  for (const CoreCount cores : {1u, 2u, 3u}) {
    MachineConfig c = cfg(cores, /*quantum=*/700);
    c.bandwidth.saturation_mbps = 1500;
    Machine m(c);
    for (int i = 0; i < 5; ++i) {
      m.spawn_thread(std::make_unique<ScriptBody>(std::vector<Op>{
          Op::exec(300 + 100 * i, 900, 600.0 + 100 * i),
          Op::acquire(1), Op::exec(250), Op::release(1),
          Op::exec(0, 400 * i, 900)}));
    }
    const MachineStats s = m.run();
    EXPECT_GT(s.events, 0u) << cores;
    EXPECT_LE(s.stale_events, s.events) << cores;
    // run() drains the queue, so every pushed completion is popped.
    EXPECT_GE(s.events, s.reschedules) << cores;
  }
}

}  // namespace
}  // namespace pprophet::machine
