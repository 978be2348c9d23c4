// Exactness of the DES progress accounting (machine/machine.hpp, "Event
// scheduling"): hand-derived completion times and work counts, and a seeded
// property over random compute-only scripts.
#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "machine/bodies.hpp"
#include "util/rng.hpp"

namespace pprophet::machine {
namespace {

MachineConfig cfg(CoreCount cores, Cycles quantum, Cycles ctx) {
  MachineConfig c;
  c.cores = cores;
  c.quantum = quantum;
  c.context_switch = ctx;
  return c;
}

TEST(ExactProgress, ComputeOnlyCompletionsDoNotDrift) {
  // Three compute-only threads on three cores: each finishes at exactly its
  // own length, and no completion is ever re-pushed.
  Machine m(cfg(3, 100'000, 1'500));
  for (const Cycles len : {1000u, 2000u, 4000u}) {
    m.spawn_thread(
        std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(len)}));
  }
  const MachineStats s = m.run();
  // run() pushes 1000, 2000 and 4000; each pop exits its thread.
  EXPECT_EQ(s.finish_time, 4000u);
  EXPECT_EQ(s.events, 3u);
  EXPECT_EQ(s.stale_events, 0u);
  EXPECT_EQ(s.reschedules, 3u);
  EXPECT_EQ(s.total_busy, 7000u);
}

TEST(ExactProgress, MemoryOnlyOpsAcrossSaturation) {
  // Two memory-only ops at 1000 MB/s each on 2 cores, default bandwidth
  // (saturation 1200 MB/s, log_alpha 0.22). Together they demand 2000 MB/s:
  //   f = 2000 / (1200 (1 + 0.22 ln(2000/1200))) = 1.49829
  // run(): push A@ceil(1000 f) = 1499, B@ceil(2000 f) = 2997  (2 pushes)
  // pop A@1499: demand 1000, f = 1; B has 2000 (1 - 1499 / 2996.57)
  //             = 999.52 mem cycles left, push B@1499 + 1000   (1 push)
  // pop B@2499: B exits; pop B@2997: stale.
  Machine m(cfg(2, 100'000, 1'500));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 1000, 1000.0)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 2000, 1000.0)}));
  const MachineStats s = m.run();
  EXPECT_EQ(s.finish_time, 2499u);
  EXPECT_EQ(s.events, 3u);
  EXPECT_EQ(s.stale_events, 1u);
  EXPECT_EQ(s.reschedules, 3u);
  EXPECT_EQ(s.total_busy, 1499u + 2499u);
}

TEST(ExactProgress, ComputeOnlyCompletionStandsAcrossDilationChange) {
  // A compute-only thread beside two memory hogs: the dilation changes when
  // a hog exits, which re-pushes the surviving hog but not the compute op.
  MachineConfig c = cfg(3, 100'000, 0);
  c.bandwidth.saturation_mbps = 4000;
  c.bandwidth.log_alpha = 0.0;  // dilation = demand / saturation
  Machine m(c);
  m.spawn_thread(
      std::make_unique<ScriptBody>(std::vector<Op>{Op::exec(5000)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 1000, 4000.0)}));
  m.spawn_thread(std::make_unique<ScriptBody>(
      std::vector<Op>{Op::exec(0, 3000, 4000.0)}));
  const MachineStats s = m.run();
  // run(): f = 2; push C@5000, H1@2000, H2@6000             (3 pushes)
  // pop H1@2000: f = 1; H2 has 2000 left, push H2@4000      (1 push)
  // pop H2@4000, pop C@5000, pop H2@6000 (stale).
  EXPECT_EQ(s.finish_time, 5000u);
  EXPECT_EQ(s.events, 4u);
  EXPECT_EQ(s.stale_events, 1u);
  EXPECT_EQ(s.reschedules, 4u);
}

// Random compute-only scripts (zero-length ops included) under every
// scheduler path: idle cores, oversubscription with preemption, context
// switches. Progress is integer arithmetic, so the busy cycles are exactly
// the work plus the charged switches, and without oversubscription the
// makespan is exactly the longest thread.
TEST(ExactProgress, RandomComputeOnlyScriptsAreExact) {
  util::Xoshiro256 rng(0xde5e7ac7ULL);
  for (int trial = 0; trial < 400; ++trial) {
    const auto cores = static_cast<CoreCount>(rng.uniform_u64(1, 6));
    const auto threads = static_cast<std::uint32_t>(rng.uniform_u64(1, 9));
    const Cycles quantum = rng.uniform_u64(50, 20'000);
    // A switch at or above the quantum would leave no time for work.
    const Cycles ctx =
        rng.uniform_u64(0, 3) == 0 ? 0 : rng.uniform_u64(1, quantum / 2);
    Machine m(cfg(cores, quantum, ctx));
    Cycles work = 0;
    Cycles longest = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
      std::vector<Op> ops;
      Cycles sum = 0;
      const auto n = rng.uniform_u64(1, 6);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Cycles len =
            rng.uniform_u64(0, 4) == 0 ? 0 : rng.uniform_u64(1, 60'000);
        ops.push_back(Op::exec(len));
        sum += len;
      }
      work += sum;
      longest = std::max(longest, sum);
      m.spawn_thread(std::make_unique<ScriptBody>(std::move(ops)));
    }
    const MachineStats s = m.run();
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(threads) + " threads on " +
                 std::to_string(cores) + " cores, quantum " +
                 std::to_string(quantum) + ", ctx " + std::to_string(ctx));
    EXPECT_EQ(s.total_busy, work + ctx * s.context_switches);
    EXPECT_LE(s.stale_events, s.events);
    if (threads <= cores) {
      EXPECT_EQ(s.finish_time, longest);
      EXPECT_EQ(s.preemptions, 0u);
      EXPECT_EQ(s.stale_events, 0u);
    }
    if (cores == 1) {
      // One core that is never idle: the makespan is its busy time.
      EXPECT_EQ(s.finish_time, s.total_busy);
    }
  }
}

}  // namespace
}  // namespace pprophet::machine
