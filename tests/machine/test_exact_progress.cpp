// Exactness of the DES progress accounting (machine/machine.hpp, "Event
// scheduling"): hand-derived completion times and work counts, a seeded
// property over random compute-only scripts, and the split invariance the
// replays' Exec folding relies on.
#include "machine/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "machine/bodies.hpp"
#include "machine/timeline.hpp"
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

// --- Split invariance ---------------------------------------------------
//
// The OpenMP and Cilk replays hand the machine one Exec for a run of
// back-to-back compute-only ops (runtime/omp_executor.cpp, OmpBody::next).
// That is exact only if cutting a compute-only Exec into back-to-back
// pieces changes nothing the machine simulates. Seeded scripts mix
// compute-only Execs, memory-bound Execs (never cut), critical sections and
// wait/notify latches on more threads than cores, with the quantum below
// the op lengths and the context switch below the quantum, so piece
// boundaries land beside preemptions, lock hand-offs and wake-ups. Pieces
// may be empty.

bool compute_only(const Op& op) {
  return op.kind == Op::Kind::Exec && op.mem == 0 && op.traffic_mbps == 0.0;
}

/// Latch i is notified once by thread i and waited on only by threads
/// above i, so no script can deadlock.
std::vector<std::vector<Op>> random_scripts(util::Xoshiro256& rng,
                                            std::uint32_t threads) {
  std::vector<std::vector<Op>> scripts(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    std::vector<Op>& ops = scripts[t];
    const auto n = rng.uniform_u64(2, 6);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Cycles len = rng.uniform_u64(300, 6'000);
      switch (rng.uniform_u64(0, 3)) {
        case 0:
          ops.push_back(Op::exec(len));
          break;
        case 1: {
          const LockId lock = static_cast<LockId>(rng.uniform_u64(0, 1));
          ops.push_back(Op::acquire(lock));
          ops.push_back(Op::exec(len));
          ops.push_back(Op::release(lock));
          break;
        }
        case 2:
          ops.push_back(Op::exec(len / 2, len / 2, 900.0));
          break;
        default:
          if (t > 0) {
            ops.push_back(Op::wait(
                static_cast<WaitHandle>(rng.uniform_u64(0, t - 1))));
          }
          ops.push_back(Op::exec(len));
          break;
      }
    }
    const auto at = static_cast<std::ptrdiff_t>(rng.uniform_u64(0, ops.size()));
    ops.insert(ops.begin() + at, Op::notify(static_cast<WaitHandle>(t)));
  }
  return scripts;
}

/// Cuts every compute-only Exec into 1-4 back-to-back pieces.
std::vector<Op> cut_compute(const std::vector<Op>& script,
                            util::Xoshiro256& rng) {
  std::vector<Op> out;
  for (const Op& op : script) {
    if (!compute_only(op)) {
      out.push_back(op);
      continue;
    }
    std::vector<Cycles> cuts(rng.uniform_u64(0, 3));
    for (Cycles& c : cuts) c = rng.uniform_u64(0, op.compute);
    std::sort(cuts.begin(), cuts.end());
    Cycles done = 0;
    for (const Cycles c : cuts) {
      out.push_back(Op::exec(c - done));
      done = c;
    }
    out.push_back(Op::exec(op.compute - done));
  }
  return out;
}

struct Simulated {
  MachineStats stats;
  std::vector<TimelineSpan> spans;
};

Simulated simulate(const MachineConfig& c,
                   const std::vector<std::vector<Op>>& scripts) {
  Machine m(c);
  Timeline timeline;
  m.set_timeline(&timeline);
  // Latches 0..threads-1 first, so latch i is handle i.
  for (std::size_t i = 0; i < scripts.size(); ++i) m.make_event();
  for (const std::vector<Op>& ops : scripts) {
    m.spawn_thread(std::make_unique<ScriptBody>(ops));
  }
  Simulated out{m.run(), timeline.spans()};
  return out;
}

TEST(ExactProgress, CuttingComputeOnlyExecsChangesNothing) {
  util::Xoshiro256 rng(0xf01dULL);
  std::uint64_t preemptions = 0, contentions = 0, cut_ops = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto cores = static_cast<CoreCount>(rng.uniform_u64(1, 4));
    const auto threads =
        static_cast<std::uint32_t>(cores + rng.uniform_u64(1, 4));
    const Cycles quantum = rng.uniform_u64(100, 1'000);
    const Cycles ctx = rng.uniform_u64(0, quantum / 2);
    MachineConfig c = cfg(cores, quantum, ctx);
    c.bandwidth.saturation_mbps = 1'500;
    const std::vector<std::vector<Op>> whole = random_scripts(rng, threads);
    std::vector<std::vector<Op>> cut;
    for (const std::vector<Op>& ops : whole) {
      cut.push_back(cut_compute(ops, rng));
      cut_ops += cut.back().size() - ops.size();
    }
    const Simulated a = simulate(c, whole);
    const Simulated b = simulate(c, cut);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(threads) + " threads on " +
                 std::to_string(cores) + " cores, quantum " +
                 std::to_string(quantum) + ", ctx " + std::to_string(ctx));
    EXPECT_EQ(a.stats.finish_time, b.stats.finish_time);
    EXPECT_EQ(a.stats.total_busy, b.stats.total_busy);
    EXPECT_EQ(a.stats.total_lock_wait, b.stats.total_lock_wait);
    EXPECT_EQ(a.stats.preemptions, b.stats.preemptions);
    EXPECT_EQ(a.stats.context_switches, b.stats.context_switches);
    EXPECT_EQ(a.stats.lock_acquisitions, b.stats.lock_acquisitions);
    EXPECT_EQ(a.stats.lock_contentions, b.stats.lock_contentions);
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].thread, b.spans[i].thread) << "span " << i;
      EXPECT_EQ(a.spans[i].begin, b.spans[i].begin) << "span " << i;
      EXPECT_EQ(a.spans[i].end, b.spans[i].end) << "span " << i;
      EXPECT_EQ(a.spans[i].kind, b.spans[i].kind) << "span " << i;
    }
    preemptions += a.stats.preemptions;
    contentions += a.stats.lock_contentions;
  }
  // The grid reaches what it claims to: preemption, lock contention, and
  // scripts that really were cut.
  EXPECT_GT(preemptions, 0u);
  EXPECT_GT(contentions, 0u);
  EXPECT_GT(cut_ops, 0u);
}

}  // namespace
}  // namespace pprophet::machine
