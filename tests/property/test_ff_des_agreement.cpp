// Cross-engine agreement: on flat sections with no memory traffic, threads
// at most the core count and the costs the engines price differently set to
// zero, the fast-forwarding emulator (FF), the ground-truth replay (Real)
// and the synthesizer replay (SYN) must report the same parallel cycles,
// bit for bit. The FF is exact on this domain; any gap is a divergence in
// the shared OpenMP cost model (runtime/iter_sched.hpp,
// runtime/overheads.hpp).
//
// Zeroed: the fork cost (the replays start workers while the master still
// forks, the FF after it), static_dispatch (the FF charges it per started
// iteration, the replays per fetched range), the machine's context switch
// and the synthesizer's traversal costs. Join, lock and dynamic-dispatch
// costs stay at their defaults.
//
// Excluded: dynamic with chunk > 1. The FF charges dynamic_dispatch to every
// re-queued chunk-mate, the replays once per fetched range, so the two agree
// almost nowhere there. It is one of the semantics ROADMAP item 3 decides.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/prophet.hpp"
#include "random_trees.hpp"
#include "tree/compile.hpp"
#include "workloads/test_patterns.hpp"

namespace pprophet::core {
namespace {

using runtime::OmpSchedule;

constexpr CoreCount kThreads[] = {1, 2, 4, 8, 12};

struct Case {
  OmpSchedule schedule;
  std::uint64_t chunk;
};

constexpr Case kCases[] = {
    {OmpSchedule::StaticCyclic, 1}, {OmpSchedule::StaticBlock, 1},
    {OmpSchedule::Dynamic, 1},      {OmpSchedule::Guided, 1},
    {OmpSchedule::StaticCyclic, 2}, {OmpSchedule::StaticBlock, 2},
    {OmpSchedule::Guided, 2},       {OmpSchedule::StaticCyclic, 5},
    {OmpSchedule::StaticBlock, 5},  {OmpSchedule::Guided, 5},
};

PredictOptions agreement_options() {
  PredictOptions o;
  o.machine.cores = 12;
  o.machine.context_switch = 0;
  o.omp_overheads.fork_base = 0;
  o.omp_overheads.fork_per_thread = 0;
  o.omp_overheads.static_dispatch = 0;
  o.synth_overheads = runtime::SynthOverheads{0, 0};
  return o;
}

TEST(FfDesAgreement, FlatSectionsAgreeBitForBit) {
  const std::uint64_t base = tree::property_seed(1);
  std::uint64_t points = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    util::Xoshiro256 rng(base + k);
    for (const double lock1_prob : {0.0, 0.5}) {
      workloads::Test1Params p;
      p.i_max = rng.uniform_u64(8, 64);
      p.lock1_prob = lock1_prob;
      p.seed = rng();
      const tree::ProgramTree t = workloads::run_test1(p);
      SCOPED_TRACE(tree::seed_trace(base + k, t));
      const tree::CompiledTree ct = tree::CompiledTree::compile(t);
      ASSERT_EQ(ct.section_count(), 1u);
      for (const Case& c : kCases) {
        for (const CoreCount threads : kThreads) {
          PredictOptions o = agreement_options();
          o.schedule = c.schedule;
          o.chunk = c.chunk;
          o.method = Method::FastForward;
          const Cycles ff = predict_section_cycles(ct, 0, threads, o);
          o.method = Method::GroundTruth;
          const Cycles real = predict_section_cycles(ct, 0, threads, o);
          o.method = Method::Synthesizer;
          const Cycles syn = predict_section_cycles(ct, 0, threads, o);
          ASSERT_EQ(ff, real) << "sched=" << runtime::to_string(c.schedule)
                              << " chunk=" << c.chunk << " t=" << threads
                              << " lock1_prob=" << lock1_prob;
          ASSERT_EQ(ff, syn) << "sched=" << runtime::to_string(c.schedule)
                             << " chunk=" << c.chunk << " t=" << threads
                             << " lock1_prob=" << lock1_prob;
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(points, 100u * 2 * (sizeof kCases / sizeof kCases[0]) * 5);
}

}  // namespace
}  // namespace pprophet::core
