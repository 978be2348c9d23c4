#include "emul/kismet.hpp"

#include <gtest/gtest.h>

#include "core/prophet.hpp"
#include "../property/random_trees.hpp"
#include "report/experiment.hpp"
#include "tree/builder.hpp"
#include "tree/compress.hpp"
#include "util/fnv.hpp"

namespace pprophet::emul {
namespace {

using tree::ProgramTree;
using tree::TreeBuilder;

TEST(Kismet, SerialProgramHasUnitParallelism) {
  TreeBuilder b;
  b.u(1'000);
  b.u(2'000);
  const ProgramTree t = b.finish();
  const KismetResult r = analyze_kismet(t);
  EXPECT_EQ(r.serial_cycles, 3'000u);
  EXPECT_EQ(r.critical_path, 3'000u);
  EXPECT_DOUBLE_EQ(r.self_parallelism(), 1.0);
  EXPECT_DOUBLE_EQ(r.bound(8), 1.0);
}

TEST(Kismet, BalancedLoopSpanIsOneIteration) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(100).end_task().repeat_last(32);
  b.end_sec();
  const ProgramTree t = b.finish();
  const KismetResult r = analyze_kismet(t);
  EXPECT_EQ(r.serial_cycles, 3'200u);
  EXPECT_EQ(r.critical_path, 100u);
  EXPECT_DOUBLE_EQ(r.self_parallelism(), 32.0);
  EXPECT_DOUBLE_EQ(r.bound(8), 8.0);   // work-limited
  EXPECT_DOUBLE_EQ(r.bound(64), 32.0); // span-limited
}

TEST(Kismet, ImbalancedLoopSpanIsLongestIteration) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("big").u(1'000).end_task();
  b.begin_task("small").u(100).end_task().repeat_last(10);
  b.end_sec();
  const ProgramTree t = b.finish();
  const KismetResult r = analyze_kismet(t);
  EXPECT_EQ(r.critical_path, 1'000u);
  EXPECT_DOUBLE_EQ(r.self_parallelism(), 2.0);
}

TEST(Kismet, LocksSerializeWithinASection) {
  TreeBuilder b;
  b.begin_sec("s");
  for (int i = 0; i < 8; ++i) b.begin_task("t").l(1, 500).end_task();
  b.end_sec();
  const ProgramTree t = b.finish();
  const KismetResult r = analyze_kismet(t);
  EXPECT_EQ(r.critical_path, 8u * 500u);  // one lock: fully serial
  EXPECT_DOUBLE_EQ(r.bound(8), 1.0);
}

TEST(Kismet, DistinctLocksDoNotCompound) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").l(1, 500).end_task().repeat_last(4);
  b.begin_task("t").l(2, 500).end_task().repeat_last(4);
  b.end_sec();
  const ProgramTree t = b.finish();
  // Each lock serializes its own 2000 cycles; they can overlap each other.
  EXPECT_EQ(analyze_kismet(t).critical_path, 2'000u);
}

TEST(Kismet, NestedParallelismMultipliesSelfParallelism) {
  TreeBuilder b;
  b.begin_sec("outer");
  for (int i = 0; i < 4; ++i) {
    b.begin_task("ot");
    b.begin_sec("inner");
    b.begin_task("it").u(100).end_task().repeat_last(4);
    b.end_sec();
    b.end_task();
  }
  b.end_sec();
  const ProgramTree t = b.finish();
  const KismetResult r = analyze_kismet(t);
  EXPECT_EQ(r.serial_cycles, 1'600u);
  EXPECT_EQ(r.critical_path, 100u);  // all 16 leaves parallel
  EXPECT_DOUBLE_EQ(r.self_parallelism(), 16.0);
}

TEST(Kismet, IsAnUpperBoundOnGroundTruth) {
  // Kismet's defining property (and flaw): it never under-estimates, so it
  // cannot see overhead- or schedule-induced saturation.
  TreeBuilder b;
  for (int k = 0; k < 16; ++k) {
    b.begin_sec("inner");
    for (int i = 0; i < 8; ++i) b.begin_task("t").u(2'000).end_task();
    b.end_sec();
  }
  const ProgramTree t = b.finish();
  const KismetResult k = analyze_kismet(t);
  core::PredictOptions o = report::paper_options(core::Method::GroundTruth);
  for (const CoreCount n : {2u, 4u, 8u}) {
    const double real = core::predict(t, n, o).speedup;
    EXPECT_GE(k.bound(n) * 1.0001, real) << n;
  }
  // And with real overheads it is strictly optimistic at scale.
  EXPECT_GT(k.bound(8), core::predict(t, 8, o).speedup);
}

TEST(Kismet, EmptyTreeRejected) {
  EXPECT_THROW(analyze_kismet(tree::ProgramTree{}), std::invalid_argument);
}

TEST(Kismet, RepeatCountsExpand) {
  TreeBuilder b;
  b.begin_sec("s");
  b.begin_task("t").u(10).end_task().repeat_last(1000);
  b.end_sec();
  const KismetResult r = analyze_kismet(b.finish());
  EXPECT_EQ(r.serial_cycles, 10'000u);
  EXPECT_EQ(r.critical_path, 10u);
}

// Repeats are absorbed in closed form: 2^40 copies cost no more than one,
// and a zero repeat contributes nothing (not even its span).
TEST(Kismet, HugeAndZeroRepeatsAreClosedForm) {
  constexpr std::uint64_t kHuge = 1ULL << 40;
  TreeBuilder b;
  b.u(5).repeat_last(kHuge);
  b.begin_sec("s");
  b.begin_task("t").u(10).l(1, 2).end_task().repeat_last(kHuge);
  b.begin_task("never").u(1'000'000).end_task().repeat_last(0);
  b.end_sec();
  const KismetResult r = analyze_kismet(b.finish());
  EXPECT_EQ(r.serial_cycles, 5 * kHuge + 12 * kHuge);
  // The section's span is lock 1's serialized demand, 2 × 2^40 cycles.
  EXPECT_EQ(r.critical_path, 5 * kHuge + 2 * kHuge);
}

// Pins work and span over random trees, each as generated and compressed
// (compression folds equal siblings into repeats), so a change to how
// repeats are absorbed shows as a digest change.
TEST(Kismet, RandomTreeDigest) {
  util::Fnv64 h;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    ProgramTree t = tree::random_tree(seed);
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) tree::compress(t);
      const KismetResult r = analyze_kismet(t);
      h.u64(r.serial_cycles);
      h.u64(r.critical_path);
    }
  }
  EXPECT_EQ(h.h, 0x8ee809fd9fd71e55ULL);
}

}  // namespace
}  // namespace pprophet::emul
