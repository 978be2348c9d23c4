#include <gtest/gtest.h>

#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "machine/presets.hpp"
#include "memmodel/classify.hpp"
#include "tree/builder.hpp"
#include "util/fnv.hpp"

namespace pprophet::memmodel {
namespace {

CalibrationOptions quick_opts() {
  CalibrationOptions o;
  o.machine.cores = 12;
  o.machine.bandwidth.saturation_mbps = 1200.0;
  o.machine.bandwidth.log_alpha = 0.22;
  o.thread_counts = {2, 4, 8, 12};
  o.mem_cycles = 100'000;
  return o;
}

class CalibrationTest : public ::testing::Test {
 protected:
  static const Calibration& cal() {
    static const Calibration c = calibrate(quick_opts());
    return c;
  }
};

TEST_F(CalibrationTest, PsiIdentityBelowContention) {
  // 2 threads at 100 MB/s each: aggregate 200 << 1200 saturation.
  EXPECT_DOUBLE_EQ(cal().psi(2, 100.0), 100.0);
}

TEST_F(CalibrationTest, PsiShrinksAchievedTrafficUnderContention) {
  // 8 threads each demanding 300 MB/s: aggregate 2400 >> 1200 saturation.
  const double achieved = cal().psi(8, 300.0);
  EXPECT_LT(achieved, 300.0);
  EXPECT_GT(achieved, 1200.0 / 8.0 * 0.5);  // sane lower bound
}

TEST_F(CalibrationTest, PsiMoreThreadsLessPerThreadTraffic) {
  // Two threads at 300 MB/s (600 aggregate) never contend on this machine,
  // so only the clearly saturated counts order strictly.
  const double d = 300.0;
  EXPECT_GE(cal().psi(2, d), cal().psi(8, d));
  EXPECT_GT(cal().psi(8, d), cal().psi(12, d));
}

TEST_F(CalibrationTest, PsiFitsHaveSamplesAndPickAForm) {
  for (const PsiFit& f : cal().psi_fits()) {
    EXPECT_FALSE(f.samples.empty());
    // Contended-region fit quality should be decent on the DES.
    const double r2 = f.use_linear ? f.linear.r2 : f.log.r2;
    EXPECT_GT(r2, 0.8) << "t=" << f.threads;
  }
}

TEST_F(CalibrationTest, PhiPowerLawHasNegativeExponentNearMinusOne) {
  // The paper's Eq. (7) exponent is -0.964; omega*delta conservation makes
  // ~-1 the expected shape. The fit mixes thread counts, so allow slack.
  const util::PowerFit& phi = cal().phi_fit();
  EXPECT_LT(phi.b, -0.4);
  EXPECT_GT(phi.b, -2.0);
  EXPECT_GT(phi.r2, 0.5);
}

TEST_F(CalibrationTest, PhiNeverBelowUnloadedStall) {
  EXPECT_GE(cal().phi(1e9, 1e9), 200.0);
  EXPECT_DOUBLE_EQ(cal().phi(100.0, 100.0), 200.0);  // uncontended
}

TEST_F(CalibrationTest, StallGrowsWithContention) {
  // Deeper saturation (lower achieved per-thread traffic from the same
  // demand) must mean a larger per-access stall.
  const double d = 320.0;
  const double a4 = cal().psi(4, d);
  const double a12 = cal().psi(12, d);
  EXPECT_GT(cal().phi(a12, d), cal().phi(a4, d));
}

// --- burden factors ---

tree::SectionCounters counters(std::uint64_t n, Cycles t, std::uint64_t d) {
  tree::SectionCounters c;
  c.instructions = n;
  c.cycles = t;
  c.llc_misses = d;
  return c;
}

class BurdenTest : public CalibrationTest {
 protected:
  BurdenModel model{cal()};
};

TEST_F(BurdenTest, ComputeBoundSectionHasUnitBurden) {
  // MPI below the 0.001 floor (assumption 5).
  const auto c = counters(1'000'000, 1'000'000, 100);
  EXPECT_DOUBLE_EQ(model.burden(c, 12), 1.0);
}

TEST_F(BurdenTest, SingleThreadIsAlwaysUnit) {
  const auto c = counters(50'000'000, 100'000'000, 312'500);
  EXPECT_DOUBLE_EQ(model.burden(c, 1), 1.0);
}

TEST_F(BurdenTest, MemoryBoundSectionPenalizedAndMonotone) {
  // Memory-bound section: T=1e8 cycles, D=312'500 misses -> stall fraction
  // 200*D/T = 0.625, solo traffic 64000*D/T = 200 MB/s. Twelve threads
  // demand 2400 MB/s of a 1200 MB/s memory system.
  const auto c = counters(50'000'000, 100'000'000, 312'500);
  const double b2 = model.burden(c, 2);
  const double b4 = model.burden(c, 4);
  const double b12 = model.burden(c, 12);
  EXPECT_GE(b2, 1.0);
  EXPECT_GE(b4, b2);
  EXPECT_GT(b12, b4);
  EXPECT_GT(b12, 1.05);  // visible penalty at 12 threads
  EXPECT_LT(b12, 20.0);  // and a sane magnitude
}

TEST_F(BurdenTest, EmptyCountersAreUnit) {
  EXPECT_DOUBLE_EQ(model.burden(tree::SectionCounters{}, 8), 1.0);
}

TEST_F(BurdenTest, AnnotateBurdensAttachesToTopLevelSections) {
  tree::TreeBuilder b;
  b.begin_sec("hot");
  b.counters(counters(50'000'000, 100'000'000, 312'500));
  b.begin_task("t").u(100).end_task();
  b.end_sec();
  b.begin_sec("cold");
  b.counters(counters(1'000'000, 1'000'000, 10));
  b.begin_task("t").u(100).end_task();
  b.end_sec();
  tree::ProgramTree t = b.finish();
  const CoreCount threads[] = {2, 12};
  annotate_burdens(t, model, threads);
  EXPECT_GT(t.root->child(0)->burden(12), 1.0);
  EXPECT_DOUBLE_EQ(t.root->child(1)->burden(12), 1.0);
  EXPECT_DOUBLE_EQ(t.root->child(0)->burden(6), 1.0);  // not requested
}

// --- Table IV classification ---

TEST(Classify, TableIvUnchangedRow) {
  EXPECT_EQ(classify(MpiTrend::Unchanged, TrafficLevel::Low),
            ExpectedSpeedup::Scalable);
  EXPECT_EQ(classify(MpiTrend::Unchanged, TrafficLevel::Moderate),
            ExpectedSpeedup::Slowdown);
  EXPECT_EQ(classify(MpiTrend::Unchanged, TrafficLevel::Heavy),
            ExpectedSpeedup::SlowdownPlusPlus);
}

TEST(Classify, TableIvHigherRow) {
  EXPECT_EQ(classify(MpiTrend::ParallelHigher, TrafficLevel::Low),
            ExpectedSpeedup::LikelyScalable);
  EXPECT_EQ(classify(MpiTrend::ParallelHigher, TrafficLevel::Moderate),
            ExpectedSpeedup::SlowdownPlus);
  EXPECT_EQ(classify(MpiTrend::ParallelHigher, TrafficLevel::Heavy),
            ExpectedSpeedup::SlowdownPlusPlus);
}

TEST(Classify, TableIvLowerRow) {
  EXPECT_EQ(classify(MpiTrend::ParallelLower, TrafficLevel::Low),
            ExpectedSpeedup::ScalableOrSuperlinear);
  EXPECT_EQ(classify(MpiTrend::ParallelLower, TrafficLevel::Moderate),
            ExpectedSpeedup::Unmodeled);
  EXPECT_EQ(classify(MpiTrend::ParallelLower, TrafficLevel::Heavy),
            ExpectedSpeedup::Unmodeled);
}

TEST(Classify, TrafficLevelThresholds) {
  // The paper machine saturates at 1200 MB/s.
  const machine::MachineConfig westmere = machine::westmere_sim();
  // Low MPI forces Low regardless of traffic arithmetic.
  tree::SectionCounters low_mpi;
  low_mpi.instructions = 1'000'000;
  low_mpi.cycles = 1'000'000;
  low_mpi.llc_misses = 10;
  EXPECT_EQ(traffic_level(low_mpi, westmere), TrafficLevel::Low);

  // Heavy: 64000 * D / T = 64000 * 312500 / 1e8 = 200 MB/s > 0.15*1200?
  // 200 < 720 (0.6*1200): that's Moderate. Heavy needs > 720: D = 1.2e6.
  tree::SectionCounters heavy;
  heavy.instructions = 50'000'000;
  heavy.cycles = 100'000'000;
  heavy.llc_misses = 1'200'000;  // 768 MB/s
  EXPECT_EQ(traffic_level(heavy, westmere), TrafficLevel::Heavy);
  EXPECT_EQ(classify_serial(heavy, westmere),
            ExpectedSpeedup::SlowdownPlusPlus);

  // Moderate: 200 MB/s, between 0.15 and 0.6 of saturation.
  tree::SectionCounters moderate;
  moderate.instructions = 50'000'000;
  moderate.cycles = 100'000'000;
  moderate.llc_misses = 312'500;
  EXPECT_EQ(traffic_level(moderate, westmere), TrafficLevel::Moderate);
}

// Pins traffic_level and classify_serial on the paper machine over a grid
// of counters that straddles the MPI floor and both traffic thresholds
// (at 64e6 cycles, traffic in MB/s is (misses + writebacks) / 1000).
TEST(Classify, WestmereGridDigest) {
  const machine::MachineConfig westmere = machine::westmere_sim();
  util::Fnv64 h;
  int levels[3] = {0, 0, 0};
  for (const Cycles cycles : {0ULL, 64'000'000ULL, 100'000'000ULL,
                              3'000'000'000ULL}) {
    for (const std::uint64_t instructions :
         {0ULL, 1'000'000ULL, 50'000'000ULL, 1'000'000'000ULL}) {
      for (const std::uint64_t misses :
           {0ULL, 999ULL, 1'000ULL, 1'001ULL, 50'000ULL, 179'999ULL,
            180'000ULL, 180'001ULL, 312'500ULL, 719'999ULL, 720'000ULL,
            720'001ULL, 1'200'000ULL, 10'000'000ULL}) {
        for (const std::uint64_t writebacks : {0ULL, 1ULL, 100'000ULL}) {
          tree::SectionCounters c;
          c.cycles = cycles;
          c.instructions = instructions;
          c.llc_misses = misses;
          c.llc_writebacks = writebacks;
          const TrafficLevel level = traffic_level(c, westmere);
          ++levels[static_cast<int>(level)];
          h.byte(static_cast<std::uint8_t>(level));
          h.byte(static_cast<std::uint8_t>(classify_serial(c, westmere)));
        }
      }
    }
  }
  EXPECT_GT(levels[0], 0);
  EXPECT_GT(levels[1], 0);
  EXPECT_GT(levels[2], 0);
  EXPECT_EQ(h.h, 0xb9f8be5b7303ad3aULL);
}

TEST(Classify, NamesAreHumanReadable) {
  EXPECT_STREQ(to_string(TrafficLevel::Heavy), "Heavy");
  EXPECT_STREQ(to_string(MpiTrend::Unchanged), "Par ~= Ser");
  EXPECT_STREQ(to_string(ExpectedSpeedup::SlowdownPlusPlus), "Slowdown++");
}

}  // namespace
}  // namespace pprophet::memmodel
