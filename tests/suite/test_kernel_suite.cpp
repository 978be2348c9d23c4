// Integration tests of the kernel-suite driver behind the Figure 2/12 and
// Table I/IV benches: the full profile → compress → burden → predict
// pipeline on real kernels, checked for the paper's qualitative invariants.
#include <gtest/gtest.h>

#include "kernel_suite.hpp"
#include "emul/kismet.hpp"
#include "serve/profile_store.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "tree/validate.hpp"

namespace pprophet::bench {
namespace {

const memmodel::BurdenModel& model() { return paper_burden_model(); }

std::vector<SuiteEntry> suite() { return paper_suite(1); }

const SuiteEntry& entry(const std::string& name) {
  static std::vector<SuiteEntry> s = suite();
  for (const auto& e : s) {
    if (e.name == name) return e;
  }
  throw std::runtime_error("no suite entry " + name);
}

TEST(KernelSuite, HasTheEightPaperBenchmarks) {
  const auto s = suite();
  ASSERT_EQ(s.size(), 8u);
  const char* expected[] = {"MD-OMP",  "LU-OMP", "FFT-Cilk", "QSort-Cilk",
                            "NPB-EP",  "NPB-FT", "NPB-CG",   "NPB-MG"};
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].name, expected[i]);
  }
}

TEST(KernelSuite, CurvesHaveTheRightShapeEverywhere) {
  for (const auto& e : suite()) {
    const KernelCurves c = evaluate_kernel(e, model());
    ASSERT_EQ(c.real.size(), report::paper_core_counts().size()) << e.name;
    EXPECT_TRUE(tree::is_valid(c.tree)) << e.name;
    for (std::size_t i = 0; i < c.real.size(); ++i) {
      const double cores =
          static_cast<double>(report::paper_core_counts()[i]);
      EXPECT_GT(c.real[i], 0.5) << e.name;
      EXPECT_LE(c.real[i], cores * 1.02) << e.name;  // no superlinear
      EXPECT_LE(c.predm[i], c.pred[i] * 1.02) << e.name
          << ": burden can only slow the estimate down";
    }
  }
}

TEST(KernelSuite, ComputeBoundKernelsHaveUnitBurden) {
  for (const char* name : {"MD-OMP", "NPB-EP", "QSort-Cilk"}) {
    const KernelCurves c = evaluate_kernel(entry(name), model());
    for (std::size_t i = 0; i < c.pred.size(); ++i) {
      EXPECT_NEAR(c.predm[i], c.pred[i], 1e-9) << name;
    }
  }
}

TEST(KernelSuite, MemoryBoundKernelsGetBurdened) {
  for (const char* name : {"NPB-FT", "NPB-CG", "NPB-MG"}) {
    const KernelCurves c = evaluate_kernel(entry(name), model());
    EXPECT_LT(c.predm.back(), c.pred.back() * 0.95) << name;
    // And the burden brings the 12-core estimate closer to Real.
    const double blind_err = std::abs(c.pred.back() - c.real.back());
    const double burden_err = std::abs(c.predm.back() - c.real.back());
    EXPECT_LT(burden_err, blind_err) << name;
  }
}

TEST(KernelSuite, SynthesizerTracksRealOnComputeKernels) {
  for (const char* name : {"MD-OMP", "NPB-EP"}) {
    const KernelCurves c = evaluate_kernel(entry(name), model());
    for (std::size_t i = 0; i < c.real.size(); ++i) {
      EXPECT_NEAR(c.pred[i], c.real[i], 0.10 * c.real[i]) << name;
    }
  }
}

TEST(KernelSuite, ScaleParameterGrowsTheProblems) {
  // PP_SCALE=2 must still produce runnable entries (spot-check the cheap
  // ones; the big kernels are exercised by the benches).
  for (const auto& e : paper_suite(2)) {
    if (e.name != "QSort-Cilk" && e.name != "NPB-EP") continue;
    const KernelCurves c = evaluate_kernel(e, model());
    EXPECT_GT(c.real.back(), 1.0) << e.name;
  }
}

TEST(BaselineEmulators, SuitabilityIsWorstOnLuAndRecursion) {
  const auto& m = model();
  const KernelCurves lu = evaluate_kernel(entry("LU-OMP"), m);
  // The paper: Suitability "was not effective to predict LU-OMP".
  EXPECT_LT(lu.suit.back(), 0.6 * lu.real.back());
  const KernelCurves fft = evaluate_kernel(entry("FFT-Cilk"), m);
  EXPECT_LT(fft.suit.back(), 0.8 * fft.real.back());
}

TEST(BaselineEmulators, KismetUpperBoundsTheSuite) {
  const auto& m = model();
  for (const char* name : {"MD-OMP", "LU-OMP", "NPB-EP"}) {
    const KernelCurves c = evaluate_kernel(entry(name), m);
    const emul::KismetResult k = emul::analyze_kismet(c.tree);
    for (std::size_t i = 0; i < c.real.size(); ++i) {
      const CoreCount t = report::paper_core_counts()[i];
      EXPECT_GE(k.bound(t) * 1.02, c.real[i]) << name << " @" << t;
    }
  }
}

TEST(KernelSuite, UploadGuardMeasuresSuiteTreesExactly) {
  // What the serve upload guard computes from the PPTB dictionary must
  // equal the expanded tree for every paper kernel, and every suite tree
  // must fit the upload limits with room to spare.
  for (const auto& e : suite()) {
    workloads::KernelRun run = e.run();
    tree::compress(run.tree);
    const std::string bytes = tree::to_binary(tree::pack(run.tree));
    const tree::PackedTree packed = tree::from_binary(bytes);
    const tree::UnpackedExtent ext = tree::measure_unpacked(packed);
    const tree::ProgramTree back = tree::unpack(packed);
    ASSERT_FALSE(ext.overflow) << e.name;
    EXPECT_EQ(ext.nodes, back.node_count()) << e.name;
    EXPECT_EQ(ext.serial_cycles, back.total_serial_cycles()) << e.name;
    EXPECT_LT(ext.nodes * 16, serve::kMaxUploadNodes) << e.name;
    EXPECT_LT(ext.depth * 16, serve::kMaxUploadDepth) << e.name;
    serve::ProfileStore store;
    const auto put = store.put(bytes);
    EXPECT_EQ(put.entry->nodes, back.node_count()) << e.name;
    EXPECT_EQ(put.entry->serial_cycles, back.total_serial_cycles()) << e.name;
  }
}

}  // namespace
}  // namespace pprophet::bench
