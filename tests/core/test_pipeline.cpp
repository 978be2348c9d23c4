#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "annotate/annotations.hpp"
#include "tree/validate.hpp"

namespace pprophet::core {
namespace {

// An annotated serial program for the facade: a balanced loop over an
// instrumented array with a small critical section.
void sample_program(vcpu::VirtualCpu& cpu) {
  vcpu::InstrumentedArray<double> data(cpu, 2048, 1.0);
  PAR_SEC_BEGIN("loop");
  for (int i = 0; i < 32; ++i) {
    PAR_TASK_BEGIN("chunk");
    // Many passes over the chunk: cold misses amortize away, keeping the
    // section compute-bound (MPI below the burden-model floor).
    for (int pass = 0; pass < 32; ++pass) {
      for (std::size_t j = 0; j < 64; ++j) {
        data.update(static_cast<std::size_t>(i) * 64 + j,
                    [](double v) { return v * 1.01; });
        cpu.compute(6);
      }
    }
    LOCK_BEGIN(1);
    cpu.compute(40);
    LOCK_END(1);
    PAR_TASK_END();
  }
  PAR_SEC_END(true);
}

ProphetConfig quick_config() {
  ProphetConfig c;
  c.thread_counts = {2, 4, 8};
  return c;
}

TEST(ProphetPipeline, ProfileProducesCompressedValidTree) {
  const Prophet prophet(quick_config());
  const ProfiledProgram p = prophet.profile(sample_program);
  EXPECT_TRUE(tree::is_valid(p.tree));
  // 32 near-identical iterations: online-less batch compression merges.
  EXPECT_LT(p.compression.nodes_after, p.compression.nodes_before);
  const tree::Node* sec = p.tree.root->child(0);
  EXPECT_EQ(sec->logical_child_count(), 32u);
  ASSERT_NE(sec->counters(), nullptr);
  EXPECT_GT(sec->counters()->instructions, 0u);
}

TEST(ProphetPipeline, AnalyzeProducesCurvesAndAdvice) {
  const Prophet prophet(quick_config());
  const ProphetReport r = prophet.run(sample_program);
  ASSERT_EQ(r.ff.size(), 3u);
  ASSERT_EQ(r.synth.size(), 3u);
  for (std::size_t i = 0; i < r.synth.size(); ++i) {
    EXPECT_GT(r.synth[i].speedup, 1.0);
    EXPECT_LE(r.synth[i].speedup, 8.1);
    // Flat loop: both emulators agree within the FF envelope.
    EXPECT_NEAR(r.ff[i].speedup, r.synth[i].speedup,
                0.25 * r.synth[i].speedup);
  }
  EXPECT_GE(r.advice.best.speedup, r.synth.back().speedup * 0.9);
  EXPECT_GE(r.max_burden, 1.0);
}

TEST(ProphetPipeline, MemoryModelToggleChangesNothingForComputeBound) {
  ProphetConfig with = quick_config();
  with.memory_model = true;
  ProphetConfig without = quick_config();
  without.memory_model = false;
  const double a = Prophet(with).run(sample_program).synth.back().speedup;
  const double b = Prophet(without).run(sample_program).synth.back().speedup;
  EXPECT_NEAR(a, b, 1e-9);  // tiny working set: burden is 1 either way
}

TEST(ProphetPipeline, ReportPrintsEveryPiece) {
  const ProphetReport r = Prophet(quick_config()).run(sample_program);
  std::ostringstream os;
  r.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("FF"), std::string::npos);
  EXPECT_NE(s.find("SYN"), std::string::npos);
  EXPECT_NE(s.find("8-core"), std::string::npos);
  EXPECT_NE(s.find("recommendation:"), std::string::npos);
  EXPECT_NE(s.find("max burden"), std::string::npos);
}

TEST(ProphetPipeline, DeterministicEndToEnd) {
  const Prophet prophet(quick_config());
  const ProphetReport a = prophet.run(sample_program);
  const ProphetReport b = prophet.run(sample_program);
  for (std::size_t i = 0; i < a.synth.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.synth[i].speedup, b.synth[i].speedup);
    EXPECT_DOUBLE_EQ(a.ff[i].speedup, b.ff[i].speedup);
  }
}

TEST(ProphetPipeline, ZeroCoreConfigGetsDefaulted) {
  ProphetConfig c;
  c.machine.cores = 0;
  EXPECT_EQ(Prophet(c).config().machine.cores, 12u);
}

TEST(ProphetPipeline, CilkParadigmWorksThroughTheFacade) {
  ProphetConfig c = quick_config();
  c.paradigm = Paradigm::CilkPlus;
  const ProphetReport r = Prophet(c).run(sample_program);
  EXPECT_GT(r.synth.back().speedup, 2.0);
}

TEST(ProphetPipeline, CompressOptionsAreHonoured) {
  ProphetConfig c = quick_config();
  c.compress.tolerance = 0.0;  // exact merges only
  const ProfiledProgram p = Prophet(c).profile(sample_program);
  // Iterations of the sample program differ slightly (cold misses), so the
  // zero-tolerance pass keeps more nodes than the default 5% pass.
  const ProfiledProgram loose = Prophet(quick_config()).profile(sample_program);
  EXPECT_GE(p.compression.nodes_after, loose.compression.nodes_after);
}

}  // namespace
}  // namespace pprophet::core
