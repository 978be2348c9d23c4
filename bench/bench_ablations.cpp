// Ablations of the design decisions DESIGN.md calls out:
//  A1. OS preemption on/off in the ground-truth machine — quantifies the
//      Figure-7 gap the FF suffers from (quantum -> infinity reproduces the
//      FF's 1.5 inside the machine itself).
//  A2. Burden factor (static per-section multiplier) vs the machine's
//      dynamic contention — how much accuracy the paper's cheap model
//      gives up on the memory-bound kernels.
//  A3. Compression tolerance sweep — tree size vs prediction error.
//  A4. Runtime overhead constants on/off — their share of predicted time
//      for fine-grained inner loops.
//  A5. Cilk work-stealing grain sweep — parallelism vs spawn/steal cost.
#include <iostream>

#include "kernel_suite.hpp"
#include "runtime/cilk_executor.hpp"
#include "tree/builder.hpp"
#include "tree/compress.hpp"
#include "tree/tree_stats.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

namespace {

tree::ProgramTree figure7_tree() {
  const Cycles k = 10'000;
  tree::TreeBuilder b;
  b.begin_sec("Loop1");
  b.begin_task("i0");
  b.begin_sec("LoopA");
  b.begin_task("a0").u(10 * k).end_task();
  b.begin_task("a1").u(5 * k).end_task();
  b.end_sec();
  b.end_task();
  b.begin_task("i1");
  b.begin_sec("LoopB");
  b.begin_task("b0").u(5 * k).end_task();
  b.begin_task("b1").u(10 * k).end_task();
  b.end_sec();
  b.end_task();
  b.end_sec();
  return b.finish();
}

void ablation_preemption() {
  std::cout << "\nA1. OS preemption (Figure-7 tree, 2 cores):\n";
  const tree::ProgramTree t = figure7_tree();
  util::Table table({"machine quantum", "real speedup", "note"});
  core::PredictOptions o = report::paper_options(core::Method::GroundTruth);
  o.machine.cores = 2;
  o.machine.context_switch = 0;
  o.omp_overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
  for (const Cycles q : {Cycles{1'000}, Cycles{10'000}, Cycles{100'000},
                         Cycles{100'000'000}}) {
    o.machine.quantum = q;
    const double s = core::predict(t, 2, o).speedup;
    // Node lengths are 50k-100k cycles: a quantum at or beyond that is
    // effectively non-preemptive.
    table.add_row({q >= 100'000'000 ? "infinite (non-preemptive)"
                                    : std::to_string(q) + " cycles",
                   util::fmt_f(s, 2),
                   q < 50'000 ? "time-slicing recovers ~2.0"
                              : "quantum >= task length: the FF's 1.5 regime"});
  }
  table.print(std::cout);
}

void ablation_burden_vs_dynamic() {
  std::cout << "\nA2. Static burden factor vs dynamic machine contention "
               "(memory-bound kernels, 12-core prediction error vs Real):\n";
  const auto& model = bench::paper_burden_model();
  util::Table table({"kernel", "memory-blind err", "burden-factor err"});
  for (const auto& entry : bench::paper_suite(1)) {
    if (entry.name != "NPB-FT" && entry.name != "NPB-CG" &&
        entry.name != "NPB-MG") {
      continue;
    }
    const bench::KernelCurves c = bench::evaluate_kernel(entry, model);
    const util::ErrorStats blind = util::error_stats(c.pred, c.real);
    const util::ErrorStats burden = util::error_stats(c.predm, c.real);
    table.add_row({entry.name, util::fmt_pct(blind.mean_error),
                   util::fmt_pct(burden.mean_error)});
  }
  table.print(std::cout);
}

void ablation_compression_tolerance() {
  std::cout << "\nA3. Compression tolerance vs accuracy (random Test1, "
               "8-core FF prediction after lossy merging):\n";
  workloads::Test1Params p;
  p.i_max = 512;
  p.shape = workloads::WorkShape::Random;
  p.spread = 0.6;
  const tree::ProgramTree exact = workloads::run_test1(p);
  core::PredictOptions o = report::paper_options(core::Method::FastForward);
  const double base = core::predict(exact, 8, o).speedup;
  util::Table table({"tolerance", "physical nodes", "prediction", "drift"});
  for (const double tol : {0.0, 0.05, 0.15, 0.30, 0.60}) {
    tree::ProgramTree copy;
    copy.root = exact.root->clone();
    tree::compress(copy, {.tolerance = tol, .lossy = tol > 0.05,
                          .lossy_tolerance = tol});
    const auto stats = tree::compute_stats(copy);
    const double s = core::predict(copy, 8, o).speedup;
    table.add_row({util::fmt_pct(tol, 0),
                   util::fmt_i(static_cast<long long>(stats.physical_nodes)),
                   util::fmt_f(s, 3),
                   util::fmt_pct(util::relative_error(s, base))});
  }
  table.print(std::cout);
  std::cout << "(the paper's 5% tolerance: large size win, negligible "
               "drift)\n";
}

void ablation_overhead_constants() {
  std::cout << "\nA4. Runtime overhead constants (fine-grained inner loops, "
               "8 threads):\n";
  tree::TreeBuilder b;
  for (int k = 0; k < 32; ++k) {
    b.begin_sec("inner");
    for (int i = 0; i < 16; ++i) b.begin_task("t").u(3'000).end_task();
    b.end_sec();
  }
  const tree::ProgramTree t = b.finish();
  util::Table table({"overheads", "FF speedup", "SYN speedup"});
  for (const bool on : {true, false}) {
    core::PredictOptions o = report::paper_options(core::Method::FastForward);
    if (!on) {
      o.omp_overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
      o.synth_overheads = runtime::SynthOverheads{0, 0};
    }
    const double ff = core::predict(t, 8, o).speedup;
    o.method = core::Method::Synthesizer;
    const double syn = core::predict(t, 8, o).speedup;
    table.add_row({on ? "calibrated" : "zeroed", util::fmt_f(ff, 2),
                   util::fmt_f(syn, 2)});
  }
  table.print(std::cout);
  std::cout << "(fork/dispatch constants dominate fine-grained inner-loop\n"
               "predictions — why the paper calibrates them and why\n"
               "Suitability's coarse constants fail on LU)\n";
}

void ablation_cilk_grain() {
  std::cout << "\nA5. Cilk work-stealing grain (recursive tree, 8 workers):\n";
  tree::TreeBuilder b;
  b.begin_sec("loop");
  for (int i = 1; i <= 256; ++i) {
    b.begin_task("t").u(static_cast<Cycles>(500 + (i % 7) * 400)).end_task();
  }
  b.end_sec();
  const tree::ProgramTree t = b.finish();
  const tree::CompiledTree ct = tree::CompiledTree::compile(t);
  util::Table table({"grain", "speedup", "note"});
  for (const std::uint64_t grain : {1ull, 4ull, 16ull, 64ull, 256ull}) {
    core::PredictOptions o = report::paper_options(core::Method::GroundTruth);
    o.paradigm = core::Paradigm::CilkPlus;
    o.cilk_overheads.spawn = 120;
    o.cilk_overheads.steal = 1'000;
    o.cilk_overheads.loop_split = 150;
    // grain is a CilkConfig knob: thread it through a custom run.
    runtime::CilkConfig cc;
    cc.num_workers = 8;
    cc.grain = grain;
    cc.overheads = o.cilk_overheads;
    const runtime::RunResult r = runtime::run_tree_cilk(
        ct, o.machine, cc, runtime::ExecMode::real());
    const double s = static_cast<double>(t.total_serial_cycles()) /
                     static_cast<double>(r.elapsed);
    table.add_row({std::to_string(grain), util::fmt_f(s, 2),
                   grain == 1      ? "max parallelism, max spawn cost"
                   : grain == 256  ? "single chunk: serial"
                                   : ""});
  }
  table.print(std::cout);
  std::cout << "(the auto grain trip/(8*workers) sits in the flat middle of\n"
               "this curve — the standard Cilk engineering trade-off)\n";
}

}  // namespace

int main() {
  report::print_header(std::cout, "Ablations of DESIGN.md decisions");
  ablation_preemption();
  ablation_burden_vs_dynamic();
  ablation_compression_tolerance();
  ablation_overhead_constants();
  ablation_cilk_grain();
  return 0;
}
