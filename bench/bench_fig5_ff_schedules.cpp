// Figure 5 reproduction: the fast-forwarding worked example — a loop with
// three unequal iterations and one lock, parallelized on a dual core under
// the three OpenMP schedules. The paper reports emulated times
// 1150/1250/950 (+ε) and speedups ≈ 1.30 / 1.20 / 1.58.
#include <iostream>

#include "emul/ff.hpp"
#include "machine/timeline.hpp"
#include "runtime/omp_executor.hpp"
#include "report/experiment.hpp"
#include "tree/builder.hpp"
#include "util/table.hpp"

using namespace pprophet;

namespace {

tree::ProgramTree figure5_tree() {
  tree::TreeBuilder b;
  b.begin_sec("loop");
  b.begin_task("I0").u(150).l(1, 450).u(50).end_task();
  b.begin_task("I1").u(100).l(1, 300).u(200).end_task();
  b.begin_task("I2").u(150).l(1, 50).u(50).end_task();
  b.end_sec();
  return b.finish();
}

}  // namespace

int main() {
  report::print_header(std::cout,
                       "Figure 5 — FF emulation of three schedules "
                       "(I0=650, I1=600, I2=250 cycles; one lock; 2 cores)");
  const tree::CompiledTree ct = tree::CompiledTree::compile(figure5_tree());

  struct Case {
    const char* name;
    runtime::OmpSchedule sched;
    Cycles paper_cycles;
    double paper_speedup;
  };
  const Case cases[] = {
      {"schedule(static,1)", runtime::OmpSchedule::StaticCyclic, 1150, 1.30},
      {"schedule(static)", runtime::OmpSchedule::StaticBlock, 1250, 1.20},
      {"schedule(dynamic,1)", runtime::OmpSchedule::Dynamic, 950, 1.58},
  };

  util::Table table({"case", "emulated cycles", "speedup", "paper cycles",
                     "paper speedup"});
  for (const Case& c : cases) {
    emul::FfConfig cfg;
    cfg.num_threads = 2;
    cfg.schedule = c.sched;
    cfg.chunk = 1;
    cfg.overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};  // ε = 0
    const emul::FfResult r = emul::emulate_ff(ct, cfg);
    table.add_row({c.name, std::to_string(r.parallel_cycles),
                   util::fmt_f(r.speedup(), 2),
                   std::to_string(c.paper_cycles) + "+eps",
                   util::fmt_f(c.paper_speedup, 2)});
  }
  table.print(std::cout);
  std::cout << "\nSerial length: 1500 cycles. With zero parallel overhead\n"
               "(eps = 0) the emulated times match the paper's exactly.\n";

  // Redraw the paper's Gantt illustration from actual machine runs.
  std::cout << "\nExecution timelines (machine runs of the same cases):\n";
  for (const Case& c : cases) {
    machine::MachineConfig mcfg;
    mcfg.cores = 2;
    mcfg.context_switch = 0;
    runtime::OmpConfig ocfg;
    ocfg.num_threads = 2;
    ocfg.schedule = c.sched;
    ocfg.chunk = 1;
    ocfg.overheads = runtime::OmpOverheads{0, 0, 0, 0, 0, 0, 0};
    machine::Timeline tl;
    runtime::ExecMode mode = runtime::ExecMode::real();
    mode.timeline = &tl;
    runtime::run_tree_omp(ct, mcfg, ocfg, mode);
    std::cout << "\n" << c.name << ":\n";
    tl.print(std::cout);
  }
  return 0;
}
