// Table IV reproduction: expected-speedup classification by memory
// behaviour. Prints the full matrix, then classifies each suite benchmark's
// hottest section from its *serial* counters and compares the verdict with
// its measured 12-core ground-truth speedup.
#include <iostream>

#include "kernel_suite.hpp"
#include "memmodel/classify.hpp"
#include "memmodel/mpi_trend.hpp"
#include "report/experiment.hpp"
#include "util/table.hpp"

using namespace pprophet;

int main() {
  report::print_header(std::cout, "Table IV — memory-behaviour classification");

  {
    util::Table matrix({"MPI trend \\ traffic", "Low", "Moderate", "Heavy"});
    for (const auto trend :
         {memmodel::MpiTrend::ParallelHigher, memmodel::MpiTrend::Unchanged,
          memmodel::MpiTrend::ParallelLower}) {
      std::vector<std::string> row{memmodel::to_string(trend)};
      for (const auto level :
           {memmodel::TrafficLevel::Low, memmodel::TrafficLevel::Moderate,
            memmodel::TrafficLevel::Heavy}) {
        row.push_back(memmodel::to_string(memmodel::classify(trend, level)));
      }
      matrix.add_row(std::move(row));
    }
    matrix.print(std::cout);
    std::cout << "(lightweight profiling observes only the middle row — the\n"
                 "others need parallel-MPI knowledge, future work in the "
                 "paper)\n";
  }

  std::cout << "\nClassification of the benchmark suite (hottest section):\n";
  const auto& model = bench::paper_burden_model();
  const machine::MachineConfig machine = report::paper_machine();
  util::Table table({"benchmark", "traffic", "class", "beta_12",
                     "real 12-core speedup"});
  for (const auto& entry : bench::paper_suite(1)) {
    const bench::KernelCurves c = bench::evaluate_kernel(entry, model);
    const tree::SectionCounters* hottest = nullptr;
    for (const auto& child : c.tree.root->children()) {
      if (child->kind() != tree::NodeKind::Sec || !child->counters()) continue;
      if (hottest == nullptr || child->counters()->cycles > hottest->cycles) {
        hottest = child->counters();
      }
    }
    if (hottest == nullptr) continue;
    const auto level = memmodel::traffic_level(*hottest, machine);
    const auto verdict = memmodel::classify_serial(*hottest, machine);
    double beta = 1.0;
    for (const auto& child : c.tree.root->children()) {
      if (child->kind() == tree::NodeKind::Sec) {
        beta = std::max(beta, child->burden(12));
      }
    }
    table.add_row({entry.name, memmodel::to_string(level),
                   memmodel::to_string(verdict), util::fmt_f(beta, 2),
                   util::fmt_f(c.real.back(), 2)});
  }
  table.print(std::cout);
  std::cout << "\nExpectation: 'Scalable' rows reach high speedups; "
               "'Slowdown'/'Slowdown++' rows saturate early.\n";

  // Extension: the MPI-trend analyzer (memmodel/mpi_trend.hpp) covers the
  // rows the paper leaves to future work by sending each access of a loop,
  // as it runs, through what-if cache configurations.
  std::cout << "\nMPI-trend estimation (the future-work rows), on probe "
               "loops:\n";
  {
    cachesim::CacheConfig tiny;
    tiny.l1 = {2 * 1024, 2};
    tiny.l2 = {4 * 1024, 4};
    tiny.llc = {16 * 1024, 4};
    memmodel::TrendOptions topts;
    topts.threads = 8;
    topts.sockets = 2;
    topts.cache = tiny;

    util::Table trends({"probe loop", "serial MPI", "parallel MPI (est.)",
                        "trend row"});
    const auto add_probe = [&](const char* name, auto&& body) {
      vcpu::VirtualCpu cpu(tiny);
      memmodel::MpiTrendAnalyzer analyzer(cpu, topts);
      analyzer.loop_begin();
      body(cpu, analyzer);
      const memmodel::TrendReport r = analyzer.loop_end();
      trends.add_row({name, util::fmt_f(r.serial_mpi, 4),
                      util::fmt_f(r.parallel_mpi, 4),
                      memmodel::to_string(r.trend())});
    };
    add_probe("streaming (WS >> caches)", [](vcpu::VirtualCpu& cpu,
                                             memmodel::MpiTrendAnalyzer& a) {
      vcpu::InstrumentedArray<double> arr(cpu, 64 * 1024);
      for (std::uint64_t i = 0; i < arr.size(); ++i) {
        a.iteration(i / 512);
        arr.set(i, 1.0);
      }
    });
    add_probe("blocked reuse (WS ~ aggregate LLC)",
              [](vcpu::VirtualCpu& cpu, memmodel::MpiTrendAnalyzer& a) {
                vcpu::InstrumentedArray<double> arr(cpu, 3 * 1024);
                const std::uint64_t iters = 16;
                const std::size_t per = arr.size() / iters;
                for (int pass = 0; pass < 6; ++pass) {
                  for (std::uint64_t i = 0; i < iters; ++i) {
                    a.iteration(i);
                    for (std::size_t k = 0; k < per; ++k) {
                      arr.update(i * per + k, [](double v) { return v + 1; });
                    }
                  }
                }
              });
    add_probe("shared table scan (slices thrash)",
              [](vcpu::VirtualCpu& cpu, memmodel::MpiTrendAnalyzer& a) {
                vcpu::InstrumentedArray<double> table_arr(cpu, 1536);
                for (int pass = 0; pass < 8; ++pass) {
                  for (std::uint64_t i = 0; i < 32; ++i) {
                    a.iteration(i);
                    for (std::size_t k = 0; k < table_arr.size(); k += 8) {
                      (void)table_arr.get(k);
                    }
                  }
                }
              });
    trends.print(std::cout);
    std::cout << "With the trend row known, classify(trend, traffic) covers\n"
                 "all nine Table IV cells rather than just the middle row.\n";
  }
  return 0;
}
