// Workload `profile`: one op profiles all eight paper kernels on the vcpu
// with reuse collection on, then compresses each tree and packs it to PPTB
// bytes. The seed sets the kernel order inside each op. No emulator runs, so
// this workload isolates vcpu, cachesim, trace, reuse and tree.
#include <algorithm>
#include <sstream>

#include "bench.hpp"
#include "spans.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pprophet;

namespace {

/// Whole-suite ops per second of --seconds: fixes the op count, so every
/// run of a seed executes the same ops however fast the host is.
constexpr double kOpsPerSecond = 2.5;

}  // namespace

Outcome run_profile(const Args& args, Clock::time_point process_start) {
  Outcome out;
  SuiteSetup base;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point t0 = r == 0 ? process_start : Clock::now();
    base.run();
    out.setup_s.push_back(ms_since(t0) / 1e3);
  }
  const std::vector<SuiteKernel>& suite = base.suite;

  const auto ops = static_cast<std::size_t>(
      std::max(1.0, kOpsPerSecond * static_cast<double>(args.seconds)));
  util::Xoshiro256 rng(args.seed);
  std::vector<std::vector<std::size_t>> orders(ops);
  for (auto& order : orders) {
    order.resize(suite.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(0, i - 1)]);
    }
  }

  // Per-kernel counts of the first op: every later op must repeat them.
  std::vector<std::uint64_t> first_instr(suite.size(), 0);
  std::vector<std::uint64_t> first_miss(suite.size(), 0);
  std::uint64_t instructions = 0, llc_misses = 0, nodes_before = 0,
                nodes_after = 0, pptb_bytes = 0;
  std::size_t count_mismatches = 0;

  double probe_total_ms = 0.0;
  const Clock::time_point timed0 = Clock::now();
  for (std::size_t op = 0; op < ops; ++op) {
    const Clock::time_point probe0 = Clock::now();
    out.probe_ms.push_back(probe_host_ms());
    probe_total_ms += ms_since(probe0);
    set_current_op(static_cast<std::int64_t>(op));
    const Clock::time_point op0 = Clock::now();
    bool ok = true;
    {
      Span op_span("op");
      for (const std::size_t k : orders[op]) {
        workloads::KernelRun run;
        {
          Span s("workloads.kernel");
          run = run_suite_kernel(k, /*collect_reuse=*/true);
        }
        tree::CompressStats cs;
        {
          Span s("tree.compress");
          cs = tree::compress(run.tree);
        }
        std::string bytes;
        {
          Span s("tree.pack");
          bytes = tree::to_binary(tree::pack(run.tree));
        }
        // Checksums are compared; PPTB bytes are not (README: trees depend
        // on the process's heap layout through the simulated cache).
        if (run.checksum != suite[k].checksum || bytes.empty()) ok = false;
        if (op == 0) {
          first_instr[k] = run.instructions;
          first_miss[k] = run.llc_misses;
        } else if (run.instructions != first_instr[k] ||
                   run.llc_misses != first_miss[k]) {
          ++count_mismatches;
        }
        instructions += run.instructions;
        llc_misses += run.llc_misses;
        nodes_before += cs.nodes_before;
        nodes_after += cs.nodes_after;
        pptb_bytes += bytes.size();
      }
    }
    out.op_ms.push_back(ms_since(op0));
    ++out.attempted;
    if (!ok) ++out.failed;
  }
  out.timed_s = (ms_since(timed0) - probe_total_ms) / 1e3;
  set_current_op(-1);

  out.pred_err_pct = suite_pred_err_pct(base.reference, *base.model);
  out.counts = {{"vcpu.instructions", instructions},
                {"cachesim.llc_misses", llc_misses},
                {"tree.nodes_before", nodes_before},
                {"tree.nodes_after", nodes_after}};
  std::ostringstream note;
  note << "kernels per op: " << suite.size()
       << " (collect_reuse on); kernel runs whose instruction or LLC-miss"
          " counts differ from op 0's: "
       << count_mismatches;
  out.notes.push_back(note.str());

  const auto table = self_times();
  const double n = static_cast<double>(ops);
  const double kernel_ms = self_ms(table, "workloads.kernel");
  out.layers = {
      {"workloads.kernel_ms", kernel_ms / n, "ms"},
      {"vcpu.instructions", static_cast<double>(instructions) / n, "count"},
      {"vcpu.sim_minst_per_s",
       kernel_ms > 0 ? static_cast<double>(instructions) / kernel_ms / 1e3
                     : 0.0,
       "Minst/s"},
      {"cachesim.llc_misses", static_cast<double>(llc_misses) / n, "count"},
      {"tree.compress_ms", self_ms(table, "tree.compress") / n, "ms"},
      {"tree.compress_ratio",
       nodes_after > 0 ? static_cast<double>(nodes_before) /
                             static_cast<double>(nodes_after)
                       : 0.0,
       "ratio"},
      {"tree.pack_ms", self_ms(table, "tree.pack") / n, "ms"},
      {"tree.pptb_bytes", static_cast<double>(pptb_bytes) / n, "bytes"},
  };
  return out;
}

}  // namespace perfbench
