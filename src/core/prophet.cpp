#include "core/prophet.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace pprophet::core {
namespace {

runtime::OmpConfig omp_config(const PredictOptions& o, CoreCount threads) {
  runtime::OmpConfig c;
  c.num_threads = threads;
  c.schedule = o.schedule;
  c.chunk = o.chunk;
  c.overheads = o.omp_overheads;
  return c;
}

runtime::CilkConfig cilk_config(const PredictOptions& o, CoreCount threads) {
  runtime::CilkConfig c;
  c.num_workers = threads;
  c.overheads = o.cilk_overheads;
  return c;
}

runtime::ExecMode exec_mode(const PredictOptions& o, bool synth) {
  runtime::ExecMode m = synth ? runtime::ExecMode::synth_mode()
                              : runtime::ExecMode::real();
  m.synth = synth ? o.synth_overheads : runtime::SynthOverheads{0, 0};
  m.dram_stall = o.dram_stall;
  m.timeline = o.timeline;
  return m;
}

/// One synthesizer/ground-truth run of top-level section `s`. Synthesizer
/// without the memory model predicts with β = 1 (ExecMode::unit_burden).
Cycles run_one_section(const tree::CompiledTree& ct, std::uint32_t s,
                       CoreCount threads, const PredictOptions& o,
                       bool synth) {
  runtime::ExecMode mode = exec_mode(o, synth);
  mode.unit_burden = synth && !o.memory_model;
  runtime::RunResult r;
  if (o.paradigm == Paradigm::OpenMP) {
    r = runtime::run_section_omp(ct, s, o.machine, omp_config(o, threads),
                                 mode);
  } else {
    r = runtime::run_section_cilk(ct, s, o.machine, cilk_config(o, threads),
                                  mode);
  }
  return synth ? r.net() : r.elapsed;
}

}  // namespace

const char* to_string(Method m) {
  switch (m) {
    case Method::FastForward: return "FF";
    case Method::Synthesizer: return "SYN";
    case Method::Suitability: return "Suit";
    case Method::GroundTruth: return "Real";
  }
  return "?";
}

const char* to_string(Paradigm p) {
  switch (p) {
    case Paradigm::OpenMP: return "OpenMP";
    case Paradigm::CilkPlus: return "CilkPlus";
  }
  return "?";
}

Cycles serial_cycles_of(const tree::ProgramTree& tree) {
  if (!tree.root) return 0;
  const Cycles measured = tree.root->length();
  return measured != 0 ? measured : tree.root->serial_work();
}

namespace {

Cycles section_cycles_impl(const tree::CompiledTree& ct, std::uint32_t s,
                           CoreCount threads, const PredictOptions& options) {
  switch (options.method) {
    case Method::FastForward: {
      emul::FfConfig ff;
      ff.num_threads = threads;
      ff.schedule = options.schedule;
      ff.chunk = options.chunk;
      ff.overheads = options.omp_overheads;
      ff.apply_burden = options.memory_model;
      ff.timeline = options.timeline;
      return emul::emulate_ff_section(ct, s, ff).parallel_cycles;
    }
    case Method::Suitability: {
      emul::SuitabilityConfig cfg;
      cfg.num_threads = threads;
      return emul::emulate_suitability_section(ct, s, cfg).parallel_cycles;
    }
    case Method::Synthesizer:
      return run_one_section(ct, s, threads, options, true);
    case Method::GroundTruth:
      return run_one_section(ct, s, threads, options, false);
  }
  throw std::logic_error("predict_section_cycles: unknown method");
}

void record_section_cycles(Method method, Cycles cycles) {
  if (!obs::enabled()) return;
  // Distribution of emulated section durations, keyed by method — the
  // min/max/mean spread shows which emulator dominates a sweep's cost.
  obs::MetricsRegistry::global()
      .timer(std::string("predict.section_cycles.") + to_string(method))
      .record(static_cast<std::uint64_t>(cycles));
}

}  // namespace

Cycles predict_section_cycles(const tree::CompiledTree& compiled,
                              std::uint32_t s, CoreCount threads,
                              const PredictOptions& options) {
  if (s >= compiled.section_count()) {
    throw std::invalid_argument(
        "predict_section_cycles: section out of range");
  }
  if (threads == 0) {
    throw std::invalid_argument("predict_section_cycles: zero threads");
  }
  const Cycles cycles = section_cycles_impl(compiled, s, threads, options);
  record_section_cycles(options.method, cycles);
  return cycles;
}

SpeedupEstimate predict(const tree::ProgramTree& tree, CoreCount threads,
                        const PredictOptions& options) {
  if (!tree.root) throw std::invalid_argument("predict: empty tree");
  return predict(tree::CompiledTree::compile(tree), threads, options);
}

SpeedupEstimate predict(const tree::CompiledTree& compiled, CoreCount threads,
                        const PredictOptions& options) {
  if (threads == 0) throw std::invalid_argument("predict: zero threads");

  SpeedupEstimate est;
  est.threads = threads;
  est.serial_cycles = compiled.serial_cycles();
  if (obs::enabled()) {
    static obs::Counter& calls =
        obs::MetricsRegistry::global().counter("predict.calls");
    calls.add(1);
  }

  // §IV-E composition: every top-level Sec contributes its emulated
  // duration once per repetition; top-level U nodes their serial lengths
  // (the precomputed top_u_cycles sum).
  Cycles parallel = compiled.top_u_cycles();
  for (std::uint32_t s = 0; s < compiled.section_count(); ++s) {
    parallel += predict_section_cycles(compiled, s, threads, options) *
                compiled.repeat(compiled.section_node(s));
  }
  est.parallel_cycles = parallel == 0 ? 1 : parallel;
  est.speedup = static_cast<double>(est.serial_cycles) /
                static_cast<double>(est.parallel_cycles);
  return est;
}

std::vector<SpeedupEstimate> predict_curve(
    const tree::ProgramTree& tree, std::span<const CoreCount> thread_counts,
    const PredictOptions& options) {
  const tree::CompiledTree compiled = tree::CompiledTree::compile(tree);
  std::vector<SpeedupEstimate> out;
  out.reserve(thread_counts.size());
  for (const CoreCount t : thread_counts) {
    out.push_back(predict(compiled, t, options));
  }
  return out;
}

}  // namespace pprophet::core
