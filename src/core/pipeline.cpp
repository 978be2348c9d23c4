#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

#include "annotate/annotations.hpp"
#include "memmodel/calibration.hpp"
#include "obs/trace.hpp"
#include "trace/profiler.hpp"
#include "util/table.hpp"

namespace pprophet::core {
namespace {

/// Times one pipeline stage three ways: into the caller's StageTiming list,
/// as a span on the current trace sink (if any), and into a
/// `pipeline.<stage>_us` timer when metrics are enabled.
class StageScope {
 public:
  StageScope(std::vector<StageTiming>& stages, std::string name)
      : stages_(stages),
        name_(std::move(name)),
        span_(name_, "pipeline"),
        t0_(std::chrono::steady_clock::now()) {}

  ~StageScope() {
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
    stages_.push_back({name_, ms});
    obs::time_record("pipeline." + name_ + "_us",
                     static_cast<std::uint64_t>(ms * 1000.0));
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  std::vector<StageTiming>& stages_;
  std::string name_;
  obs::ScopedSpan span_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace

Prophet::Prophet(ProphetConfig config) : config_(std::move(config)) {
  if (config_.machine.cores == 0) {
    config_.machine.cores = 12;
  }
}

PredictOptions Prophet::predict_options(Method method) const {
  PredictOptions o;
  static_cast<EngineOptions&>(o) = config_;
  o.method = method;
  o.paradigm = config_.paradigm;
  return o;
}

ProfiledProgram Prophet::profile(
    const std::function<void(vcpu::VirtualCpu&)>& program) const {
  ProfiledProgram out;
  {
    StageScope stage(out.stages, "profile");
    vcpu::VirtualCpu cpu(config_.profile_cache);
    vcpu::VcpuCounterSource counters(cpu);
    trace::IntervalProfiler profiler(cpu.clock(), &counters);
    {
      annotate::ScopedAnnotationTarget scope(profiler);
      program(cpu);
    }
    out.profiling_overhead = profiler.excluded_overhead();
    out.tree = profiler.finish();
  }
  {
    StageScope stage(out.stages, "compress");
    out.compression = tree::compress(out.tree, config_.compress);
  }
  return out;
}

ProphetReport Prophet::analyze(ProfiledProgram profiled) const {
  ProphetReport report;
  report.stages = std::move(profiled.stages);
  report.thread_counts = config_.thread_counts;
  if (config_.memory_model) {
    StageScope stage(report.stages, "memory-model");
    memmodel::CalibrationOptions copts;
    copts.machine = config_.machine;
    const memmodel::BurdenModel model(memmodel::calibrate(copts));
    memmodel::annotate_burdens(profiled.tree, model, config_.thread_counts);
  }
  report.tree_stats = tree::compute_stats(profiled.tree);
  for (const auto& child : profiled.tree.root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    for (const CoreCount t : config_.thread_counts) {
      report.max_burden = std::max(report.max_burden, child->burden(t));
    }
  }

  // One compilation feeds both curves and the advisor.
  tree::CompiledTree compiled;
  {
    StageScope stage(report.stages, "curves");
    compiled = tree::CompiledTree::compile(profiled.tree);
    for (const CoreCount t : config_.thread_counts) {
      report.ff.push_back(
          predict(compiled, t, predict_options(Method::FastForward)));
      report.synth.push_back(
          predict(compiled, t, predict_options(Method::Synthesizer)));
    }
  }

  {
    StageScope stage(report.stages, "advise");
    AdviseOptions ao;
    ao.base = predict_options(Method::Synthesizer);
    ao.grid.thread_counts = config_.thread_counts;
    ao.grid.chunks.clear();  // sweep with the configured chunk (as before)
    report.advice = advise(compiled, ao);
  }
  if (obs::enabled()) {
    report.metrics = obs::MetricsRegistry::global().snapshot();
  }
  return report;
}

ProphetReport Prophet::run(
    const std::function<void(vcpu::VirtualCpu&)>& program) const {
  return analyze(profile(program));
}

void ProphetReport::print(std::ostream& os) const {
  std::vector<std::string> header{"method"};
  for (const CoreCount t : thread_counts) {
    header.push_back(std::to_string(t) + "-core");
  }
  util::Table table(std::move(header));
  const auto row = [&](const char* label,
                       const std::vector<SpeedupEstimate>& curve) {
    std::vector<std::string> cells{label};
    for (const SpeedupEstimate& e : curve) {
      cells.push_back(util::fmt_f(e.speedup, 2));
    }
    table.add_row(std::move(cells));
  };
  row("FF", ff);
  row("SYN", synth);
  table.print(os);
  os << "tree: " << tree_stats.physical_nodes << " nodes ("
     << tree_stats.logical_nodes << " logical), max burden beta = "
     << util::fmt_f(max_burden, 2) << "\n"
     << "recommendation: " << to_string(advice.best.paradigm) << " "
     << runtime::to_string(advice.best.schedule) << " on "
     << advice.best.threads << " threads -> "
     << util::fmt_f(advice.best.speedup, 2) << "x (economical: "
     << advice.economical.threads << " threads, "
     << util::fmt_f(advice.economical.speedup, 2) << "x)\n";
  if (!advice.actions.empty()) {
    os << "what-if (at " << advice.target_threads << " threads):\n";
    const std::size_t shown = std::min<std::size_t>(3, advice.actions.size());
    for (std::size_t i = 0; i < shown; ++i) {
      os << "  " << (i + 1) << ". " << advice.actions[i].describe() << "\n";
    }
  }
  if (!stages.empty()) {
    os << "stages:";
    const char* sep = " ";
    for (const StageTiming& s : stages) {
      os << sep << s.stage << " " << util::fmt_f(s.wall_ms, 2) << " ms";
      sep = ", ";
    }
    os << "\n";
  }
  if (!metrics.empty()) {
    os << "-- metrics --\n";
    metrics.render_text(os);
  }
}

}  // namespace pprophet::core
