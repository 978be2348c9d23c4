// Workload `whatif`: one op takes the eight suite trees profiled in set-up.
// For each tree it annotates burden factors on a copy, compiles it, prices
// the Figure-12 point set (Real, Pred, PredM, Suit, plus FF) at the paper
// core counts with one sweep_points call per method, and runs core::advise.
// The seed sets each op's advise target_threads. The DES (SYN and Real)
// does most of the work here.
#include <algorithm>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "core/advise.hpp"
#include "report/experiment.hpp"
#include "spans.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace pprophet;

namespace {

/// Whole-suite ops per second of --seconds (fixes the op count).
constexpr double kOpsPerSecond = 1.4;
/// Sweep and advise pool width. Results are bit-identical at any width.
constexpr std::size_t kPoolWidth = 2;

/// Digest of everything an Advice promises, for the per-target identity
/// check.
std::uint64_t advice_digest(const core::Advice& a) {
  util::Fnv64 h;
  h.f64(a.baseline.speedup);
  h.f64(a.best.speedup);
  h.u64(a.best.threads);
  h.f64(a.economical.speedup);
  for (const core::Action& act : a.actions) {
    h.u64(static_cast<std::uint64_t>(act.kind));
    h.u64(act.section);
    h.f64(act.speedup_after);
  }
  return h.h;
}

}  // namespace

Outcome run_whatif(const Args& args, Clock::time_point process_start) {
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
  const auto& cores = report::paper_core_counts();
  util::Xoshiro256 rng(args.seed);
  std::vector<CoreCount> targets(ops);
  for (auto& t : targets) t = cores[rng.uniform_u64(0, cores.size() - 1)];

  std::vector<Fig12> first;  // op 0's pricing, the reference for later ops
  std::map<CoreCount, std::vector<std::uint64_t>> advice_ref;
  std::uint64_t sweep_lookups = 0, sweep_hits = 0, sweep_evals = 0;
  std::uint64_t advise_lookups = 0, advise_hits = 0, advise_evals = 0;

  double probe_total_ms = 0.0;
  const Clock::time_point timed0 = Clock::now();
  for (std::size_t op = 0; op < ops; ++op) {
    const Clock::time_point probe0 = Clock::now();
    out.probe_ms.push_back(probe_host_ms());
    probe_total_ms += ms_since(probe0);
    set_current_op(static_cast<std::int64_t>(op));
    const Clock::time_point op0 = Clock::now();
    bool ok = true;
    std::vector<Fig12> priced;
    std::vector<std::uint64_t> advice;
    {
      Span op_span("op");
      for (const SuiteKernel& k : suite) {
        const tree::CompiledTree compiled = prepare_kernel(k, *base.model);
        priced.push_back(price_fig12(k, compiled, kPoolWidth, true));

        core::AdviseOptions ao;
        ao.base = report::paper_options(core::Method::Synthesizer);
        ao.base.paradigm = k.paradigm;
        ao.base.schedule = k.schedule;
        ao.base.memory_model = true;
        ao.grid.thread_counts = cores;
        ao.grid.chunks.clear();
        ao.target_threads = targets[op];
        ao.sweep.workers = kPoolWidth;
        core::Advice a;
        {
          Span s("core.advise");
          a = core::advise(compiled, ao);
        }
        advice.push_back(advice_digest(a));
        advise_lookups += a.stats.section_lookups;
        advise_hits += a.stats.cache_hits;
        advise_evals += a.stats.section_evals;
      }
    }
    out.op_ms.push_back(ms_since(op0));

    for (const Fig12& f : priced) {
      sweep_lookups += f.section_lookups;
      sweep_hits += f.cache_hits;
      sweep_evals += f.section_evals;
    }
    if (op == 0) {
      first = priced;
    } else {
      for (std::size_t k = 0; k < priced.size(); ++k) {
        const Fig12& a = priced[k];
        const Fig12& b = first[k];
        if (a.cycles != b.cycles || a.real != b.real || a.pred != b.pred ||
            a.predm != b.predm || a.suit != b.suit || a.ff != b.ff) {
          ok = false;
        }
      }
    }
    const auto [it, fresh] = advice_ref.emplace(targets[op], advice);
    if (!fresh && it->second != advice) ok = false;
    ++out.attempted;
    if (!ok) ++out.failed;
  }
  out.timed_s = (ms_since(timed0) - probe_total_ms) / 1e3;
  set_current_op(-1);

  out.pred_err_pct = suite_pred_err_pct(base.reference, *base.model);
  out.counts = {{"core.sweep.section_lookups", sweep_lookups},
                {"core.sweep.cache_hits", sweep_hits},
                {"core.sweep.section_evals", sweep_evals},
                {"core.advise.section_lookups", advise_lookups},
                {"core.advise.cache_hits", advise_hits},
                {"core.advise.section_evals", advise_evals}};
  std::ostringstream note;
  note << "sweep/advise pool width: " << kPoolWidth
       << "; advise target_threads per op drawn from the paper core counts";
  out.notes.push_back(note.str());

  const auto table = self_times();
  const double n = static_cast<double>(ops);
  out.layers = {
      {"memmodel.annotate_ms", self_ms(table, "memmodel.annotate") / n, "ms"},
      {"tree.compile_ms", self_ms(table, "tree.compile") / n, "ms"},
      {"machine.syn_ms", self_ms(table, "machine.syn") / n, "ms"},
      {"machine.synm_ms", self_ms(table, "machine.synm") / n, "ms"},
      {"machine.real_ms", self_ms(table, "machine.real") / n, "ms"},
      {"emul.ff_ms", self_ms(table, "emul.ff") / n, "ms"},
      {"emul.suit_ms", self_ms(table, "emul.suit") / n, "ms"},
      {"core.sweep.section_evals", static_cast<double>(sweep_evals) / n,
       "count"},
      {"core.sweep.hit_ratio", hit_ratio(sweep_hits, sweep_lookups), "ratio"},
      {"core.advise_ms", self_ms(table, "core.advise") / n, "ms"},
      {"core.advise.section_evals", static_cast<double>(advise_evals) / n,
       "count"},
      {"core.advise.hit_ratio", hit_ratio(advise_hits, advise_lookups), "ratio"},
  };
  return out;
}

}  // namespace perfbench
