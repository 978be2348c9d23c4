#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "core/sweep.hpp"
#include "kernel_suite.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "spans.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "workloads/npb.hpp"
#include "workloads/ompscr.hpp"

namespace perfbench {

using namespace pprophet;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0}) {
    // Nearest rank: the ceil(p% * n)-th smallest sample.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || v.size() - rank < 10) break;
    t.percentile = p;
    t.value = v[rank - 1];
  }
  if (t.percentile == 0.0) {  // fewer than 11 samples: report the maximum
    t.percentile = 100.0;
    t.value = v.back();
  }
  return t;
}

namespace {

/// One level of the probe's cache: `ways` LRU-ordered tags per set.
bool probe_lookup(std::uint64_t* tags, std::size_t sets, std::size_t ways,
                  std::uint64_t line) {
  std::uint64_t* set = tags + (line % sets) * ways;
  const std::uint64_t tag = line + 1;
  std::size_t w = 0;
  while (w < ways && set[w] != tag) ++w;
  const bool hit = w < ways;
  for (std::size_t k = hit ? w : ways - 1; k > 0; --k) set[k] = set[k - 1];
  set[0] = tag;
  return hit;
}

}  // namespace

double probe_host_ms() {
  // L1 64 x 8, L2 1024 x 8, LLC 12288 x 16 ways of 64-byte lines: the
  // Westmere-like hierarchy the kernels simulate.
  constexpr std::size_t kL1 = 64 * 8, kL2 = 1024 * 8, kL3 = 12288 * 16;
  static std::vector<std::uint64_t> tags(kL1 + kL2 + kL3);
  static volatile std::uint64_t sink = 0;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::fill(tags.begin(), tags.end(), 0);
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 0x12345678ULL, misses = 0;
    for (std::uint64_t i = 0; i < 400000; ++i) {
      // Three sequential 8-byte strides over 32 MiB, then one random access
      // over 64 MiB.
      std::uint64_t addr = (i * 8) & ((std::uint64_t{1} << 25) - 1);
      if (i % 4 == 0) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        addr = x & ((std::uint64_t{1} << 26) - 1);
      }
      const std::uint64_t line = addr >> 6;
      if (!probe_lookup(tags.data(), 64, 8, line) &&
          !probe_lookup(tags.data() + kL1, 1024, 8, line) &&
          !probe_lookup(tags.data() + kL1 + kL2, 12288, 16, line)) {
        ++misses;
      }
    }
    sink = sink + misses;
    const double ms = ms_since(t0);
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

workloads::KernelRun run_suite_kernel(std::size_t index, bool collect_reuse) {
  // Problem sizes and cache configs of bench::paper_suite(1).
  workloads::KernelConfig plain{};
  workloads::KernelConfig scaled{.cache = workloads::scaled_cache()};
  plain.collect_reuse = collect_reuse;
  scaled.collect_reuse = collect_reuse;
  switch (index) {
    case 0: {
      workloads::MdParams p;
      p.particles = 160;
      p.steps = 2;
      return workloads::run_md(p, plain);
    }
    case 1: {
      workloads::LuParams p;
      p.n = 96;
      return workloads::run_lu(p, plain);
    }
    case 2: {
      workloads::FftParams p;
      p.n = 2048;
      p.parallel_cutoff = 128;
      return workloads::run_fft(p, scaled);
    }
    case 3: {
      workloads::QsortParams p;
      p.n = 16384;
      p.parallel_cutoff = 512;
      return workloads::run_qsort(p, plain);
    }
    case 4: {
      workloads::EpParams p;
      p.log2_pairs = 14;
      p.blocks = 48;
      return workloads::run_ep(p, plain);
    }
    case 5: {
      workloads::FtParams p;
      p.nx = 64;
      p.ny = 32;
      p.nz = 16;
      p.iterations = 2;
      return workloads::run_ft(p, scaled);
    }
    case 6: {
      workloads::CgParams p;
      p.n = 1400;
      p.iterations = 6;
      return workloads::run_cg(p, scaled);
    }
    case 7: {
      workloads::MgParams p;
      p.n = 32;
      p.vcycles = 2;
      return workloads::run_mg(p, scaled);
    }
    default:
      throw std::out_of_range("suite kernel index");
  }
}

std::vector<SuiteKernel> profile_suite() {
  std::vector<SuiteKernel> out;
  for (const bench::SuiteEntry& e : bench::paper_suite(1)) {
    SuiteKernel k;
    k.name = e.name;
    k.paradigm = e.paradigm;
    k.schedule = e.schedule;
    workloads::KernelRun run;
    {
      Span s("workloads.kernel");
      run = e.run();
    }
    {
      Span s("tree.compress");
      tree::compress(run.tree);
    }
    {
      Span s("tree.pack");
      k.pptb = tree::to_binary(tree::pack(run.tree));
    }
    k.tree = std::move(run.tree);
    k.checksum = run.checksum;
    out.push_back(std::move(k));
  }
  return out;
}

std::vector<SuiteKernel> clone_suite(const std::vector<SuiteKernel>& suite) {
  std::vector<SuiteKernel> out;
  for (const SuiteKernel& k : suite) {
    SuiteKernel c;
    c.name = k.name;
    c.paradigm = k.paradigm;
    c.schedule = k.schedule;
    c.tree.root = k.tree.root->clone();
    c.pptb = k.pptb;
    c.checksum = k.checksum;
    out.push_back(std::move(c));
  }
  return out;
}

void SuiteSetup::run() {
  {
    Span s("memmodel.calibrate");
    memmodel::CalibrationOptions opts;
    opts.machine = report::paper_machine();
    model.emplace(memmodel::calibrate(opts));
  }
  suite = profile_suite();
  if (reference.empty()) reference = clone_suite(suite);
}

tree::CompiledTree prepare_kernel(const SuiteKernel& k,
                                  const memmodel::BurdenModel& model) {
  tree::ProgramTree annotated{k.tree.root->clone()};
  {
    Span s("memmodel.annotate");
    memmodel::annotate_burdens(annotated, model, report::paper_core_counts());
  }
  Span s("tree.compile");
  return tree::CompiledTree::compile(annotated);
}

Fig12 price_fig12(const SuiteKernel& k, const tree::CompiledTree& compiled,
                  std::size_t workers, bool all_methods) {
  const auto& cores = report::paper_core_counts();
  core::PredictOptions base = report::paper_options(core::Method::GroundTruth);
  base.paradigm = k.paradigm;
  base.schedule = k.schedule;
  core::SweepOptions sopts;
  sopts.workers = workers;

  Fig12 out;
  const auto price = [&](const char* span, core::Method method, bool mm,
                         std::vector<double>& curve) {
    std::vector<core::SweepPoint> points;
    for (const CoreCount t : cores) {
      core::SweepPoint p;
      p.method = method;
      p.paradigm = k.paradigm;
      p.schedule = k.schedule;
      p.threads = t;
      p.memory_model = mm;
      points.push_back(p);
    }
    core::SweepResult res;
    {
      Span s(span);
      res = core::sweep_points(compiled, points, base, sopts);
    }
    for (const core::SweepCell& c : res.cells) {
      curve.push_back(c.estimate.speedup);
      out.cycles.push_back(c.estimate.parallel_cycles);
    }
    out.section_lookups += res.stats.section_lookups;
    out.cache_hits += res.stats.cache_hits;
    out.section_evals += res.stats.section_evals;
  };
  price("machine.real", core::Method::GroundTruth, false, out.real);
  price("machine.synm", core::Method::Synthesizer, true, out.predm);
  if (all_methods) {
    price("machine.syn", core::Method::Synthesizer, false, out.pred);
    price("emul.suit", core::Method::Suitability, false, out.suit);
    price("emul.ff", core::Method::FastForward, true, out.ff);
  }
  return out;
}

double pred_err_pct(const std::vector<Fig12>& priced) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Fig12& f : priced) {
    for (std::size_t i = 0; i < f.real.size(); ++i) {
      sum += std::fabs(f.predm[i] - f.real[i]) / f.real[i] * 100.0;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double suite_pred_err_pct(const std::vector<SuiteKernel>& suite,
                          const memmodel::BurdenModel& model) {
  std::vector<Fig12> priced;
  for (const SuiteKernel& k : suite) {
    priced.push_back(price_fig12(k, prepare_kernel(k, model), 2, false));
  }
  return pred_err_pct(priced);
}

}  // namespace perfbench
