// §VII-C burden-factor validation: "We also verified the burden factor
// prediction by using the microbenchmark used in Eqs. (6) and (7). In more
// than 300 samples that show speedup saturation, we were able to predict
// the speedups mostly within a 30% error bound."
//
// Reproduction: random memory-bound sections (random stall fraction,
// consistent traffic, random trip counts and imbalance) are emulated
// (a) on the ground-truth machine with dynamic DRAM contention and
// (b) by the burden-factor synthesizer; samples whose real speedup
// saturates are scored against the 30% bound.
#include <iostream>

#include "memmodel/price.hpp"
#include "util/rng.hpp"
#include "report/experiment.hpp"
#include "tree/builder.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pprophet;

namespace {

/// A random memory-bound parallel section with physically consistent
/// counters: stall fraction µ ⇒ traffic µ·(64 B / 200 cy) = µ·320 MB/s.
tree::ProgramTree random_memory_sample(util::Xoshiro256& rng) {
  tree::TreeBuilder b;
  b.begin_sec("mem");
  const std::uint64_t iters = rng.uniform_u64(24, 96);
  const double spread = rng.uniform_double(0.0, 0.4);
  Cycles total = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto len = static_cast<Cycles>(
        20'000.0 * (1.0 + spread * (2.0 * rng.uniform_double() - 1.0)));
    b.begin_task("t").u(len).end_task();
    total += len;
  }
  const double mu = rng.uniform_double(0.3, 0.95);  // memory-stall share
  tree::SectionCounters c;
  c.cycles = total;
  c.llc_misses = static_cast<std::uint64_t>(
      mu * static_cast<double>(total) / 200.0);
  // Instruction count such that MPI clears the model's floor and CPI is
  // plausible for a stall-heavy loop.
  c.instructions = static_cast<std::uint64_t>(
      static_cast<double>(total) / rng.uniform_double(1.2, 4.0));
  b.counters(c);
  b.end_sec();
  return b.finish();
}

}  // namespace

int main() {
  const long samples = util::env_long("PP_SAMPLES", 300);
  report::print_header(
      std::cout,
      "SS VII-C burden-factor validation (" + std::to_string(samples) +
          " samples; paper: saturated samples 'mostly within a 30% error "
          "bound')");

  const core::PredictOptions paper =
      report::paper_options(core::Method::GroundTruth);

  util::Xoshiro256 rng(0xBEEF);
  const CoreCount counts[] = {4, 8, 12};
  std::vector<double> pred, real;
  long saturated = 0, saturated_within_30 = 0;
  for (long s = 0; s < samples; ++s) {
    tree::ProgramTree t = random_memory_sample(rng);
    memmodel::price_burdens(t, paper.machine, paper.dram_stall, counts);
    for (const CoreCount n : counts) {
      core::PredictOptions o = paper;
      const double r = core::predict(t, n, o).speedup;
      o.method = core::Method::Synthesizer;
      o.memory_model = true;
      const double p = core::predict(t, n, o).speedup;
      pred.push_back(p);
      real.push_back(r);
      if (r < 0.7 * static_cast<double>(n)) {  // "shows speedup saturation"
        ++saturated;
        if (util::relative_error(p, r) <= 0.30) ++saturated_within_30;
      }
    }
  }

  const util::ErrorStats es = util::error_stats(pred, real);
  util::Table table({"estimates", "avg err", "max err", "within 30%",
                     "saturated samples", "saturated within 30%"});
  table.add_row(
      {std::to_string(pred.size()), util::fmt_pct(es.mean_error),
       util::fmt_pct(es.max_error),
       util::fmt_pct(1.0 - static_cast<double>([&] {
                       long over = 0;
                       for (std::size_t i = 0; i < pred.size(); ++i) {
                         if (util::relative_error(pred[i], real[i]) > 0.30) {
                           ++over;
                         }
                       }
                       return over;
                     }()) /
                               static_cast<double>(pred.size())),
       std::to_string(saturated),
       saturated == 0
           ? "-"
           : util::fmt_pct(static_cast<double>(saturated_within_30) /
                           static_cast<double>(saturated))});
  table.print(std::cout);
  report::print_validation_panel(std::cout,
                                 "burden-factor predictions vs machine",
                                 pred, real);
  return 0;
}
