// Trace-sink export tests: Chrome JSON well-formedness (checked with a
// minimal hand-rolled JSON parser — no external deps), span nesting on the
// wall-clock pipeline track, and the bridge regression the FF/Gantt
// instrumentation relies on: per-thread bridged span-duration sums equal
// machine::Timeline::busy / lock_wait exactly.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>

#include "core/sweep.hpp"
#include "emul/ff.hpp"
#include "machine/timeline.hpp"
#include "obs/metrics.hpp"
#include "runtime/omp_executor.hpp"
#include "tree/builder.hpp"

namespace pprophet::obs {
namespace {

// --- minimal JSON well-formedness checker -------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }
  bool lit(const char* word) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(i_, n, word) != 0) return false;
    i_ += n;
    return true;
  }
  bool string() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      ws();
      if (!string()) return false;
      ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      ws();
      if (!value()) return false;
      ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      ws();
      if (!value()) return false;
      ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return lit("true");
      case 'f': return lit("false");
      case 'n': return lit("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

std::string export_json(const TraceSink& sink) {
  std::ostringstream os;
  sink.write_chrome_json(os);
  return os.str();
}

/// A section with uneven tasks and a contended lock: forces both run spans
/// and lock-wait spans out of the FF schedule.
tree::ProgramTree contended_tree() {
  tree::TreeBuilder b;
  b.begin_sec("work");
  for (int i = 0; i < 8; ++i) {
    b.begin_task("t");
    b.u(100 + 25 * static_cast<Cycles>(i));
    b.l(1, 80);
    b.end_task();
  }
  b.end_sec();
  return b.finish();
}

TEST(TraceExport, EmptySinkIsValidJson) {
  TraceSink sink;
  const std::string json = export_json(sink);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceExport, EventsSurviveRoundTripWithEscapes) {
  TraceSink sink;
  sink.complete("na\"me\\with\nescapes", "cat", kPidPipeline, 0, 10, 5,
                {arg_str("key", "va\"lue"), arg_num("n", std::uint64_t{7})});
  sink.instant("mark", "cat", kPidPipeline, 12);
  sink.counter("depth", kPidPipeline, 13, 3.5);
  const std::string json = export_json(sink);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":7"), std::string::npos);
}

TEST(TraceExport, ScopedSpansNest) {
  TraceSink sink;
  TraceSink::set_current(&sink);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
  }
  TraceSink::set_current(nullptr);

  TraceEvent outer_ev, inner_ev;
  for (const TraceEvent& e : sink.events()) {
    if (e.name == "outer") outer_ev = e;
    if (e.name == "inner") inner_ev = e;
  }
  ASSERT_EQ(outer_ev.name, "outer");
  ASSERT_EQ(inner_ev.name, "inner");
  // Proper containment on the same track: inner ⊆ outer.
  EXPECT_EQ(outer_ev.pid, kPidPipeline);
  EXPECT_EQ(inner_ev.pid, outer_ev.pid);
  EXPECT_GE(inner_ev.ts, outer_ev.ts);
  EXPECT_LE(inner_ev.ts + inner_ev.dur, outer_ev.ts + outer_ev.dur);
}

TEST(TraceExport, ScopedSpanNoSinkIsNoop) {
  TraceSink::set_current(nullptr);
  ScopedSpan span("orphan");  // must not crash or register anywhere
  span.annotate(arg_num("x", 1.0));
}

// The core regression: bridging a Timeline into the trace preserves the
// per-thread busy / lock-wait totals exactly (1 cycle = 1 us).
void expect_bridge_matches(const machine::Timeline& timeline) {
  TraceSink sink;
  bridge_timeline(timeline, sink, kPidEmulation, "emulation");

  std::map<std::uint32_t, std::uint64_t> run_sum, wait_sum;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase != 'X') continue;
    ASSERT_EQ(e.pid, kPidEmulation);
    if (e.name == "run") run_sum[e.tid] += e.dur;
    if (e.name == "lock wait") wait_sum[e.tid] += e.dur;
  }
  for (std::uint32_t t = 0; t < timeline.thread_count(); ++t) {
    EXPECT_EQ(run_sum[t], timeline.busy(t)) << "thread " << t;
    EXPECT_EQ(wait_sum[t], timeline.lock_wait(t)) << "thread " << t;
  }

  const std::string json = export_json(sink);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("vcpu 0"), std::string::npos);  // thread metadata
}

TEST(TraceExport, FfTimelineBridgeSumsMatch) {
  const tree::CompiledTree t = tree::CompiledTree::compile(contended_tree());
  machine::Timeline timeline;
  emul::FfConfig cfg;
  cfg.num_threads = 4;
  cfg.timeline = &timeline;
  const emul::FfResult r = emulate_ff_section(t, 0, cfg);
  ASSERT_GT(r.parallel_cycles, 0u);
  ASSERT_FALSE(timeline.spans().empty());
  // The contended lock must produce at least one wait span, or the
  // regression test is vacuous.
  Cycles waits = 0;
  for (std::uint32_t th = 0; th < timeline.thread_count(); ++th) {
    waits += timeline.lock_wait(th);
  }
  ASSERT_GT(waits, 0u);
  expect_bridge_matches(timeline);
}

TEST(TraceExport, FfTimelineIsOptional) {
  // Same emulation without a timeline: identical result, no spans recorded.
  const tree::CompiledTree t = tree::CompiledTree::compile(contended_tree());
  emul::FfConfig with, without;
  with.num_threads = without.num_threads = 4;
  machine::Timeline timeline;
  with.timeline = &timeline;
  EXPECT_EQ(emulate_ff_section(t, 0, with).parallel_cycles,
            emulate_ff_section(t, 0, without).parallel_cycles);
}

TEST(TraceExport, MachineTimelineBridgeSumsMatch) {
  // The synthesizer/ground-truth path: the simulated machine records into
  // the Timeline via ExecMode::timeline.
  const tree::CompiledTree t = tree::CompiledTree::compile(contended_tree());
  machine::Timeline timeline;
  runtime::ExecMode mode = runtime::ExecMode::real();
  mode.timeline = &timeline;
  machine::MachineConfig mcfg;
  mcfg.cores = 4;
  runtime::OmpConfig cfg;
  cfg.num_threads = 4;
  const runtime::RunResult r =
      runtime::run_section_omp(t, 0, mcfg, cfg, mode);
  ASSERT_GT(r.elapsed, 0u);
  ASSERT_FALSE(timeline.spans().empty());
  expect_bridge_matches(timeline);
}

TEST(TraceExport, PredictOptionsTimelinePlumbing) {
  // core::predict forwards PredictOptions::timeline to the FF engine.
  const tree::ProgramTree t = contended_tree();
  machine::Timeline timeline;
  core::PredictOptions po;
  po.method = core::Method::FastForward;
  po.timeline = &timeline;
  const core::SpeedupEstimate est = core::predict(t, 4, po);
  EXPECT_GT(est.speedup, 0.0);
  EXPECT_FALSE(timeline.spans().empty());
  expect_bridge_matches(timeline);
}

// `--metrics` numbers must agree with the sweep engine's own accounting.
TEST(SweepMetrics, RegistryMatchesSweepStats) {
  const bool prev = enabled();
  set_enabled(true);
  MetricsRegistry::global().reset();

  const tree::ProgramTree t = contended_tree();
  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward, core::Method::Suitability};
  grid.thread_counts = {2, 4, 8};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::StaticBlock};
  core::SweepOptions sopts;
  sopts.workers = 3;
  const core::SweepResult res = core::sweep(t, grid, sopts);
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  set_enabled(prev);

  const auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("sweep.grid_points"), res.stats.grid_points);
  EXPECT_EQ(counter("sweep.memo.lookups"), res.stats.section_lookups);
  EXPECT_EQ(counter("sweep.memo.hits"), res.stats.cache_hits);
  EXPECT_EQ(counter("sweep.memo.evals"), res.stats.section_evals);
  EXPECT_EQ(counter("sweep.runs"), 1u);

  ASSERT_EQ(res.stats.worker_wall_ms.size(), res.stats.workers);
  for (const auto& [n, stat] : snap.timers) {
    if (n == "sweep.worker_wall_us") {
      EXPECT_EQ(stat.count, res.stats.workers);
    }
  }
}

TEST(SweepMetrics, WorkerSpansLandOnTrace) {
  TraceSink sink;
  TraceSink::set_current(&sink);
  const tree::ProgramTree t = contended_tree();
  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward};
  grid.thread_counts = {2, 4};
  core::SweepOptions sopts;
  sopts.workers = 2;
  core::sweep(t, grid, sopts);
  TraceSink::set_current(nullptr);

  int worker_spans = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.phase == 'X' && e.name.rfind("sweep worker", 0) == 0) {
      ++worker_spans;
    }
  }
  EXPECT_EQ(worker_spans, 2);
}

}  // namespace
}  // namespace pprophet::obs
