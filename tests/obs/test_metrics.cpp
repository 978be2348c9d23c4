// Metrics registry unit tests: handle stability, reset semantics, gating,
// and (under the `concurrency` ctest label / TSAN build) exactness of
// concurrent increments from a worker pool.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <thread>
#include <vector>

namespace pprophet::obs {
namespace {

/// Tests mutate the process-global enabled flag; restore it on exit so test
/// order does not matter.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(prev_); }

 private:
  bool prev_ = false;
};

TEST_F(MetricsTest, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST_F(MetricsTest, SameNameSameHandle) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("x");  // separate namespace from counters
  Gauge& g2 = reg.gauge("x");
  EXPECT_EQ(&g1, &g2);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Timer& t = reg.timer("t");
  c.add(7);
  g.set(3.5);
  t.record(10);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // the same handle, now zero
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(t.stat().count, 0u);
  c.add(1);  // handle still wired into the registry
  EXPECT_EQ(reg.snapshot().counters.at(0).second, 1u);
}

TEST_F(MetricsTest, GaugeSetMaxIsMonotone) {
  Gauge g;
  g.set_max(2.0);
  g.set_max(1.0);
  EXPECT_EQ(g.value(), 2.0);
  g.set_max(5.5);
  EXPECT_EQ(g.value(), 5.5);
}

TEST_F(MetricsTest, TimerStats) {
  Timer t;
  t.record(10);
  t.record(30);
  t.record(20);
  const TimerStat s = t.stat();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total, 60u);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 30u);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
}

TEST_F(MetricsTest, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a");
  EXPECT_EQ(snap.counters[1].first, "b");
}

TEST_F(MetricsTest, DisabledGuardSkipsConvenienceHelpers) {
  set_enabled(false);
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  count("gating.counter", 5);
  gauge_set("gating.gauge", 1.0);
  time_record("gating.timer", 9);
  set_enabled(true);
  // Nothing was registered while disabled: the names are absent (or zero if
  // an earlier test registered them through the global registry).
  for (const auto& [name, v] : reg.snapshot().counters) {
    if (name == "gating.counter") {
      EXPECT_EQ(v, 0u);
    }
  }
  count("gating.counter", 5);
  bool found = false;
  for (const auto& [name, v] : reg.snapshot().counters) {
    if (name == "gating.counter") {
      found = true;
      EXPECT_EQ(v, 5u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, RenderFormats) {
  MetricsRegistry reg;
  reg.counter("events").add(3);
  reg.gauge("beta").set(1.25);
  reg.timer("stage_us").record(100);
  const MetricsSnapshot snap = reg.snapshot();

  std::ostringstream text;
  snap.render_text(text);
  EXPECT_NE(text.str().find("events"), std::string::npos);
  EXPECT_NE(text.str().find("beta"), std::string::npos);

  std::ostringstream csv;
  snap.render_csv(csv);
  EXPECT_NE(csv.str().find("events,counter"), std::string::npos);

  std::ostringstream json;
  snap.render_json(json);
  EXPECT_NE(json.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(json.str().find("\"events\":3"), std::string::npos);
  EXPECT_NE(json.str().find("\"stage_us\""), std::string::npos);
}

// The contract behind instrumenting the sweep worker pool: concurrent adds
// through one cached handle lose no increments (run under TSAN via
// PPROPHET_SANITIZE=thread, ctest -L concurrency).
TEST_F(MetricsTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("spins");
  Timer& t = reg.timer("work");
  Gauge& g = reg.gauge("hwm");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        t.record(static_cast<std::uint64_t>(i % 7) + 1);
        g.set_max(static_cast<double>(w));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const TimerStat s = t.stat();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 7u);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads - 1));
}

// Concurrent *registration* of distinct names must also be safe (the first
// worker to hit a site registers it).
TEST_F(MetricsTest, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&, w] {
      for (int i = 0; i < 100; ++i) {
        reg.counter("shared").add(1);
        reg.counter("worker." + std::to_string(w)).add(1);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u + kThreads);
  for (const auto& [name, v] : snap.counters) {
    EXPECT_EQ(v, name == "shared" ? 800u : 100u) << name;
  }
}

// Regression test for the old render_json escaper: it passed a raw (signed)
// char to snprintf("\\u%04x"), so metric names containing bytes >= 0x80
// sign-extended into garbage like "\uffffffc3" — invalid JSON. The shared
// util::json_escape must emit the byte value itself.
TEST_F(MetricsTest, RenderJsonEscapesMetricNames) {
  MetricsRegistry reg;
  reg.counter("quote\"back\\slash").add(1);
  reg.counter("ctrl\x01tab\t").add(2);
  reg.counter("high\xc3\xa9" "byte").add(3);  // UTF-8 'é'
  std::ostringstream json;
  reg.snapshot().render_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"quote\\\"back\\\\slash\":1"), std::string::npos);
  EXPECT_NE(s.find("\"ctrl\\u0001tab\\t\":2"), std::string::npos);
  // High bytes pass through as-is (valid inside a JSON string)...
  EXPECT_NE(s.find("\"high\xc3\xa9" "byte\":3"), std::string::npos);
  // ...and must never become the sign-extended "\uffffffXX" spelling.
  EXPECT_EQ(s.find("ffffff"), std::string::npos);
}

TEST_F(MetricsTest, RenderJsonEmitsNullForNonFiniteGauges) {
  MetricsRegistry reg;
  reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("inf").set(std::numeric_limits<double>::infinity());
  reg.gauge("good").set(1.5);
  std::ostringstream json;
  reg.snapshot().render_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"bad\":null"), std::string::npos);
  EXPECT_NE(s.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(s.find("\"good\":1.5"), std::string::npos);
}

TEST_F(MetricsTest, HistogramRegistersAndRenders) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat_us");
  EXPECT_EQ(&h, &reg.histogram("lat_us"));  // handle stability
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].first, "lat_us");
  EXPECT_EQ(snap.histograms[0].second.count, 100u);

  std::ostringstream text;
  snap.render_text(text);
  EXPECT_NE(text.str().find("histograms:"), std::string::npos);
  EXPECT_NE(text.str().find("lat_us"), std::string::npos);

  std::ostringstream csv;
  snap.render_csv(csv);
  EXPECT_NE(csv.str().find("lat_us,histogram"), std::string::npos);

  std::ostringstream json;
  snap.render_json(json);
  EXPECT_NE(json.str().find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.str().find("\"p99\""), std::string::npos);

  reg.reset();
  EXPECT_EQ(h.count(), 0u);  // same handle, now zero
}

// MetricsSnapshot::merge is how `pprophet serve --metrics` folds the
// server's private registry into the global snapshot at exit.
TEST_F(MetricsTest, SnapshotMergeFoldsAllKinds) {
  MetricsRegistry a, b;
  a.counter("shared").add(2);
  b.counter("shared").add(5);
  b.counter("only_b").add(1);
  a.gauge("depth").set(3.0);
  b.gauge("depth").set(7.0);
  a.timer("t").record(10);
  b.timer("t").record(30);
  a.histogram("h").record(1);
  b.histogram("h").record(100);
  MetricsSnapshot snap = a.snapshot();
  snap.merge(b.snapshot());
  const auto find_counter = [&](const char* name) -> std::uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(find_counter("shared"), 7u);
  EXPECT_EQ(find_counter("only_b"), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7.0);  // gauges: the merged-in side wins
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].second.count, 2u);
  EXPECT_EQ(snap.timers[0].second.min, 10u);
  EXPECT_EQ(snap.timers[0].second.max, 30u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 2u);
  EXPECT_EQ(snap.histograms[0].second.min, 1u);
  EXPECT_EQ(snap.histograms[0].second.max, 100u);
}

TEST_F(MetricsTest, ScopedWallTimerRecords) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  {
    ScopedWallTimer timer("test.scope_us");
    EXPECT_GE(timer.elapsed_us(), 0u);
  }
  EXPECT_EQ(reg.timer("test.scope_us").stat().count, 1u);
}

}  // namespace
}  // namespace pprophet::obs
