// Integration tests for the serve-path tail-latency telemetry: the v2
// `stats` request's metrics payload, the exact stage-sum reconciliation
// invariant (request_trace.hpp), cache-split compute histograms, the JSONL
// request log, and stats availability during a graceful drain. Runs under
// PPROPHET_SANITIZE=thread via the `server` / `concurrency` ctest labels.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/event_log.hpp"
#include "obs/histogram.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve_test_util.hpp"

namespace pprophet::serve {
namespace {

JsonValue predict_req(const std::string& key) {
  JsonValue r;
  r.set("op", JsonValue("predict"));
  r.set("v", JsonValue(kProtocolVersion));
  r.set("key", JsonValue(key));
  JsonValue::Array threads;
  threads.emplace_back(std::uint64_t{2});
  threads.emplace_back(std::uint64_t{4});
  r.set("threads", JsonValue(std::move(threads)));
  return r;
}

class StatsEndpointTest : public ::testing::Test {
 protected:
  ServerConfig base_config(const char* tag) {
    ServerConfig cfg;
    cfg.socket_path = testing::TempDir() + "pp_stats_" + tag + ".sock";
    cfg.workers = 2;
    cfg.sweep_workers = 1;
    cfg.debug_ops = true;
    return cfg;
  }

  /// Finds histogram `name` in the server's registry snapshot.
  static const obs::HistogramSnapshot* find_hist(
      const obs::MetricsSnapshot& snap, const std::string& name) {
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) return &h;
    }
    return nullptr;
  }
};

// The headline invariant behind "stage sums reconcile with the total": the
// per-stage histogram *totals* are exact sums of non-overlapping
// sub-intervals of each request, so read + queue_wait + compute + write +
// other == total, exactly — no bucket error, because totals never pass
// through buckets.
TEST_F(StatsEndpointTest, StageTotalsReconcileExactly) {
  Server server(base_config("reconcile"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());
  for (int i = 0; i < 8; ++i) {
    const JsonValue r = c.call(predict_req(key));
    ASSERT_TRUE(r.at("ok").as_bool());
  }
  c.call("ping");
  server.stop();

  const obs::MetricsSnapshot snap = server.stats().metrics;
  const obs::HistogramSnapshot* total = find_hist(snap, "serve.total_us");
  const obs::HistogramSnapshot* read = find_hist(snap, "serve.read_us");
  const obs::HistogramSnapshot* queue = find_hist(snap, "serve.queue_wait_us");
  const obs::HistogramSnapshot* compute = find_hist(snap, "serve.compute_us");
  const obs::HistogramSnapshot* write = find_hist(snap, "serve.write_us");
  const obs::HistogramSnapshot* other = find_hist(snap, "serve.other_us");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(read, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(compute, nullptr);
  ASSERT_NE(write, nullptr);
  ASSERT_NE(other, nullptr);
  // 10 finished requests: upload + 8 predicts + ping.
  EXPECT_EQ(total->count, 10u);
  EXPECT_EQ(read->count, 10u);
  EXPECT_EQ(write->count, 10u);
  EXPECT_EQ(other->count, 10u);
  // Only the 9 queued ops waited; ping is answered inline.
  EXPECT_EQ(queue->count, 9u);
  EXPECT_GT(total->total, 0u);
  EXPECT_EQ(read->total + queue->total + compute->total + write->total +
                other->total,
            total->total);
}

TEST_F(StatsEndpointTest, StatsOpCarriesQuantiles) {
  Server server(base_config("quantiles"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());
  for (int i = 0; i < 5; ++i) c.call(predict_req(key));

  const JsonValue stats = c.call("stats");
  ASSERT_TRUE(stats.at("ok").as_bool());
  const JsonValue& metrics = stats.at("stats").at("metrics");
  const JsonValue& hists = metrics.at("histograms");
  const JsonValue* total = hists.find("serve.total_us");
  ASSERT_NE(total, nullptr);
  // 6 finished requests (upload + 5 predicts) precede the stats op itself.
  EXPECT_EQ(total->at("count").as_u64(), 6u);
  const std::uint64_t p50 = total->at("p50").as_u64();
  const std::uint64_t p90 = total->at("p90").as_u64();
  const std::uint64_t p99 = total->at("p99").as_u64();
  EXPECT_GT(p50, 0u);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, total->at("max").as_u64());
  EXPECT_GE(p50, total->at("min").as_u64());
  // The per-kind split names the ops that actually ran.
  EXPECT_NE(hists.find("serve.total_us.upload"), nullptr);
  EXPECT_NE(hists.find("serve.total_us.predict"), nullptr);
  // Gauges ride along; the stats op itself never touches the compute queue.
  EXPECT_NE(metrics.at("gauges").find("serve.queue.depth"), nullptr);
  server.stop();
}

TEST_F(StatsEndpointTest, ComputeHistogramSplitsByCacheOutcome) {
  Server server(base_config("cachesplit"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());
  const JsonValue first = c.call(predict_req(key));   // cold: miss
  ASSERT_TRUE(first.at("ok").as_bool());
  const JsonValue second = c.call(predict_req(key));  // identical: hit
  ASSERT_TRUE(second.at("ok").as_bool());
  server.stop();

  const obs::MetricsSnapshot snap = server.stats().metrics;
  const obs::HistogramSnapshot* hit = find_hist(snap, "serve.compute_us.hit");
  const obs::HistogramSnapshot* miss =
      find_hist(snap, "serve.compute_us.miss");
  ASSERT_NE(hit, nullptr);
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(hit->count, 1u);
  EXPECT_EQ(miss->count, 1u);
}

// `pprophet stats --watch` keeps polling while a server drains; a stats
// frame that reaches an open connection after the drain began must be
// answered for real (unlike compute ops, which get shutting_down) so the
// operator can watch the queue empty instead of going blind.
TEST_F(StatsEndpointTest, StatsAnswersDuringDrain) {
  ServerConfig cfg = base_config("drain");
  cfg.workers = 1;
  Server server(cfg);
  server.start();

  // Occupy the single worker so the raw client's first frame stays queued
  // — and its connection open through the drain — while the later frames
  // arrive.
  Client busy;
  busy.connect(cfg.socket_path);
  JsonValue busy_resp;
  std::thread t([&] {
    JsonValue r;
    r.set("op", JsonValue("sleep"));
    r.set("ms", JsonValue(std::uint64_t{400}));
    busy_resp = busy.call(r);
  });
  ASSERT_TRUE(wait_for_load(server, 1, 0));

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  JsonValue sleep0;
  sleep0.set("op", JsonValue("sleep"));
  sleep0.set("ms", JsonValue(std::uint64_t{0}));
  write_frame(fd, json_dump(sleep0));  // admitted, queued behind `busy`
  ASSERT_TRUE(wait_for_load(server, 1, 1));

  server.request_shutdown();
  // The queue is closed once request_shutdown returns, and the connection
  // still owes frame 1's response, so it keeps reading.
  JsonValue stats_req;
  stats_req.set("op", JsonValue("stats"));
  write_frame(fd, json_dump(stats_req));
  write_frame(fd, json_dump(predict_req("nope")));

  // Frame 1 was admitted before the drain: it runs to completion.
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_TRUE(json_parse(payload).at("ok").as_bool()) << payload;
  // Frame 2, a stats poll during the drain, is answered with live numbers.
  ASSERT_TRUE(read_frame(fd, payload));
  const JsonValue stats = json_parse(payload);
  ASSERT_TRUE(stats.at("ok").as_bool()) << payload;
  EXPECT_GE(stats.at("stats").at("requests").as_u64(), 1u);
  EXPECT_NE(stats.at("stats").at("metrics").find("histograms"), nullptr);
  // Frame 3, a compute op during the drain, gets the drain refusal.
  ASSERT_TRUE(read_frame(fd, payload));
  const JsonValue refused = json_parse(payload);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("error").as_string(), kErrShuttingDown);
  ::close(fd);

  server.wait();
  t.join();
  EXPECT_TRUE(busy_resp.at("ok").as_bool());  // admitted request finished
}

// End-to-end request log: every finished request becomes one JSONL record
// with the stage breakdown; errors are logged at >= warn severity.
TEST_F(StatsEndpointTest, EventLogRecordsRequests) {
  std::ostringstream sink;
  obs::EventLog log(sink);
  ServerConfig cfg = base_config("log");
  cfg.event_log = &log;
  Server server(cfg);
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  c.call("ping");
  const JsonValue nf = c.call(predict_req("no_such_key"));
  EXPECT_FALSE(nf.at("ok").as_bool());
  server.stop();

  EXPECT_EQ(log.written(), 2u);
  std::vector<std::string> lines;
  std::istringstream in(sink.str());
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"op\":\"ping\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"read_us\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"compute_us\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"op\":\"predict\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\":\"not_found\""), std::string::npos);
}

}  // namespace
}  // namespace pprophet::serve
