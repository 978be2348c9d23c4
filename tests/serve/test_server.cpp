// Loopback integration tests for the prediction service: real unix-domain
// sockets, concurrent client threads, graceful drain. Everything here also
// runs under PPROPHET_SANITIZE=thread via the `server` / `concurrency` ctest
// labels.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/sweep.hpp"
#include "report/experiment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "tree/binary.hpp"
#include "serve_test_util.hpp"

namespace pprophet::serve {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  ServerConfig base_config(const char* tag) {
    ServerConfig cfg;
    cfg.socket_path = testing::TempDir() + "pp_serve_" + tag + ".sock";
    cfg.workers = 2;
    cfg.sweep_workers = 1;
    cfg.debug_ops = true;
    return cfg;
  }
};

TEST_F(ServerTest, PingStatsAndUnknownOp) {
  Server server(base_config("ping"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);

  const JsonValue pong = c.call("ping");
  EXPECT_TRUE(pong.at("ok").as_bool());

  const JsonValue bad = c.call("frobnicate");
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), kErrBadRequest);

  const JsonValue stats = c.call("stats");
  ASSERT_TRUE(stats.at("ok").as_bool());
  const JsonValue& body = stats.at("stats");
  EXPECT_GE(body.at("requests").as_u64(), 2u);
  EXPECT_EQ(body.at("rejected").at("bad_request").as_u64(), 1u);
  EXPECT_EQ(body.at("store").at("trees").as_u64(), 0u);
  server.stop();
}

TEST_F(ServerTest, UploadIsIdempotentAcrossClients) {
  Server server(base_config("upload"));
  server.start();
  const std::string bytes = sample_pptb();

  Client a, b;
  a.connect(server.config().socket_path);
  b.connect(server.config().socket_path);
  const std::string key_a = a.upload(bytes);
  const std::string key_b = b.upload(bytes);
  EXPECT_EQ(key_a, key_b);

  JsonValue req;
  req.set("op", JsonValue("upload"));
  req.set("pptb", JsonValue(base64_encode(bytes)));
  const JsonValue resp = b.call(req);
  EXPECT_TRUE(resp.at("existed").as_bool());
  EXPECT_GT(resp.at("serial_cycles").as_u64(), 0u);

  const ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.stored_trees, 1u);
  EXPECT_EQ(s.stored_bytes, bytes.size());
  server.stop();
}

// The "v" compat rule (docs/SERVE.md): no "v" means version 1 and the
// response stays in the v1 shape; v in [2, kProtocolVersion] is echoed;
// anything else gets the structured unsupported_version error.
TEST_F(ServerTest, ProtocolVersionNegotiation) {
  Server server(base_config("version"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);

  // v1 request: no "v" field, response must not grow one.
  JsonValue v1;
  v1.set("op", JsonValue("ping"));
  const JsonValue r1 = c.call(v1);
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_EQ(r1.find("v"), nullptr);

  // v2 request: echoed back.
  JsonValue v2;
  v2.set("op", JsonValue("ping"));
  v2.set("v", JsonValue(kProtocolVersion));
  const JsonValue r2 = c.call(v2);
  EXPECT_TRUE(r2.at("ok").as_bool());
  ASSERT_NE(r2.find("v"), nullptr);
  EXPECT_EQ(r2.at("v").as_u64(), kProtocolVersion);

  // Future version: structured refusal naming the code, echoing v.
  JsonValue v99;
  v99.set("op", JsonValue("ping"));
  v99.set("v", JsonValue(std::uint64_t{99}));
  const JsonValue r99 = c.call(v99);
  EXPECT_FALSE(r99.at("ok").as_bool());
  EXPECT_EQ(r99.at("error").as_string(), kErrUnsupportedVersion);
  EXPECT_EQ(r99.at("v").as_u64(), 99u);

  // Malformed versions are refused too, not half-parsed.
  for (JsonValue bad : {JsonValue("two"), JsonValue(std::uint64_t{0}),
                        JsonValue(2.5)}) {
    JsonValue req;
    req.set("op", JsonValue("ping"));
    req.set("v", std::move(bad));
    const JsonValue r = c.call(req);
    EXPECT_FALSE(r.at("ok").as_bool());
    EXPECT_EQ(r.at("error").as_string(), kErrUnsupportedVersion);
  }

  // The versioned op still does real work: a v2 upload + predict round.
  JsonValue up;
  up.set("op", JsonValue("upload"));
  up.set("v", JsonValue(kProtocolVersion));
  up.set("pptb", JsonValue(base64_encode(sample_pptb())));
  const JsonValue ur = c.call(up);
  ASSERT_TRUE(ur.at("ok").as_bool());
  EXPECT_EQ(ur.at("v").as_u64(), kProtocolVersion);
  JsonValue pr;
  pr.set("op", JsonValue("predict"));
  pr.set("v", JsonValue(kProtocolVersion));
  pr.set("key", ur.at("key"));
  const JsonValue presp = c.call(pr);
  ASSERT_TRUE(presp.at("ok").as_bool());
  EXPECT_EQ(presp.at("v").as_u64(), kProtocolVersion);
  server.stop();
}

// v1 and v2 clients interoperate against one server: the same predict
// issued both ways returns identical results (and shares the result cache,
// since the cache key is the compiled tree digest + canonical grid).
TEST_F(ServerTest, V1AndV2ClientsInteroperate) {
  Server server(base_config("interop"));
  server.start();
  const std::string bytes = sample_pptb();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(bytes);

  const auto predict_req = [&](bool versioned) {
    JsonValue req;
    req.set("op", JsonValue("predict"));
    if (versioned) req.set("v", JsonValue(kProtocolVersion));
    req.set("key", JsonValue(key));
    req.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4)}));
    return req;
  };
  const JsonValue r_v1 = c.call(predict_req(false));
  const JsonValue r_v2 = c.call(predict_req(true));
  ASSERT_TRUE(r_v1.at("ok").as_bool());
  ASSERT_TRUE(r_v2.at("ok").as_bool());
  EXPECT_EQ(r_v1.find("v"), nullptr);
  EXPECT_EQ(r_v2.at("v").as_u64(), kProtocolVersion);
  // Identical payloads, and the v2 call hit the cache the v1 call filled.
  EXPECT_EQ(r_v1.at("result"), r_v2.at("result"));
  EXPECT_FALSE(r_v1.at("cached").as_bool());
  EXPECT_TRUE(r_v2.at("cached").as_bool());
  server.stop();
}

TEST_F(ServerTest, ErrorPaths) {
  Server server(base_config("errors"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);

  // Unknown tree key.
  JsonValue miss;
  miss.set("op", JsonValue("predict"));
  miss.set("key", JsonValue(std::string(32, '0')));
  const JsonValue not_found = c.call(miss);
  EXPECT_FALSE(not_found.at("ok").as_bool());
  EXPECT_EQ(not_found.at("error").as_string(), kErrNotFound);

  // Malformed upload payloads.
  JsonValue bad_b64;
  bad_b64.set("op", JsonValue("upload"));
  bad_b64.set("pptb", JsonValue("!!!not base64!!!"));
  EXPECT_EQ(c.call(bad_b64).at("error").as_string(), kErrBadRequest);
  JsonValue bad_tree;
  bad_tree.set("op", JsonValue("upload"));
  bad_tree.set("pptb", JsonValue(base64_encode("not a pptb stream")));
  EXPECT_EQ(c.call(bad_tree).at("error").as_string(), kErrBadRequest);
  // Counts far beyond the upload's size: a 2^40-pattern dictionary, and
  // one pattern claiming 2^40 children. Both are truncated streams.
  for (const std::string& hostile :
       {std::string("PPTB\x03\x80\x80\x80\x80\x80\x20", 11),
        std::string("PPTB\x03\x01\x03\x01\x64\x00"
                    "\x80\x80\x80\x80\x80\x20",
                    16)}) {
    JsonValue up;
    up.set("op", JsonValue("upload"));
    up.set("pptb", JsonValue(base64_encode(hostile)));
    const JsonValue r = c.call(up);
    EXPECT_EQ(r.at("error").as_string(), kErrBadRequest) << json_dump(r);
    EXPECT_NE(r.at("message").as_string().find("truncated stream"),
              std::string::npos)
        << json_dump(r);
  }
  EXPECT_EQ(server.stats().stored_trees, 0u);
  // An expansion bomb: 31 patterns, each referencing the previous one
  // twice, describe ~3.2 billion nodes in a few hundred bytes.
  tree::PackedTree bomb;
  bomb.dictionary.push_back({tree::NodeKind::U, 1'000, 0, true, {}});
  for (std::uint32_t i = 1; i < 31; ++i) {
    bomb.dictionary.push_back(
        {tree::NodeKind::Task, 0, 0, true, {{i - 1, 1}, {i - 1, 1}}});
  }
  bomb.top = {{30, 1}, {29, 1}};
  JsonValue bomb_upload;
  bomb_upload.set("op", JsonValue("upload"));
  bomb_upload.set("pptb", JsonValue(base64_encode(tree::to_binary(bomb))));
  const JsonValue too_large = c.call(bomb_upload);
  EXPECT_FALSE(too_large.at("ok").as_bool());
  EXPECT_EQ(too_large.at("error").as_string(), kErrTooLarge)
      << json_dump(too_large);
  EXPECT_EQ(server.stats().stored_trees, 0u);

  // Bad request shapes: missing op, non-JSON frame, bad grid values.
  EXPECT_EQ(c.call(JsonValue(JsonValue::Object{}))
                .at("error")
                .as_string(),
            kErrBadRequest);

  const std::string key = c.upload(sample_pptb());
  JsonValue bad_threads;
  bad_threads.set("op", JsonValue("sweep"));
  bad_threads.set("key", JsonValue(key));
  bad_threads.set("threads", JsonValue(JsonValue::Array{JsonValue(0)}));
  EXPECT_EQ(c.call(bad_threads).at("error").as_string(), kErrBadRequest);
  JsonValue bad_method;
  bad_method.set("op", JsonValue("predict"));
  bad_method.set("key", JsonValue(key));
  bad_method.set("method", JsonValue("warp"));
  EXPECT_EQ(c.call(bad_method).at("error").as_string(), kErrBadRequest);
  server.stop();
}

// The acceptance-criteria test: the same sweep from 8 concurrent clients is
// bit-identical to core::sweep run in-process on the identical tree, and a
// repeat round is served from the result cache.
TEST_F(ServerTest, ConcurrentSweepsBitIdenticalToInProcessAndCached) {
  ServerConfig cfg = base_config("identity");
  cfg.workers = 4;
  Server server(cfg);
  server.start();
  const std::string bytes = sample_pptb();

  // In-process reference over the exact tree the server stores.
  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward, core::Method::Synthesizer};
  grid.paradigms = {core::Paradigm::OpenMP};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1};
  grid.thread_counts = {2, 4, 8};
  grid.memory_models = {false};
  grid.base = report::paper_options(grid.methods.front());
  grid.base.machine.cores = 12;
  const tree::ProgramTree reference_tree =
      tree::unpack(tree::from_binary(bytes));
  const core::SweepResult expected = core::sweep(reference_tree, grid);

  JsonValue request;
  request.set("op", JsonValue("sweep"));
  request.set("methods", JsonValue(JsonValue::Array{JsonValue("ff"),
                                                    JsonValue("syn")}));
  request.set("schedules", JsonValue(JsonValue::Array{JsonValue("static1"),
                                                      JsonValue("dynamic")}));
  request.set("threads",
              JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4),
                                         JsonValue(6 + 2)}));
  request.set("cores", JsonValue(12));

  const auto check_response = [&](const JsonValue& resp) {
    ASSERT_TRUE(resp.at("ok").as_bool()) << json_dump(resp);
    const JsonValue::Array& cells = resp.at("result").at("cells").as_array();
    ASSERT_EQ(cells.size(), expected.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const core::SweepCell& want = expected.cells[i];
      const JsonValue& got = cells[i];
      EXPECT_EQ(got.at("method").as_string(), wire_name(want.point.method));
      EXPECT_EQ(got.at("schedule").as_string(),
                wire_name(want.point.schedule));
      EXPECT_EQ(got.at("threads").as_u64(), want.point.threads);
      // Bit-identical: integer cycles exact, speedup exact to the last bit
      // (%.17g round-trips IEEE doubles).
      EXPECT_EQ(got.at("serial_cycles").as_u64(),
                want.estimate.serial_cycles);
      EXPECT_EQ(got.at("parallel_cycles").as_u64(),
                want.estimate.parallel_cycles);
      EXPECT_EQ(got.at("speedup").as_double(), want.estimate.speedup);
    }
  };

  const auto round = [&](bool expect_all_cached) {
    std::vector<std::thread> clients;
    std::vector<JsonValue> responses(8);
    clients.reserve(8);
    for (int i = 0; i < 8; ++i) {
      clients.emplace_back([&, i] {
        Client c;
        c.connect(server.config().socket_path);
        JsonValue req = request;
        req.set("key", JsonValue(c.upload(bytes)));
        responses[static_cast<std::size_t>(i)] = c.call(req);
      });
    }
    for (auto& t : clients) t.join();
    for (const JsonValue& resp : responses) {
      check_response(resp);
      if (expect_all_cached) {
        EXPECT_TRUE(resp.at("cached").as_bool());
      }
    }
  };

  round(/*expect_all_cached=*/false);
  // Round two repeats the identical request: every response must come from
  // the result cache, and the cache hit rate is visibly > 0.
  round(/*expect_all_cached=*/true);
  const ServerStatsSnapshot s = server.stats();
  EXPECT_GE(s.cache.hits, 8u);
  EXPECT_GT(s.cache.hit_rate(), 0.0);
  EXPECT_EQ(s.stored_trees, 1u);  // 16 uploads deduped to one tree
  server.stop();
}

TEST_F(ServerTest, PredictRoundTripAndRecommendIsUnknown) {
  Server server(base_config("predict"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  JsonValue predict;
  predict.set("op", JsonValue("predict"));
  predict.set("key", JsonValue(key));
  predict.set("method", JsonValue("syn"));
  predict.set("threads",
              JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4)}));
  const JsonValue presp = c.call(predict);
  ASSERT_TRUE(presp.at("ok").as_bool()) << json_dump(presp);
  ASSERT_EQ(presp.at("result").at("cells").as_array().size(), 2u);
  for (const JsonValue& cell : presp.at("result").at("cells").as_array()) {
    EXPECT_GT(cell.at("speedup").as_double(), 0.0);
  }

  // The recommend op is gone (advise supersedes it): a well-formed request
  // for it is an unknown op.
  JsonValue rec;
  rec.set("op", JsonValue("recommend"));
  rec.set("key", JsonValue(key));
  rec.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4),
                                                JsonValue(8)}));
  const JsonValue rresp = c.call(rec);
  EXPECT_FALSE(rresp.at("ok").as_bool());
  EXPECT_EQ(rresp.at("error").as_string(), kErrBadRequest);
  EXPECT_NE(rresp.at("message").as_string().find("unknown op"),
            std::string::npos)
      << json_dump(rresp);

  // The memory-model variant runs against a private tree expansion and must
  // not corrupt the shared stored tree for later plain requests.
  JsonValue mm = predict;
  mm.set("memory_model", JsonValue(true));
  const JsonValue mresp = c.call(mm);
  ASSERT_TRUE(mresp.at("ok").as_bool()) << json_dump(mresp);
  const JsonValue again = c.call(predict);
  EXPECT_EQ(json_dump(again.at("result")), json_dump(presp.at("result")));
  server.stop();
}

TEST_F(ServerTest, BackpressureRejectsWithOverloaded) {
  ServerConfig cfg = base_config("backpressure");
  cfg.workers = 1;
  cfg.queue_limit = 1;
  Server server(cfg);
  server.start();

  const auto sleep_req = [](std::uint64_t ms) {
    JsonValue r;
    r.set("op", JsonValue("sleep"));
    r.set("ms", JsonValue(ms));
    return r;
  };

  // c1 occupies the single worker; c2 occupies the single queue slot; c3's
  // request then has nowhere to go and must be rejected immediately.
  Client c1, c2, c3;
  c1.connect(server.config().socket_path);
  c2.connect(server.config().socket_path);
  c3.connect(server.config().socket_path);
  JsonValue r1, r2;
  std::thread t1([&] { r1 = c1.call(sleep_req(600)); });
  ASSERT_TRUE(wait_for_load(server, 1, 0));
  std::thread t2([&] { r2 = c2.call(sleep_req(0)); });
  ASSERT_TRUE(wait_for_load(server, 1, 1));

  const JsonValue rejected = c3.call(sleep_req(0));
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("error").as_string(), kErrOverloaded);

  t1.join();
  t2.join();
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_TRUE(r2.at("ok").as_bool());
  EXPECT_GE(server.stats().overloaded, 1u);
  server.stop();
}

TEST_F(ServerTest, QueuedDeadlineExpiresIntoDeadlineExceeded) {
  ServerConfig cfg = base_config("deadline");
  cfg.workers = 1;
  Server server(cfg);
  server.start();

  Client c1, c2;
  c1.connect(server.config().socket_path);
  c2.connect(server.config().socket_path);
  JsonValue r1;
  std::thread t1([&] {
    JsonValue r;
    r.set("op", JsonValue("sleep"));
    r.set("ms", JsonValue(500));
    r1 = c1.call(r);
  });
  ASSERT_TRUE(wait_for_load(server, 1, 0));

  // Queued behind a 500 ms job with a 50 ms budget: by the time a worker
  // picks it up the deadline has long expired.
  JsonValue r;
  r.set("op", JsonValue("sleep"));
  r.set("ms", JsonValue(0));
  r.set("deadline_ms", JsonValue(50));
  const JsonValue expired = c2.call(r);
  EXPECT_FALSE(expired.at("ok").as_bool());
  EXPECT_EQ(expired.at("error").as_string(), kErrDeadline);

  t1.join();
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_GE(server.stats().deadline_exceeded, 1u);
  server.stop();
}

// A budget far beyond any queue wait is a budget, not an overflow: the
// expiry check compares whole milliseconds queued, so a deadline of 10^13 ms
// (past the ~9.2e12 ms a steady_clock time point can add) is served.
TEST_F(ServerTest, HugeDeadlineIsServed) {
  Server server(base_config("huge_deadline"));
  server.start();
  Client c;
  c.connect(server.config().socket_path);
  const std::string key = c.upload(sample_pptb());

  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);
  write_frame(fd, "{\"op\":\"sweep\",\"v\":2,\"key\":\"" + key +
                      "\",\"threads\":[2,4],"
                      "\"deadline_ms\":10000000000000}");
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  ::close(fd);
  const JsonValue r = json_parse(payload);
  EXPECT_TRUE(r.at("ok").as_bool()) << payload;
  EXPECT_EQ(server.stats().deadline_exceeded, 0u);
  server.stop();
}

TEST_F(ServerTest, SigtermDrainsInFlightRequestsBeforeExit) {
  ServerConfig cfg = base_config("sigterm");
  cfg.workers = 1;
  Server server(cfg);
  server.start();
  arm_signal_shutdown(server, {SIGTERM});

  JsonValue admitted;
  std::thread client([&] {
    Client c;
    c.connect(server.config().socket_path);
    JsonValue r;
    r.set("op", JsonValue("sleep"));
    r.set("ms", JsonValue(400));
    admitted = c.call(r);
  });
  ASSERT_TRUE(wait_for_load(server, 1, 0));

  // The drain must let the admitted 400 ms request finish and flush its
  // response before wait() returns.
  std::raise(SIGTERM);
  server.wait();
  disarm_signal_shutdown();
  client.join();

  ASSERT_TRUE(admitted.is_object());
  EXPECT_TRUE(admitted.at("ok").as_bool());
  EXPECT_FALSE(server.running());
  // The socket is gone: new clients cannot connect after the drain.
  Client late;
  EXPECT_THROW(late.connect(cfg.socket_path), std::runtime_error);
}

TEST_F(ServerTest, StaleSocketIsReclaimedLiveSocketIsNot) {
  ServerConfig cfg = base_config("stale");
  {
    // First instance exits uncleanly enough to leave the file behind:
    // simulate by binding the path and abandoning it.
    Server first(cfg);
    first.start();
    {
      // A second server on the same path must refuse while the first
      // lives — and its teardown must not unlink the live server's socket
      // file (it never owned the path).
      Server conflict(cfg);
      EXPECT_THROW(conflict.start(), std::runtime_error);
    }
    // After the loser is fully destroyed, the winner still answers.
    Client still;
    still.connect(cfg.socket_path);
    EXPECT_TRUE(still.call("ping").at("ok").as_bool());
    first.stop();
  }
  // A stale socket file with no listener behind it (crashed daemon) is
  // reclaimed by the next start().
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);  // file stays behind, nobody listens
  }
  Server second(cfg);
  second.start();
  Client c;
  c.connect(cfg.socket_path);
  EXPECT_TRUE(c.call("ping").at("ok").as_bool());
  second.stop();
}

// A request that reaches an open connection after the drain began is
// answered `shutting_down`, not dropped, while a request admitted before the
// drain runs to completion.
TEST_F(ServerTest, BufferedRequestDuringDrainGetsShuttingDown) {
  ServerConfig cfg = base_config("drainbuf");
  cfg.workers = 1;
  Server server(cfg);
  server.start();

  // Occupy the single worker so the raw client's first frame stays queued
  // — and its connection open through the drain — while the second frame
  // arrives.
  Client busy;
  busy.connect(cfg.socket_path);
  JsonValue busy_resp;
  std::thread t([&] {
    JsonValue r;
    r.set("op", JsonValue("sleep"));
    r.set("ms", JsonValue(400));
    busy_resp = busy.call(r);
  });
  ASSERT_TRUE(wait_for_load(server, 1, 0));

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  JsonValue sleep0;
  sleep0.set("op", JsonValue("sleep"));
  sleep0.set("ms", JsonValue(0));
  write_frame(fd, json_dump(sleep0));  // admitted, queued behind `busy`
  ASSERT_TRUE(wait_for_load(server, 1, 1));

  server.request_shutdown();
  // The queue is closed once request_shutdown returns, and the connection
  // still owes frame 1's response, so it keeps reading.
  write_frame(fd, json_dump(sleep0));

  // Frame 1 was admitted before the drain: it runs to completion.
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_TRUE(json_parse(payload).at("ok").as_bool()) << payload;
  // Frame 2 arrived after the drain began: it is answered shutting_down.
  ASSERT_TRUE(read_frame(fd, payload));
  const JsonValue second = json_parse(payload);
  EXPECT_FALSE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("error").as_string(), kErrShuttingDown);
  ::close(fd);

  server.wait();
  t.join();
  EXPECT_TRUE(busy_resp.at("ok").as_bool());
  EXPECT_GE(server.stats().shutting_down, 1u);
}

// A client that pipelines requests but never reads responses eventually
// wedges its connection thread in send(); the send timeout must unwedge it
// so the drain still completes instead of hanging in wait() forever.
TEST_F(ServerTest, NeverReadingClientCannotHangDrain) {
  Server server(base_config("deadpeer"));
  server.start();

  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);
  // Bound our own sends too: once both directions' buffers are full the
  // server is blocked in send() and we would otherwise block in write.
  timeval tv{};
  tv.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  JsonValue stats_req;
  stats_req.set("op", JsonValue("stats"));
  const std::string frame = json_dump(stats_req);
  try {
    for (int i = 0; i < 20000; ++i) write_frame(fd, frame);
  } catch (const ProtocolError&) {
    // Buffers full or connection already dropped — both mean the server
    // side is (or was) wedged in send, which is the scenario under test.
  }
  server.stop();  // must return: the wedged connection times out and drops
  EXPECT_FALSE(server.running());
  ::close(fd);
}

// A result-cache hit splices the stored result bytes into the response.
// Whatever the op and whether or not the request carries "v", the hit's
// frame is the miss's frame byte for byte, except for the "cached" flag.
TEST_F(ServerTest, CacheHitFrameEqualsMissFrameByteForByte) {
  struct Case {
    const char* name;
    JsonValue request;
  };
  const auto grid = [](const char* op) {
    JsonValue req;
    req.set("op", JsonValue(op));
    req.set("methods", JsonValue(JsonValue::Array{JsonValue("ff"),
                                                  JsonValue("suit")}));
    req.set("schedules", JsonValue(JsonValue::Array{JsonValue("static1"),
                                                    JsonValue("dynamic")}));
    req.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4),
                                                  JsonValue(6)}));
    return req;
  };
  std::vector<Case> cases;
  cases.push_back({"sweep", grid("sweep")});
  cases.push_back({"sweep memory_model", grid("sweep")});
  cases.back().request.set("memory_model", JsonValue(true));
  cases.push_back({"sweep machines", grid("sweep")});
  cases.back().request.set(
      "machines",
      JsonValue(JsonValue::Array{JsonValue("westmere"), JsonValue("epyc")}));
  cases.push_back({"advise", JsonValue()});
  cases.back().request.set("op", JsonValue("advise"));
  cases.back().request.set(
      "threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4)}));

  for (const bool versioned : {false, true}) {
    // A fresh server per version, so each first request is a miss.
    Server server(base_config(versioned ? "splice2" : "splice1"));
    server.start();
    Client c;
    c.connect(server.config().socket_path);
    const std::string key = c.upload(sample_pptb());
    const int fd = raw_connect(server.config().socket_path);
    ASSERT_GE(fd, 0);
    for (Case& tc : cases) {
      SCOPED_TRACE(std::string(tc.name) + (versioned ? " v2" : " v1"));
      tc.request.set("key", JsonValue(key));
      if (versioned) tc.request.set("v", JsonValue(kProtocolVersion));
      std::string miss, hit;
      write_frame(fd, json_dump(tc.request));
      ASSERT_TRUE(read_frame(fd, miss));
      write_frame(fd, json_dump(tc.request));
      ASSERT_TRUE(read_frame(fd, hit));
      ASSERT_TRUE(json_parse(miss).at("ok").as_bool()) << miss;
      EXPECT_EQ(json_parse(miss).find("v") != nullptr, versioned);
      const std::string flag = "\"cached\":false";
      const std::size_t at = miss.find(flag);
      ASSERT_NE(at, std::string::npos) << miss;
      ASSERT_EQ(miss.find(flag, at + 1), std::string::npos) << miss;
      miss.replace(at, flag.size(), "\"cached\":true");
      EXPECT_EQ(hit, miss);
    }
    ::close(fd);
    server.stop();
  }
}

}  // namespace
}  // namespace pprophet::serve
