// Reactor-level integration tests: transport resilience (fd exhaustion,
// mid-frame stalls), adversarial framing against the incremental decoder,
// request pipelining, the TCP transport, tiered load shedding, and many
// concurrent clients on both transports. Most poke the server through raw
// sockets on purpose — the Client helper is too polite to produce the byte
// patterns the reactor has to survive.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/sweep.hpp"
#include "obs/event_log.hpp"
#include "report/experiment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "util/rng.hpp"
#include "workloads/test_patterns.hpp"
#include "serve_test_util.hpp"

namespace pprophet::serve {
namespace {

void send_all(int fd, const char* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    sent += static_cast<std::size_t>(w);
  }
}

JsonValue op_req(const char* op) {
  JsonValue r;
  r.set("op", JsonValue(op));
  return r;
}

class ReactorTest : public ::testing::Test {
 protected:
  ServerConfig base_config(const char* tag) {
    ServerConfig cfg;
    cfg.socket_path = testing::TempDir() + "pp_reactor_" + tag + ".sock";
    cfg.workers = 2;
    cfg.sweep_workers = 1;
    cfg.debug_ops = true;
    return cfg;
  }
};

// The regression test for the silent-death bug: accept() failing with
// EMFILE used to `break` out of the accept loop, leaving the daemon alive
// but deaf forever. The reactor must instead count the error, back off, and
// resume accepting once descriptors free up — the client that connected
// during the outage (sitting in the listen backlog) still gets served.
TEST_F(ReactorTest, FdExhaustionRecoveryAfterAcceptFailure) {
  ServerConfig cfg = base_config("fdlimit");
  Server server(cfg);
  server.start();

  Client warm;
  warm.connect(cfg.socket_path);
  ASSERT_TRUE(warm.call("ping").at("ok").as_bool());

  // The victim's socket is created before the starvation so its connect()
  // can still run while the process has no descriptors left.
  const int victim = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(victim, 0);

  rlimit orig{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &orig), 0);
  std::vector<int> hogs;
  const auto release = [&] {
    for (const int fd : hogs) ::close(fd);
    hogs.clear();
    ::setrlimit(RLIMIT_NOFILE, &orig);
  };

  // Drop the soft limit near current usage, then burn every remaining slot.
  rlimit low = orig;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  for (;;) {
    const int fd = ::dup(0);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);

  // connect() succeeds while the listen backlog has room even though the
  // server's accept4() now fails with EMFILE.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  if (::connect(victim, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    release();
    FAIL() << "backlog connect failed: " << std::strerror(errno);
  }
  write_frame(victim, json_dump(op_req("ping")));

  // The old code exits the accept loop here; the fixed one keeps counting.
  wait_for_state(server, [](const ServerStatsSnapshot& s) {
    return s.accept_errors > 0;
  });
  const std::uint64_t during_outage = server.stats().accept_errors;
  release();
  if (during_outage == 0) FAIL() << "accept error never surfaced";

  // Descriptors are back: the backoff expires, the listener re-arms, the
  // backlogged connection is accepted, and its ping is answered. Bound the
  // wait so a server that stopped accepting forever (the old `break`
  // behavior) fails the test instead of hanging it.
  timeval tv{};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(victim, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv), 0);
  std::string payload;
  ASSERT_TRUE(read_frame(victim, payload));
  EXPECT_TRUE(json_parse(payload).at("ok").as_bool()) << payload;
  ::close(victim);

  // A fresh client connects fine after the outage, and the counter shows
  // up both in the snapshot and the stats op's transport section.
  Client late;
  late.connect(cfg.socket_path);
  const JsonValue stats = late.call("stats");
  EXPECT_GE(stats.at("stats").at("transport").at("accept_errors").as_u64(),
            1u);
  EXPECT_GE(server.stats().accept_errors, 1u);
  server.stop();
}

// A peer that wedges mid-frame (header sent, payload never finished) must
// be dropped after io_timeout_ms — counted, and logged at Warn severity so
// it bypasses log sampling — while a connection idling *between* frames
// stays open indefinitely.
TEST_F(ReactorTest, MidFrameStallIsTimedOutAndLogged) {
  std::ostringstream sink;
  obs::EventLog log(sink);
  ServerConfig cfg = base_config("stall");
  cfg.io_timeout_ms = 100;
  cfg.event_log = &log;
  Server server(cfg);
  server.start();

  // Idle-between-frames control: older than the timeout, still served.
  Client idle;
  idle.connect(cfg.socket_path);
  ASSERT_TRUE(idle.call("ping").at("ok").as_bool());

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  // Header claims 64 bytes; send only 8 and stall.
  const unsigned char header[4] = {64, 0, 0, 0};
  send_all(fd, reinterpret_cast<const char*>(header), sizeof header);
  send_all(fd, "partial!", 8);

  std::string payload;
  EXPECT_FALSE(read_frame(fd, payload));  // server hangs up on us
  ::close(fd);

  wait_for_state(server, [](const ServerStatsSnapshot& s) {
    return s.io_timeouts > 0;
  });
  EXPECT_GE(server.stats().io_timeouts, 1u);
  EXPECT_NE(sink.str().find("io_timeout"), std::string::npos) << sink.str();

  // The stalled peer did not take the idle connection down with it.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(idle.call("ping").at("ok").as_bool());
  server.stop();
}

// One byte per write: the decoder must assemble the frame incrementally
// across however many reads it takes.
TEST_F(ReactorTest, ByteAtATimeDribbleAssemblesOneFrame) {
  Server server(base_config("dribble"));
  server.start();
  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);

  const std::string body = json_dump(op_req("ping"));
  const std::string frame = encode_frame(body);
  for (const char ch : frame) {
    send_all(fd, &ch, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_TRUE(json_parse(payload).at("ok").as_bool()) << payload;
  ::close(fd);
  server.stop();
}

// The opposite extreme: dozens of complete frames arriving in a single
// read. Every one is answered, in order.
TEST_F(ReactorTest, ManyPipelinedFramesInOneWrite) {
  Server server(base_config("burst"));
  server.start();
  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);

  // Alternate a valid op with an unknown one so reordering would be
  // visible in the ok/op fields, not just dropped frames.
  constexpr int kFrames = 32;
  std::string burst;
  for (int i = 0; i < kFrames; ++i) {
    burst += encode_frame(json_dump(op_req(i % 2 == 0 ? "ping" : "no_such")));
  }
  send_all(fd, burst.data(), burst.size());

  for (int i = 0; i < kFrames; ++i) {
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload)) << "response " << i;
    const JsonValue resp = json_parse(payload);
    EXPECT_EQ(resp.at("ok").as_bool(), i % 2 == 0) << payload;
    EXPECT_EQ(resp.at("op").as_string(), i % 2 == 0 ? "ping" : "no_such");
  }
  ::close(fd);
  server.stop();
}

// The nastiest split point: the 4-byte length prefix itself arrives in two
// halves, with the payload trickling after in two more pieces.
TEST_F(ReactorTest, FrameSplitInsideHeaderBoundary) {
  Server server(base_config("split"));
  server.start();
  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);

  const std::string frame = encode_frame(json_dump(op_req("ping")));
  ASSERT_GT(frame.size(), 6u);
  const std::size_t cuts[3] = {2, 4, frame.size() / 2};
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    send_all(fd, frame.data() + at, cut - at);
    at = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  send_all(fd, frame.data() + at, frame.size() - at);

  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  EXPECT_TRUE(json_parse(payload).at("ok").as_bool()) << payload;
  ::close(fd);
  server.stop();
}

// A header declaring more than kMaxFrameBytes is rejected at header time —
// the connection drops without the server ever buffering the body.
TEST_F(ReactorTest, OversizeFrameDropsConnection) {
  Server server(base_config("oversize"));
  server.start();
  const int fd = raw_connect(server.config().socket_path);
  ASSERT_GE(fd, 0);

  const std::uint32_t huge = kMaxFrameBytes + 1;
  unsigned char header[4] = {
      static_cast<unsigned char>(huge & 0xff),
      static_cast<unsigned char>((huge >> 8) & 0xff),
      static_cast<unsigned char>((huge >> 16) & 0xff),
      static_cast<unsigned char>((huge >> 24) & 0xff)};
  send_all(fd, reinterpret_cast<const char*>(header), sizeof header);

  std::string payload;
  EXPECT_FALSE(read_frame(fd, payload));  // dropped, no response
  ::close(fd);

  wait_for_state(server, [](const ServerStatsSnapshot& s) {
    return counter_value(s.metrics, "serve.protocol_errors") > 0;
  });
  EXPECT_GE(counter_value(server.stats().metrics, "serve.protocol_errors"),
            1u);
  // The server survives for well-formed clients.
  Client c;
  c.connect(server.config().socket_path);
  EXPECT_TRUE(c.call("ping").at("ok").as_bool());
  server.stop();
}

// Pipelined heavy + light requests on one connection: responses come back
// in request order (the reactor holds a finished ping behind an unfinished
// sweep), and the sweep payloads are bit-identical to in-process
// core::sweep on the same tree.
TEST_F(ReactorTest, PipelinedSweepsOrderedAndBitIdentical) {
  ServerConfig cfg = base_config("pipeline");
  cfg.workers = 2;
  Server server(cfg);
  server.start();
  const std::string bytes = sample_pptb();

  Client uploader;
  uploader.connect(cfg.socket_path);
  const std::string key = uploader.upload(bytes);

  core::SweepGrid grid;
  grid.methods = {core::Method::FastForward, core::Method::Synthesizer};
  grid.paradigms = {core::Paradigm::OpenMP};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic};
  grid.chunks = {1};
  grid.thread_counts = {2, 4};
  grid.memory_models = {false};
  grid.base = report::paper_options(grid.methods.front());
  grid.base.machine.cores = 12;
  const core::SweepResult expected =
      core::sweep(tree::unpack(tree::from_binary(bytes)), grid);

  JsonValue sweep_req = op_req("sweep");
  sweep_req.set("key", JsonValue(key));
  sweep_req.set("methods",
                JsonValue(JsonValue::Array{JsonValue("ff"), JsonValue("syn")}));
  sweep_req.set("schedules",
                JsonValue(JsonValue::Array{JsonValue("static1")}));
  sweep_req.set("threads",
                JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4)}));
  sweep_req.set("cores", JsonValue(12));

  const int fd = raw_connect(cfg.socket_path);
  ASSERT_GE(fd, 0);
  const char* order[5] = {"sweep", "ping", "sweep", "ping", "sweep"};
  std::string burst;
  for (const char* op : order) {
    burst += encode_frame(
        json_dump(std::string(op) == "sweep" ? sweep_req : op_req(op)));
  }
  send_all(fd, burst.data(), burst.size());

  for (const char* op : order) {
    std::string payload;
    ASSERT_TRUE(read_frame(fd, payload));
    const JsonValue resp = json_parse(payload);
    ASSERT_TRUE(resp.at("ok").as_bool()) << payload;
    EXPECT_EQ(resp.at("op").as_string(), op);
    if (std::string(op) != "sweep") continue;
    const JsonValue::Array& cells = resp.at("result").at("cells").as_array();
    ASSERT_EQ(cells.size(), expected.cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const core::SweepCell& want = expected.cells[i];
      EXPECT_EQ(cells[i].at("serial_cycles").as_u64(),
                want.estimate.serial_cycles);
      EXPECT_EQ(cells[i].at("parallel_cycles").as_u64(),
                want.estimate.parallel_cycles);
      EXPECT_EQ(cells[i].at("speedup").as_double(), want.estimate.speedup);
    }
  }
  ::close(fd);
  server.stop();
}

// The TCP transport speaks the identical frame protocol: the same sweep
// issued over unix and over 127.0.0.1 returns byte-equal result payloads,
// both bit-identical to the in-process computation.
TEST_F(ReactorTest, TcpTransportBitIdenticalToUnixAndInProcess) {
  ServerConfig cfg = base_config("tcp");
  cfg.listen_tcp = "127.0.0.1:0";  // ephemeral; resolved via tcp_port()
  Server server(cfg);
  server.start();
  ASSERT_NE(server.tcp_port(), 0);
  ASSERT_EQ(server.endpoints().size(), 2u);

  const std::string bytes = sample_pptb();
  core::SweepGrid grid;
  grid.methods = {core::Method::Synthesizer};
  grid.paradigms = {core::Paradigm::OpenMP};
  grid.schedules = {runtime::OmpSchedule::StaticCyclic,
                    runtime::OmpSchedule::Dynamic};
  grid.chunks = {1};
  grid.thread_counts = {2, 4, 8};
  grid.memory_models = {false};
  grid.base = report::paper_options(grid.methods.front());
  grid.base.machine.cores = 12;
  const core::SweepResult expected =
      core::sweep(tree::unpack(tree::from_binary(bytes)), grid);

  Client over_unix, over_tcp;
  over_unix.connect(cfg.socket_path);
  over_tcp.connect_tcp("127.0.0.1:" + std::to_string(server.tcp_port()));

  const std::string key_unix = over_unix.upload(bytes);
  const std::string key_tcp = over_tcp.upload(bytes);
  EXPECT_EQ(key_unix, key_tcp);  // content-addressed: same digest

  JsonValue req = op_req("sweep");
  req.set("key", JsonValue(key_tcp));
  req.set("methods", JsonValue(JsonValue::Array{JsonValue("syn")}));
  req.set("schedules", JsonValue(JsonValue::Array{JsonValue("static1"),
                                                  JsonValue("dynamic")}));
  req.set("threads", JsonValue(JsonValue::Array{JsonValue(2), JsonValue(4),
                                                JsonValue(8)}));
  req.set("cores", JsonValue(12));

  const JsonValue r_tcp = over_tcp.call(req);
  const JsonValue r_unix = over_unix.call(req);
  ASSERT_TRUE(r_tcp.at("ok").as_bool()) << json_dump(r_tcp);
  ASSERT_TRUE(r_unix.at("ok").as_bool()) << json_dump(r_unix);
  EXPECT_EQ(r_tcp.at("result"), r_unix.at("result"));

  const JsonValue::Array& cells = r_tcp.at("result").at("cells").as_array();
  ASSERT_EQ(cells.size(), expected.cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].at("serial_cycles").as_u64(),
              expected.cells[i].estimate.serial_cycles);
    EXPECT_EQ(cells[i].at("parallel_cycles").as_u64(),
              expected.cells[i].estimate.parallel_cycles);
    EXPECT_EQ(cells[i].at("speedup").as_double(),
              expected.cells[i].estimate.speedup);
  }
  server.stop();
}

// Tiered shedding: with the queue at its high watermark, expensive ops are
// rejected with tier="expensive" while cheap ops are still admitted; once
// the queue is truly full everything sheds with tier="full".
TEST_F(ReactorTest, LoadSheddingShedsExpensiveOpsFirst) {
  ServerConfig cfg = base_config("shed");
  cfg.workers = 1;
  cfg.queue_limit = 4;  // high watermark = 2
  Server server(cfg);
  server.start();

  const auto sleep_req = [](std::uint64_t ms) {
    JsonValue r = op_req("sleep");
    r.set("ms", JsonValue(ms));
    return r;
  };
  // Cheap filler: predict on an unknown key costs a worker microseconds
  // but occupies a queue slot while the worker is parked.
  const auto cheap_req = [] {
    JsonValue r = op_req("predict");
    r.set("key", JsonValue(std::string(32, '0')));
    return r;
  };

  Client parked, q1, q2, probe, f1, f2, full_probe;
  for (Client* c : {&parked, &q1, &q2, &probe, &f1, &f2, &full_probe}) {
    c->connect(cfg.socket_path);
  }

  // Park the worker, then stack the queue to the high watermark.
  JsonValue parked_resp, q1_resp, q2_resp, f1_resp, f2_resp;
  std::thread t0([&] { parked_resp = parked.call(sleep_req(900)); });
  ASSERT_TRUE(wait_for_load(server, 1, 0));
  std::thread t1([&] { q1_resp = q1.call(sleep_req(0)); });
  std::thread t2([&] { q2_resp = q2.call(sleep_req(0)); });
  ASSERT_TRUE(wait_for_load(server, 1, 2));
  // Queue depth 2 = watermark: the expensive probe sheds...
  const JsonValue shed = probe.call(sleep_req(0));
  EXPECT_FALSE(shed.at("ok").as_bool());
  EXPECT_EQ(shed.at("error").as_string(), kErrOverloaded);
  EXPECT_EQ(shed.at("tier").as_string(), "expensive");
  // ...but cheap ops are still admitted until the queue is actually full.
  std::thread t3([&] { f1_resp = f1.call(cheap_req()); });
  std::thread t4([&] { f2_resp = f2.call(cheap_req()); });
  ASSERT_TRUE(wait_for_load(server, 1, 4));
  // Depth 4 = limit: now even a cheap op sheds, with the "full" tier tag.
  const JsonValue full = full_probe.call(cheap_req());
  EXPECT_FALSE(full.at("ok").as_bool());
  EXPECT_EQ(full.at("error").as_string(), kErrOverloaded);
  EXPECT_EQ(full.at("tier").as_string(), "full");

  for (std::thread* t : {&t0, &t1, &t2, &t3, &t4}) t->join();
  EXPECT_TRUE(parked_resp.at("ok").as_bool());
  EXPECT_TRUE(q1_resp.at("ok").as_bool());
  EXPECT_TRUE(q2_resp.at("ok").as_bool());
  // The cheap fillers ran once the worker freed up (not_found, not shed).
  EXPECT_EQ(f1_resp.at("error").as_string(), kErrNotFound);
  EXPECT_EQ(f2_resp.at("error").as_string(), kErrNotFound);

  const obs::MetricsSnapshot snap = server.stats().metrics;
  EXPECT_GE(counter_value(snap, "serve.shed.expensive"), 1u);
  EXPECT_GE(counter_value(snap, "serve.shed.full"), 1u);
  EXPECT_GE(server.stats().overloaded, 2u);
  server.stop();
}

// Many concurrent clients on both transports: each transport gets its own
// daemon (4 serve workers) and 64 client threads that each upload the same
// tree and send 4 sweeps drawn from a 4-kind mix, so the result cache sees
// first-touch misses and repeat hits. Every response must equal an
// in-process core::sweep, the identical uploads must leave one stored tree,
// the cache must hit, and the per-stage histogram totals must partition
// serve.total_us exactly (request_trace.hpp).
TEST_F(ReactorTest, ConcurrentClientsOnBothTransportsMatchInProcessSweep) {
  constexpr int kClients = 64;
  constexpr int kRequests = 4;
  struct Kind {
    std::vector<core::Method> methods;
    std::vector<runtime::OmpSchedule> schedules;
    std::vector<CoreCount> threads;
  };
  const std::vector<Kind> kinds = {
      {{core::Method::Synthesizer}, {runtime::OmpSchedule::StaticCyclic},
       {2, 4, 8, 12}},
      {{core::Method::FastForward}, {runtime::OmpSchedule::Dynamic},
       {2, 4, 8}},
      {{core::Method::FastForward, core::Method::Synthesizer},
       {runtime::OmpSchedule::StaticCyclic, runtime::OmpSchedule::StaticBlock},
       {2, 4, 6, 8, 10, 12}},
      {{core::Method::Suitability}, {runtime::OmpSchedule::Guided}, {4, 8}},
  };

  util::Xoshiro256 rng(2012);
  tree::ProgramTree t = workloads::run_test2(workloads::random_test2(rng));
  tree::compress(t);
  const std::string pptb = tree::to_binary(tree::pack(t));
  const tree::ProgramTree reference = tree::unpack(tree::from_binary(pptb));
  std::vector<core::SweepResult> expected;
  for (const Kind& k : kinds) {
    core::SweepGrid grid;
    grid.methods = k.methods;
    grid.paradigms = {core::Paradigm::OpenMP};
    grid.schedules = k.schedules;
    grid.chunks = {1};
    grid.thread_counts = k.threads;
    grid.memory_models = {false};
    grid.base = report::paper_options(k.methods.front());
    grid.base.machine.cores = 12;
    expected.push_back(core::sweep(reference, grid));
  }
  const auto request = [&](const Kind& k, const std::string& key) {
    JsonValue req = op_req("sweep");
    req.set("key", JsonValue(key));
    JsonValue::Array methods, schedules, threads;
    for (const auto m : k.methods) methods.emplace_back(wire_name(m));
    for (const auto sc : k.schedules) schedules.emplace_back(wire_name(sc));
    for (const auto n : k.threads) {
      threads.emplace_back(static_cast<std::uint64_t>(n));
    }
    req.set("methods", JsonValue(std::move(methods)));
    req.set("schedules", JsonValue(std::move(schedules)));
    req.set("threads", JsonValue(std::move(threads)));
    req.set("cores", JsonValue(std::uint64_t{12}));
    return req;
  };
  const auto matches = [](const JsonValue& resp,
                          const core::SweepResult& want) {
    const JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
    const JsonValue::Array& cells = resp.at("result").at("cells").as_array();
    if (cells.size() != want.cells.size()) return false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const core::SpeedupEstimate& e = want.cells[i].estimate;
      if (cells[i].at("parallel_cycles").as_u64() != e.parallel_cycles ||
          cells[i].at("serial_cycles").as_u64() != e.serial_cycles ||
          cells[i].at("speedup").as_double() != e.speedup) {
        return false;
      }
    }
    return true;
  };

  for (const bool tcp : {false, true}) {
    SCOPED_TRACE(tcp ? "tcp" : "unix");
    ServerConfig cfg = base_config(tcp ? "load_tcp" : "load_unix");
    if (tcp) cfg.listen_tcp = "127.0.0.1:0";
    cfg.workers = 4;
    // Headroom above the client count: shedding is covered by
    // LoadSheddingShedsExpensiveOpsFirst.
    cfg.queue_limit = kClients * 4;
    Server server(cfg);
    server.start();
    const std::string endpoint =
        tcp ? "127.0.0.1:" + std::to_string(server.tcp_port())
            : cfg.socket_path;

    std::vector<int> mismatches(kClients, 0);
    std::vector<std::thread> pool;
    for (int c = 0; c < kClients; ++c) {
      pool.emplace_back([&, c] {
        Client client;
        client.connect_endpoint(endpoint);
        const std::string key = client.upload(pptb);
        for (int r = 0; r < kRequests; ++r) {
          const std::size_t k = static_cast<std::size_t>(c + r) % kinds.size();
          if (!matches(client.call(request(kinds[k], key)), expected[k])) {
            ++mismatches[static_cast<std::size_t>(c)];
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
    // Snapshot only after stop(): a client can read its last response
    // before the reactor finishes recording that request's stage
    // histograms, and a mid-record snapshot would not reconcile.
    server.stop();
    const ServerStatsSnapshot stats = server.stats();

    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0) << "client " << c;
    }
    EXPECT_EQ(stats.stored_trees, 1u);
    EXPECT_GT(stats.cache.hits, 0u);
    std::uint64_t stage_sum = 0, total = 0, finished = 0;
    for (const auto& [name, h] : stats.metrics.histograms) {
      if (name == "serve.total_us") {
        total = h.total;
        finished = h.count;
      }
      if (name == "serve.read_us" || name == "serve.queue_wait_us" ||
          name == "serve.compute_us" || name == "serve.write_us" ||
          name == "serve.other_us") {
        stage_sum += h.total;
      }
    }
    EXPECT_EQ(finished, std::uint64_t{kClients} * (kRequests + 1));
    EXPECT_EQ(stage_sum, total);
  }
}

}  // namespace
}  // namespace pprophet::serve
