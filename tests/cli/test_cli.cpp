#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tree/serialize.hpp"
#include "workloads/test_patterns.hpp"

namespace pprophet::cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_path_ = testing::TempDir() + "cli_sample.ptree";
    workloads::Test1Params p;
    p.i_max = 16;
    p.lock1_prob = 0.5;
    const tree::ProgramTree t = workloads::run_test1(p);
    std::ofstream f(tree_path_);
    tree::write_tree(f, t);
  }

  void TearDown() override { std::remove(tree_path_.c_str()); }

  std::optional<Options> parse(std::vector<std::string> args) {
    return parse_args(args, err_);
  }

  int run_cmd(const Options& o) { return run(o, out_, err_); }

  std::string tree_path_;
  std::ostringstream out_, err_;
};

TEST_F(CliTest, ParseRejectsEmptyAndUnknown) {
  EXPECT_FALSE(parse({}).has_value());
  EXPECT_FALSE(parse({"frobnicate"}).has_value());
  // The recommend subcommand is gone; advise covers it.
  EXPECT_FALSE(parse({"recommend", "--tree", tree_path_}).has_value());
  EXPECT_FALSE(parse({"predict", "--tree", tree_path_, "--zap"}).has_value());
}

TEST_F(CliTest, ParseRequiresTree) {
  EXPECT_FALSE(parse({"predict"}).has_value());
  EXPECT_NE(err_.str().find("--tree"), std::string::npos);
}

TEST_F(CliTest, ParseFullPredictLine) {
  const auto o = parse({"predict", "--tree", tree_path_, "--method", "ff",
                        "--paradigm", "cilk", "--schedule", "guided",
                        "--chunk", "4", "--threads", "2,6,12", "--cores", "6",
                        "--memory-model", "--csv", "/tmp/x.csv"});
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->method, core::Method::FastForward);
  EXPECT_EQ(o->paradigm, core::Paradigm::CilkPlus);
  EXPECT_EQ(o->schedule, runtime::OmpSchedule::Guided);
  EXPECT_EQ(o->chunk, 4u);
  EXPECT_EQ(o->threads, (std::vector<CoreCount>{2, 6, 12}));
  EXPECT_EQ(o->cores, 6u);
  EXPECT_TRUE(o->memory_model);
  EXPECT_EQ(o->csv_path, "/tmp/x.csv");
}

// The canonical spellings (ff/syn/suit/real, omp/cilk, static/static1/
// dynamic/guided) come from one shared parser in serve/protocol.cpp; every
// subcommand — predict's singular flags, sweep's and client's list flags —
// must accept exactly this table, and the wire parsers must agree.
TEST_F(CliTest, CanonicalSpellingsSharedAcrossSubcommands) {
  const struct {
    const char* spelling;
    core::Method want;
  } kMethods[] = {
      {"ff", core::Method::FastForward},
      {"syn", core::Method::Synthesizer},
      {"suit", core::Method::Suitability},
      {"real", core::Method::GroundTruth},
  };
  const struct {
    const char* spelling;
    core::Paradigm want;
  } kParadigms[] = {
      {"omp", core::Paradigm::OpenMP},
      {"cilk", core::Paradigm::CilkPlus},
  };
  const struct {
    const char* spelling;
    runtime::OmpSchedule want;
  } kSchedules[] = {
      {"static", runtime::OmpSchedule::StaticBlock},
      {"static1", runtime::OmpSchedule::StaticCyclic},
      {"dynamic", runtime::OmpSchedule::Dynamic},
      {"guided", runtime::OmpSchedule::Guided},
  };

  for (const auto& m : kMethods) {
    SCOPED_TRACE(m.spelling);
    const auto singular =
        parse({"predict", "--tree", tree_path_, "--method", m.spelling});
    ASSERT_TRUE(singular.has_value());
    EXPECT_EQ(singular->method, m.want);
    for (const char* cmd : {"sweep", "client"}) {
      const auto plural =
          parse({cmd, "--tree", tree_path_, "--methods", m.spelling});
      ASSERT_TRUE(plural.has_value());
      ASSERT_EQ(plural->methods.size(), 1u);
      EXPECT_EQ(plural->methods[0], m.want);
    }
    core::Method wire = core::Method::GroundTruth;
    EXPECT_TRUE(serve::parse_method(m.spelling, wire));
    EXPECT_EQ(wire, m.want);
  }
  for (const auto& p : kParadigms) {
    SCOPED_TRACE(p.spelling);
    const auto singular =
        parse({"predict", "--tree", tree_path_, "--paradigm", p.spelling});
    ASSERT_TRUE(singular.has_value());
    EXPECT_EQ(singular->paradigm, p.want);
    for (const char* cmd : {"sweep", "client"}) {
      const auto plural =
          parse({cmd, "--tree", tree_path_, "--paradigms", p.spelling});
      ASSERT_TRUE(plural.has_value());
      ASSERT_EQ(plural->paradigms.size(), 1u);
      EXPECT_EQ(plural->paradigms[0], p.want);
    }
    core::Paradigm wire = core::Paradigm::OpenMP;
    EXPECT_TRUE(serve::parse_paradigm(p.spelling, wire));
    EXPECT_EQ(wire, p.want);
  }
  for (const auto& s : kSchedules) {
    SCOPED_TRACE(s.spelling);
    const auto singular =
        parse({"predict", "--tree", tree_path_, "--schedule", s.spelling});
    ASSERT_TRUE(singular.has_value());
    EXPECT_EQ(singular->schedule, s.want);
    for (const char* cmd : {"sweep", "client"}) {
      const auto plural =
          parse({cmd, "--tree", tree_path_, "--schedules", s.spelling});
      ASSERT_TRUE(plural.has_value());
      ASSERT_EQ(plural->schedules.size(), 1u);
      EXPECT_EQ(plural->schedules[0], s.want);
    }
    runtime::OmpSchedule wire = runtime::OmpSchedule::StaticCyclic;
    EXPECT_TRUE(serve::parse_schedule(s.spelling, wire));
    EXPECT_EQ(wire, s.want);
  }

  // And the rejects stay rejects everywhere: the serve/client parsers must
  // not be looser than predict's.
  for (const char* cmd : {"predict", "client"}) {
    EXPECT_FALSE(parse({cmd, "--tree", tree_path_, "--method", "fast"}));
    EXPECT_FALSE(parse({cmd, "--tree", tree_path_, "--paradigm", "openmp"}));
    EXPECT_FALSE(parse({cmd, "--tree", tree_path_, "--schedule", "Static"}));
  }
}

TEST_F(CliTest, ParseRejectsBadValues) {
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--method", "magic"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--schedule", "bogus"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--threads", "0"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--threads", "a,b"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--chunk", "0"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--cores", "-2"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--tolerance", "7"}));
  EXPECT_FALSE(parse({"predict", "--tree", "t", "--csv"}));  // missing value
}

TEST_F(CliTest, PredictProducesSpeedupTable) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  EXPECT_NE(s.find("projected speedup"), std::string::npos);
  EXPECT_NE(s.find("| 4"), std::string::npos);
}

TEST_F(CliTest, PredictWritesCsv) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {2};
  o.csv_path = testing::TempDir() + "cli_out.csv";
  EXPECT_EQ(run_cmd(o), 0);
  std::ifstream f(o.csv_path);
  std::string header;
  std::getline(f, header);
  EXPECT_EQ(header, "threads,speedup,parallel_cycles,serial_cycles,method,"
                    "schedule");
  std::remove(o.csv_path.c_str());
}

TEST_F(CliTest, PredictWithMemoryModelRuns) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {8};
  o.memory_model = true;
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_NE(out_.str().find("memory model on"), std::string::npos);
}

TEST_F(CliTest, InspectReportsStats) {
  Options o;
  o.command = "inspect";
  o.tree_path = tree_path_;
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  EXPECT_NE(s.find("valid: yes"), std::string::npos);
  EXPECT_NE(s.find("test1"), std::string::npos);
}

TEST_F(CliTest, CompressRoundTrips) {
  Options o;
  o.command = "compress";
  o.tree_path = tree_path_;
  o.output_path = testing::TempDir() + "cli_compressed.ptree";
  EXPECT_EQ(run_cmd(o), 0);
  // The output parses and predicts like the input (within tolerance).
  std::ifstream f(o.output_path);
  std::ostringstream text;
  text << f.rdbuf();
  EXPECT_NO_THROW({
    const tree::ProgramTree back = tree::from_text(text.str());
    EXPECT_GT(back.node_count(), 1u);
  });
  std::remove(o.output_path.c_str());
}

TEST_F(CliTest, CompressWithoutOutputFails) {
  Options o;
  o.command = "compress";
  o.tree_path = tree_path_;
  EXPECT_EQ(run_cmd(o), 1);
}

TEST_F(CliTest, MissingFileIsHandled) {
  Options o;
  o.command = "predict";
  o.tree_path = "/nonexistent.ptree";
  EXPECT_EQ(run_cmd(o), 1);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, MalformedTreeIsHandled) {
  const std::string bad = testing::TempDir() + "bad.ptree";
  std::ofstream(bad) << "Garbage x len=1\n";
  Options o;
  o.command = "inspect";
  o.tree_path = bad;
  EXPECT_EQ(run_cmd(o), 1);
  EXPECT_NE(err_.str().find("parse error"), std::string::npos);
  std::remove(bad.c_str());
}

TEST_F(CliTest, MainImplEndToEnd) {
  const char* argv[] = {"pprophet", "predict", "--tree", tree_path_.c_str(),
                        "--threads", "2"};
  EXPECT_EQ(main_impl(6, argv, out_, err_), 0);
  EXPECT_NE(out_.str().find("projected speedup"), std::string::npos);
}

TEST_F(CliTest, AdviseParsesTargetThreads) {
  const auto o = parse({"advise", "--tree", tree_path_, "--threads", "2,4",
                        "--target-threads", "4"});
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->command, "advise");
  EXPECT_EQ(o->threads, (std::vector<CoreCount>{2, 4}));
  EXPECT_EQ(o->target_threads, 4u);

  EXPECT_FALSE(parse({"advise"}).has_value());  // --tree is required
  EXPECT_FALSE(
      parse({"advise", "--tree", tree_path_, "--target-threads", "0"})
          .has_value());
}

TEST_F(CliTest, AdvisePrintsProfileAndRankedEdits) {
  Options o;
  o.command = "advise";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  // Critical-path profile table + configuration verdicts + ranked edits.
  EXPECT_NE(s.find("serial:"), std::string::npos);
  EXPECT_NE(s.find("parallelism"), std::string::npos);
  EXPECT_NE(s.find("best:"), std::string::npos);
  EXPECT_NE(s.find("economical:"), std::string::npos);
  EXPECT_NE(s.find("baseline at 4 threads"), std::string::npos);
  const bool has_edits = s.find("what-if edits") != std::string::npos ||
                         s.find("no profitable edits") != std::string::npos;
  EXPECT_TRUE(has_edits) << s;
}

TEST_F(CliTest, TimelineRendersGantt) {
  Options o;
  o.command = "timeline";
  o.tree_path = tree_path_;
  o.threads = {4};
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  EXPECT_NE(s.find("thread 0"), std::string::npos);
  EXPECT_NE(s.find("speedup"), std::string::npos);
  EXPECT_NE(s.find("lock wait"), std::string::npos);
}

TEST_F(CliTest, TimelineCilkParadigm) {
  Options o;
  o.command = "timeline";
  o.tree_path = tree_path_;
  o.paradigm = core::Paradigm::CilkPlus;
  o.threads = {2};
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_NE(out_.str().find("CilkPlus"), std::string::npos);
}

// --- observability flags (docs/OBSERVABILITY.md) -------------------------

TEST_F(CliTest, ParseObservabilityFlags) {
  const auto o = parse({"predict", "--tree", tree_path_, "--metrics",
                        "--trace-out", "/tmp/t.json"});
  ASSERT_TRUE(o.has_value());
  EXPECT_TRUE(o->metrics);
  EXPECT_TRUE(o->metrics_path.empty());
  EXPECT_EQ(o->trace_path, "/tmp/t.json");

  const auto o2 = parse({"sweep", "--tree", tree_path_,
                         "--metrics=/tmp/m.json", "--trace-out=/tmp/t2.json"});
  ASSERT_TRUE(o2.has_value());
  EXPECT_TRUE(o2->metrics);
  EXPECT_EQ(o2->metrics_path, "/tmp/m.json");
  EXPECT_EQ(o2->trace_path, "/tmp/t2.json");

  EXPECT_FALSE(parse({"predict", "--tree", tree_path_, "--metrics="}));
  EXPECT_FALSE(parse({"predict", "--tree", tree_path_, "--trace-out"}));
}

TEST_F(CliTest, MetricsSnapshotGoesToStderr) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {2};
  o.metrics = true;
  EXPECT_EQ(run_cmd(o), 0);
  const std::string e = err_.str();
  EXPECT_NE(e.find("-- metrics --"), std::string::npos);
  EXPECT_NE(e.find("predict.calls"), std::string::npos);
  // Table output is unaffected.
  EXPECT_NE(out_.str().find("projected speedup"), std::string::npos);
}

TEST_F(CliTest, MetricsFileRenderedByExtension) {
  Options o;
  o.command = "sweep";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  o.metrics = true;
  o.metrics_path = testing::TempDir() + "cli_metrics.json";
  EXPECT_EQ(run_cmd(o), 0);
  std::ifstream f(o.metrics_path);
  std::ostringstream text;
  text << f.rdbuf();
  EXPECT_NE(text.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(text.str().find("sweep.grid_points"), std::string::npos);
  std::remove(o.metrics_path.c_str());
}

TEST_F(CliTest, TraceOutWritesChromeJson) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {2};
  o.method = core::Method::FastForward;
  o.trace_path = testing::TempDir() + "cli_trace.json";
  EXPECT_EQ(run_cmd(o), 0);
  std::ifstream f(o.trace_path);
  std::ostringstream text;
  text << f.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("predict t=2"), std::string::npos);  // pipeline span
  EXPECT_NE(json.find("\"vcpu 0\""), std::string::npos);   // emulation track
  EXPECT_NE(err_.str().find("wrote trace"), std::string::npos);
  std::remove(o.trace_path.c_str());
}

TEST_F(CliTest, TimelineTraceOutBridgesGantt) {
  Options o;
  o.command = "timeline";
  o.tree_path = tree_path_;
  o.threads = {4};
  o.trace_path = testing::TempDir() + "cli_timeline_trace.json";
  EXPECT_EQ(run_cmd(o), 0);
  std::ifstream f(o.trace_path);
  std::ostringstream text;
  text << f.rdbuf();
  EXPECT_NE(text.str().find("\"run\""), std::string::npos);
  std::remove(o.trace_path.c_str());
}

TEST_F(CliTest, SweepCsvRoutesStatsToStderr) {
  Options o;
  o.command = "sweep";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  o.csv_path = testing::TempDir() + "cli_sweep.csv";
  EXPECT_EQ(run_cmd(o), 0);
  // Diagnostics on stderr, results (table + wrote line) on stdout.
  EXPECT_NE(err_.str().find("memo hit rate"), std::string::npos);
  EXPECT_NE(err_.str().find("batched block"), std::string::npos);
  EXPECT_EQ(out_.str().find("memo hit rate"), std::string::npos);
  EXPECT_NE(out_.str().find("wrote"), std::string::npos);
  std::remove(o.csv_path.c_str());
}

TEST_F(CliTest, SweepCsvDashStreamsToStdout) {
  Options o;
  o.command = "sweep";
  o.tree_path = tree_path_;
  o.threads = {2};
  o.csv_path = "-";
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  // stdout is pure CSV: header first, no table art, no status lines.
  EXPECT_EQ(s.rfind("method,paradigm,schedule,chunk,threads,speedup", 0), 0u)
      << s;
  EXPECT_EQ(s.find("|"), std::string::npos);
  EXPECT_NE(err_.str().find("memo hit rate"), std::string::npos);
}

// --- robustness: every bad invocation is one clear line, nonzero exit ----

TEST_F(CliTest, UnknownFlagIsOneLineError) {
  EXPECT_FALSE(parse({"predict", "--tree", tree_path_, "--zap"}).has_value());
  const std::string e = err_.str();
  EXPECT_NE(e.find("unknown option '--zap'"), std::string::npos);
  EXPECT_NE(e.find("pprophet help"), std::string::npos);
  // One line: no usage dump.
  EXPECT_EQ(std::count(e.begin(), e.end(), '\n'), 1);
}

TEST_F(CliTest, UnknownCommandIsOneLineError) {
  EXPECT_FALSE(parse({"frobnicate"}).has_value());
  const std::string e = err_.str();
  EXPECT_NE(e.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_EQ(std::count(e.begin(), e.end(), '\n'), 1);
}

TEST_F(CliTest, MissingCommandIsOneLineError) {
  EXPECT_FALSE(parse({}).has_value());
  const std::string e = err_.str();
  EXPECT_NE(e.find("missing command"), std::string::npos);
  EXPECT_EQ(std::count(e.begin(), e.end(), '\n'), 1);
}

TEST_F(CliTest, HelpCommandPrintsUsageAndSucceeds) {
  const auto o = parse({"help"});
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(run_cmd(*o), 0);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
  EXPECT_NE(out_.str().find("pprophet serve"), std::string::npos);
}

TEST_F(CliTest, DirectoryAsTreeIsOneLineError) {
  Options o;
  o.command = "inspect";
  o.tree_path = testing::TempDir();
  EXPECT_EQ(run_cmd(o), 1);
  const std::string e = err_.str();
  EXPECT_NE(e.find("is a directory"), std::string::npos);
  EXPECT_EQ(std::count(e.begin(), e.end(), '\n'), 1);
}

TEST_F(CliTest, ServeRequiresSocket) {
  const auto o = parse({"serve"});
  ASSERT_TRUE(o.has_value());  // --tree is not required for serve
  EXPECT_EQ(run_cmd(*o), 1);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);
}

TEST_F(CliTest, ServeFlagParsing) {
  const auto o = parse({"serve", "--socket", "/tmp/pp.sock",
                        "--serve-workers", "3", "--queue-limit", "9",
                        "--cache-mb", "16"});
  ASSERT_TRUE(o.has_value());
  EXPECT_EQ(o->socket_path, "/tmp/pp.sock");
  EXPECT_EQ(o->serve_workers, 3u);
  EXPECT_EQ(o->queue_limit, 9u);
  EXPECT_EQ(o->cache_mb, 16u);
  EXPECT_FALSE(parse({"serve", "--socket"}).has_value());  // missing value
  EXPECT_FALSE(parse({"serve", "--socket", "s", "--queue-limit", "0"}));
  EXPECT_FALSE(parse({"serve", "--socket", "s", "--cache-mb", "-4"}));
}

TEST_F(CliTest, ClientRequiresSocketOpAndTree) {
  const auto no_socket = parse({"client", "--op", "sweep"});
  ASSERT_TRUE(no_socket.has_value());
  EXPECT_EQ(run_cmd(*no_socket), 1);
  EXPECT_NE(err_.str().find("--socket"), std::string::npos);

  err_.str("");
  const auto bad_op = parse({"client", "--socket", "/tmp/x.sock", "--op",
                             "explode"});
  ASSERT_TRUE(bad_op.has_value());
  EXPECT_EQ(run_cmd(*bad_op), 1);
  EXPECT_NE(err_.str().find("unknown client --op 'explode'"),
            std::string::npos);

  err_.str("");
  const auto no_tree =
      parse({"client", "--socket", "/tmp/x.sock", "--op", "sweep"});
  ASSERT_TRUE(no_tree.has_value());
  EXPECT_EQ(run_cmd(*no_tree), 1);
  EXPECT_NE(err_.str().find("needs --tree FILE or --key HASH"),
            std::string::npos);
}

TEST_F(CliTest, ClientWithDeadSocketFailsCleanly) {
  Options o;
  o.command = "client";
  o.socket_path = testing::TempDir() + "no_such_daemon.sock";
  o.op = "ping";
  EXPECT_EQ(run_cmd(o), 1);
  EXPECT_NE(err_.str().find("cannot connect"), std::string::npos);
}

// End-to-end over a real socket: serve in a background thread, drive it
// with the client command, drain via the server handle.
TEST_F(CliTest, ClientTalksToInProcessServer) {
  serve::ServerConfig cfg;
  cfg.socket_path = testing::TempDir() + "cli_serve.sock";
  cfg.workers = 2;
  cfg.sweep_workers = 1;
  serve::Server server(cfg);
  server.start();

  Options o;
  o.command = "client";
  o.socket_path = cfg.socket_path;
  o.op = "sweep";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  EXPECT_EQ(run_cmd(o), 0);
  const std::string s = out_.str();
  EXPECT_NE(s.find("uploaded"), std::string::npos);
  EXPECT_NE(s.find("speedup"), std::string::npos);
  EXPECT_NE(s.find("sweep served freshly"), std::string::npos);

  // Same request again: the CLI reports the cache hit.
  out_.str("");
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_NE(out_.str().find("sweep served from cache"), std::string::npos);

  o.op = "advise";
  o.target_threads = 4;
  out_.str("");
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_NE(out_.str().find("best:"), std::string::npos);
  EXPECT_NE(out_.str().find("baseline at 4 threads"), std::string::npos);

  o.op = "stats";
  out_.str("");
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_NE(out_.str().find("\"cache\""), std::string::npos);
  server.stop();
}

TEST_F(CliTest, PredictCsvDashStreamsToStdout) {
  Options o;
  o.command = "predict";
  o.tree_path = tree_path_;
  o.threads = {2, 4};
  o.csv_path = "-";
  EXPECT_EQ(run_cmd(o), 0);
  EXPECT_EQ(out_.str().rfind("threads,speedup,parallel_cycles", 0), 0u)
      << out_.str();
  EXPECT_NE(err_.str().find("method"), std::string::npos);
}

}  // namespace
}  // namespace pprophet::cli
