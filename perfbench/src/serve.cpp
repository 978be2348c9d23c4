// Workload `serve`: an in-process serve::Server on a unix socket (2 workers,
// sweep pool width 1) driven by 2 closed-loop client connections, one thread
// each. Set-up uploads the eight suite PPTBs and warms a pool of sweep,
// predict and advise results; the timed loop then runs a seeded mix of
//   ~80% repeats of pool requests (result-cache hits),
//   ~15% fresh 48-point FF+Suitability grids, half with memory_model
//        (cache misses, compute-bound),
//   ~5%  uploads: fresh PPTBs of kernels profiled at seeded sizes beside
//        deduplicated re-uploads of the suite.
// After the loop every response is checked against an in-process
// core::sweep / core::advise of the same request.
#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "core/advise.hpp"
#include "core/sweep.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "workloads/npb.hpp"

namespace perfbench {

using namespace pprophet;
using serve::JsonValue;

namespace {

/// Requests per second of --seconds (fixes the op count).
constexpr double kOpsPerSecond = 2000.0;
constexpr std::size_t kClients = 2;
constexpr std::size_t kServerWorkers = 2;
/// Threads recomputing every response in-process after the timed loop.
constexpr std::size_t kCheckThreads = 4;
/// Shares of the timed mix, in per-mille.
constexpr std::uint64_t kMissPerMille = 150;
constexpr std::uint64_t kFreshUploadPerMille = 5;
constexpr std::uint64_t kReuploadPerMille = 45;

const std::vector<runtime::OmpSchedule> kSchedules = {
    runtime::OmpSchedule::StaticBlock, runtime::OmpSchedule::StaticCyclic,
    runtime::OmpSchedule::Dynamic, runtime::OmpSchedule::Guided};

/// One compute request: a sweep / predict grid or an advise call.
struct Query {
  std::string op;  ///< "sweep", "predict" or "advise"
  std::size_t tree = 0;
  std::vector<core::Method> methods;
  core::Paradigm paradigm = core::Paradigm::OpenMP;
  std::vector<runtime::OmpSchedule> schedules;
  std::vector<CoreCount> threads;
  std::uint64_t chunk = 1;
  bool memory_model = false;
  CoreCount target = 0;  ///< advise only
};

JsonValue request_json(const Query& q, const std::string& key) {
  JsonValue r;
  r.set("op", JsonValue(q.op));
  r.set("key", JsonValue(key));
  JsonValue::Array threads;
  for (const CoreCount t : q.threads) {
    threads.emplace_back(static_cast<std::uint64_t>(t));
  }
  r.set("threads", JsonValue(std::move(threads)));
  r.set("memory_model", JsonValue(q.memory_model));
  if (q.op == "advise") {
    r.set("target_threads", JsonValue(static_cast<std::uint64_t>(q.target)));
    return r;
  }
  JsonValue::Array methods, schedules;
  for (const auto m : q.methods) methods.emplace_back(serve::wire_name(m));
  for (const auto s : q.schedules) schedules.emplace_back(serve::wire_name(s));
  r.set("methods", JsonValue(std::move(methods)));
  r.set("schedules", JsonValue(std::move(schedules)));
  r.set("paradigm", JsonValue(serve::wire_name(q.paradigm)));
  r.set("chunk", JsonValue(q.chunk));
  return r;
}

// Digests of a grid op's cells or of an advise result's promises: the
// response side and the in-process side hash the same fields.
void hash_cell(util::Fnv64& h, std::uint64_t parallel, std::uint64_t serial,
               double speedup) {
  h.u64(parallel);
  h.u64(serial);
  h.f64(speedup);
}

std::uint64_t response_digest(const Query& q, const JsonValue& resp) {
  util::Fnv64 h;
  const JsonValue& result = resp.at("result");
  if (q.op == "advise") {
    h.f64(result.at("baseline").at("speedup").as_double());
    h.f64(result.at("best").at("speedup").as_double());
    for (const JsonValue& a : result.at("actions").as_array()) {
      h.f64(a.at("speedup_after").as_double());
    }
    return h.h;
  }
  for (const JsonValue& c : result.at("cells").as_array()) {
    hash_cell(h, c.at("parallel_cycles").as_u64(), c.at("serial_cycles").as_u64(),
           c.at("speedup").as_double());
  }
  return h.h;
}

/// What the server computes for `q`, done in-process the same way.
std::uint64_t reference_digest(const Query& q, const SuiteKernel& k,
                               const memmodel::BurdenModel& model) {
  util::Fnv64 h;
  const tree::ProgramTree fresh = tree::unpack(tree::from_binary(k.pptb));
  tree::ProgramTree annotated{fresh.root->clone()};
  if (q.memory_model) {
    memmodel::annotate_burdens(annotated, model, q.threads);
  }
  if (q.op == "advise") {
    core::AdviseOptions ao;
    ao.base = report::paper_options(core::Method::Synthesizer);
    ao.grid.thread_counts = q.threads;
    ao.grid.chunks.clear();
    ao.base.memory_model = q.memory_model;
    ao.target_threads = q.target;
    ao.sweep.workers = 1;
    const core::Advice a = core::advise(annotated, ao);
    h.f64(a.baseline.speedup);
    h.f64(a.best.speedup);
    for (const core::Action& act : a.actions) h.f64(act.speedup_after);
    return h.h;
  }
  core::SweepGrid grid;
  grid.methods = q.methods;
  grid.paradigms = {q.paradigm};
  grid.schedules = q.schedules;
  grid.chunks = {q.chunk};
  grid.thread_counts = q.threads;
  grid.memory_models = {q.memory_model};
  grid.base = report::paper_options(q.methods.front());
  core::SweepOptions so;
  so.workers = 1;
  const core::SweepResult res = core::sweep(annotated, grid, so);
  for (const core::SweepCell& c : res.cells) {
    hash_cell(h, c.estimate.parallel_cycles, c.estimate.serial_cycles,
           c.estimate.speedup);
  }
  return h.h;
}

enum class Cls : std::uint8_t { Hit, Miss, Upload };
const char* const kClsName[] = {"serve.hit", "serve.miss", "serve.upload"};

struct PlannedOp {
  Cls cls = Cls::Hit;
  /// Hit: pool query; Miss: fresh grid; Upload: fresh PPTB when `fresh`,
  /// else the suite kernel re-uploaded.
  std::size_t index = 0;
  bool fresh = false;
};

/// The seeded op sequence. It depends only on the seed and the op count.
struct Plan {
  std::vector<PlannedOp> ops;
  std::vector<Query> misses;
  std::size_t fresh_uploads = 0;
};

constexpr std::size_t kSuiteSize = 8;
constexpr std::size_t kPoolPerKernel = 4;

Plan make_plan(std::uint64_t seed, std::size_t ops) {
  const auto& cores = report::paper_core_counts();
  util::Xoshiro256 rng(seed);
  Plan plan;
  std::set<std::tuple<std::size_t, std::vector<CoreCount>, std::uint64_t,
                      bool>>
      seen;
  plan.ops.resize(ops);
  for (PlannedOp& p : plan.ops) {
    const std::uint64_t r = rng.uniform_u64(0, 999);
    if (r < kMissPerMille) {
      // A fresh 48-point grid: a (tree, thread list, chunk, memory_model)
      // never requested before, so it misses the result cache once.
      Query q;
      q.op = "sweep";
      q.methods = {core::Method::FastForward, core::Method::Suitability};
      q.schedules = kSchedules;
      do {
        q.tree = rng.uniform_u64(0, kSuiteSize - 1);
        std::vector<CoreCount> all;
        for (CoreCount t = 2; t <= cores.back(); ++t) all.push_back(t);
        for (std::size_t i = all.size(); i > 1; --i) {
          std::swap(all[i - 1], all[rng.uniform_u64(0, i - 1)]);
        }
        all.resize(cores.size());
        std::sort(all.begin(), all.end());
        q.threads = all;
        q.chunk = rng.uniform_u64(1, 8);
        q.memory_model = rng.uniform_u64(0, 1) == 1;
      } while (!seen.emplace(q.tree, q.threads, q.chunk, q.memory_model).second);
      p.cls = Cls::Miss;
      p.index = plan.misses.size();
      plan.misses.push_back(std::move(q));
    } else if (r < kMissPerMille + kFreshUploadPerMille) {
      p.cls = Cls::Upload;
      p.fresh = true;
      p.index = plan.fresh_uploads++;
    } else if (r < kMissPerMille + kFreshUploadPerMille + kReuploadPerMille) {
      p.cls = Cls::Upload;
      p.index = rng.uniform_u64(0, kSuiteSize - 1);
    } else {
      p.cls = Cls::Hit;
      p.index = rng.uniform_u64(0, kSuiteSize * kPoolPerKernel - 1);
    }
  }
  return plan;
}

std::vector<Query> make_pool(const std::vector<SuiteKernel>& suite) {
  const auto& cores = report::paper_core_counts();
  std::vector<Query> pool;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    Query grid;
    grid.op = "sweep";
    grid.tree = i;
    grid.methods = {core::Method::FastForward, core::Method::Suitability};
    grid.schedules = kSchedules;
    grid.threads = cores;
    pool.push_back(grid);
    grid.memory_model = true;
    pool.push_back(grid);

    Query predict;
    predict.op = "predict";
    predict.tree = i;
    predict.methods = {core::Method::Synthesizer};
    predict.paradigm = suite[i].paradigm;
    predict.schedules = {suite[i].schedule};
    predict.threads = cores;
    pool.push_back(predict);

    Query advise;
    advise.op = "advise";
    advise.tree = i;
    advise.threads = cores;
    advise.target = cores.back();
    pool.push_back(advise);
  }
  return pool;
}

/// Small EP kernels at seeded sizes: each yields a PPTB the store has not
/// seen.
std::vector<std::string> profile_fresh(std::size_t count, std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0x5eedf00dULL);
  std::set<std::uint64_t> used;
  std::vector<std::string> out;
  while (out.size() < count) {
    const std::uint64_t blocks = rng.uniform_u64(8, 4096);
    if (!used.insert(blocks).second) continue;
    workloads::EpParams p;
    p.log2_pairs = 8;
    p.blocks = static_cast<int>(blocks);
    workloads::KernelRun run = workloads::run_ep(p, {});
    tree::compress(run.tree);
    out.push_back(tree::to_binary(tree::pack(run.tree)));
  }
  return out;
}

/// The server side of one set-up: a running server with the suite
/// uploaded and the pool warmed.
struct Setup {
  std::vector<std::string> fresh_pptbs;
  std::vector<Query> pool;
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;
  std::vector<std::string> keys;           ///< suite index -> store key
  std::vector<std::uint64_t> warm_digest;  ///< pool query -> response digest
};

void set_up(Setup& s, const std::vector<SuiteKernel>& suite, const Args& args,
            const Plan& plan, int rep) {
  if (suite.size() != kSuiteSize) {
    throw std::runtime_error("serve: the paper suite no longer has 8 kernels");
  }
  s.fresh_pptbs = profile_fresh(plan.fresh_uploads, args.seed);
  s.pool = make_pool(suite);

  serve::ServerConfig cfg;
  cfg.socket_path = args.out_dir + "/serve-" + std::to_string(getpid()) + "-" +
                    std::to_string(rep) + ".sock";
  cfg.workers = kServerWorkers;
  cfg.sweep_workers = 1;
  s.server = std::make_unique<serve::Server>(cfg);
  s.server->start();
  s.clients.resize(kClients);
  for (serve::Client& c : s.clients) c.connect(cfg.socket_path);
  for (const SuiteKernel& k : suite) {
    s.keys.push_back(s.clients[0].upload(k.pptb));
  }
  for (const Query& q : s.pool) {
    const JsonValue resp = s.clients[0].call(request_json(q, s.keys[q.tree]));
    s.warm_digest.push_back(response_digest(q, resp));
  }
}

void tear_down(Setup& s) {
  for (serve::Client& c : s.clients) c.close();
  if (s.server) s.server->stop();
}

struct OpRecord {
  double ms = 0.0;
  bool ok = false;
  std::uint64_t digest = 0;
  std::string key;
  bool existed = false;
};

JsonValue upload_json(const std::string& bytes) {
  JsonValue r;
  r.set("op", JsonValue("upload"));
  r.set("pptb", JsonValue(serve::base64_encode(bytes)));
  return r;
}

/// Applies `fn` to 0..n-1 on `width` threads.
void parallel_for(std::size_t n, std::size_t width,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < width; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

const JsonValue& histogram(const JsonValue& stats, const char* name) {
  return stats.at("stats").at("metrics").at("histograms").at(name);
}

std::uint64_t counter(const JsonValue& stats, const char* group,
                      const char* name) {
  return stats.at("stats").at(group).at(name).as_u64();
}

}  // namespace

Outcome run_serve(const Args& args, Clock::time_point process_start) {
  Outcome out;
  const auto ops = static_cast<std::size_t>(
      std::max(1.0, kOpsPerSecond * static_cast<double>(args.seconds)));
  SuiteSetup base;
  Plan plan;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t0 = rep == 0 ? process_start : Clock::now();
    base.run();
    if (rep == 0) plan = make_plan(args.seed, ops);
    tear_down(s);
    s = Setup{};
    set_up(s, base.suite, args, plan, rep);
    out.setup_s.push_back(ms_since(t0) / 1e3);
  }
  const std::vector<SuiteKernel>& suite = base.suite;

  const JsonValue before = s.clients[0].call("stats");
  std::vector<OpRecord> rec(ops);
  std::latch start(static_cast<std::ptrdiff_t>(kClients) + 1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& client = s.clients[c];
      start.arrive_and_wait();
      for (std::size_t i = c; i < ops; i += kClients) {
        set_current_op(static_cast<std::int64_t>(i));
        const PlannedOp& p = plan.ops[i];
        const Query* q = p.cls == Cls::Hit    ? &s.pool[p.index]
                         : p.cls == Cls::Miss ? &plan.misses[p.index]
                                              : nullptr;
        OpRecord& r = rec[i];
        const Clock::time_point t0 = Clock::now();
        JsonValue resp;
        try {
          Span span(kClsName[static_cast<int>(p.cls)]);
          if (q != nullptr) {
            resp = client.call(request_json(*q, s.keys[q->tree]));
          } else {
            resp = client.call(upload_json(
                p.fresh ? s.fresh_pptbs[p.index] : suite[p.index].pptb));
          }
        } catch (const std::exception&) {
          // A broken connection fails this op (and, likely, the rest).
        }
        r.ms = ms_since(t0);
        const JsonValue* ok = resp.find("ok");
        r.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
        if (!r.ok) continue;
        if (q != nullptr) {
          r.digest = response_digest(*q, resp);
        } else {
          r.key = resp.at("key").as_string();
          r.existed = resp.at("existed").as_bool();
        }
      }
      set_current_op(-1);
    });
  }
  const Clock::time_point timed0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  out.timed_s = ms_since(timed0) / 1e3;
  const JsonValue after = s.clients[0].call("stats");
  tear_down(s);


  // Check every response against the same request computed in-process.
  std::vector<std::uint64_t> pool_ref(s.pool.size());
  std::vector<std::uint64_t> miss_ref(plan.misses.size());
  const std::size_t n_ref = pool_ref.size() + miss_ref.size();
  parallel_for(n_ref, kCheckThreads, [&](std::size_t i) {
    if (i < pool_ref.size()) {
      const Query& q = s.pool[i];
      pool_ref[i] = reference_digest(q, suite[q.tree], *base.model);
    } else {
      const Query& q = plan.misses[i - pool_ref.size()];
      miss_ref[i - pool_ref.size()] =
          reference_digest(q, suite[q.tree], *base.model);
    }
  });
  std::size_t warm_mismatches = 0;
  for (std::size_t i = 0; i < pool_ref.size(); ++i) {
    if (s.warm_digest[i] != pool_ref[i]) ++warm_mismatches;
  }
  std::vector<std::vector<double>> class_ms(3);
  for (std::size_t i = 0; i < ops; ++i) {
    const PlannedOp& p = plan.ops[i];
    const OpRecord& r = rec[i];
    bool good = r.ok;
    if (good && p.cls == Cls::Hit) good = r.digest == pool_ref[p.index];
    if (good && p.cls == Cls::Miss) good = r.digest == miss_ref[p.index];
    if (good && p.cls == Cls::Upload) {
      good = p.fresh ? !r.existed && r.key == util::fnv64_two_lane_hex(
                                                   s.fresh_pptbs[p.index])
                     : r.existed && r.key == s.keys[p.index];
    }
    ++out.attempted;
    if (!good) ++out.failed;
    out.op_ms.push_back(r.ms);
    class_ms[static_cast<int>(p.cls)].push_back(r.ms);
  }
  if (warm_mismatches > 0) out.failed = out.attempted;

  out.pred_err_pct = suite_pred_err_pct(base.reference, *base.model);

  const std::uint64_t hits = counter(after, "cache", "hits") -
                             counter(before, "cache", "hits");
  const std::uint64_t missed = counter(after, "cache", "misses") -
                               counter(before, "cache", "misses");
  const std::uint64_t trees = counter(after, "store", "trees");
  out.counts = {{"serve.requests", ops},
                {"serve.cache.hits", hits},
                {"serve.cache.misses", missed},
                {"serve.cache.evictions", counter(after, "cache", "evictions")},
                {"serve.uploads.fresh", plan.fresh_uploads},
                {"serve.store.trees", trees}};
  std::ostringstream note;
  note << "server workers " << kServerWorkers << ", sweep pool width 1, "
       << kClients << " closed-loop clients; mix hit/miss/upload = "
       << class_ms[0].size() << "/" << class_ms[1].size() << "/"
       << class_ms[2].size() << "; pool of " << s.pool.size()
       << " warmed requests; warm-up responses differing from in-process: "
       << warm_mismatches;
  out.notes.push_back(note.str());

  const auto stage = [&](const char* name) {
    return static_cast<double>(histogram(after, name).at("p50").as_u64());
  };
  const auto share = [&](const char* name) {
    const auto total = [&](const JsonValue& st, const char* h) {
      return static_cast<double>(histogram(st, h).at("total").as_u64());
    };
    const double all = total(after, "serve.total_us") -
                       total(before, "serve.total_us");
    return all > 0 ? (total(after, name) - total(before, name)) / all : 0.0;
  };
  out.layers = {
      {"serve.hit_ms", median(class_ms[0]), "ms"},
      {"serve.miss_ms", median(class_ms[1]), "ms"},
      {"serve.upload_ms", median(class_ms[2]), "ms"},
      {"serve.read_us", stage("serve.read_us"), "us"},
      {"serve.queue_wait_us", stage("serve.queue_wait_us"), "us"},
      {"serve.compute_us", stage("serve.compute_us"), "us"},
      {"serve.write_us", stage("serve.write_us"), "us"},
      {"serve.other_us", stage("serve.other_us"), "us"},
      {"serve.read_share", share("serve.read_us"), "ratio"},
      {"serve.queue_wait_share", share("serve.queue_wait_us"), "ratio"},
      {"serve.compute_share", share("serve.compute_us"), "ratio"},
      {"serve.write_share", share("serve.write_us"), "ratio"},
      {"serve.other_share", share("serve.other_us"), "ratio"},
      {"serve.cache.hit_ratio", hit_ratio(hits, hits + missed), "ratio"},
      {"serve.store.trees", static_cast<double>(trees), "count"},
  };
  return out;
}

}  // namespace perfbench
