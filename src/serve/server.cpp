#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

#include "core/advise.hpp"
#include "core/machine_sweep.hpp"
#include "machine/presets.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "obs/trace.hpp"
#include "report/experiment.hpp"
#include "serve/protocol.hpp"

namespace pprophet::serve {
namespace {

/// Handler-level validation failure; mapped to a `bad_request` response.
struct BadRequest : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void close_quiet(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Resolves the request's protocol version ("v" field; absent means 1).
/// Returns false when the field is present but not an integer in
/// [1, kProtocolVersion]; `version` still carries the requested number when
/// it was at least numeric, so the refusal can echo it.
bool parse_version(const JsonValue& request, std::uint64_t& version) {
  version = 1;
  const JsonValue* v = request.find("v");
  if (v == nullptr) return true;
  std::uint64_t n = 0;
  try {
    n = v->as_u64();
  } catch (const JsonError&) {
    return false;
  }
  version = n;
  return n >= 1 && n <= kProtocolVersion;
}

JsonValue unsupported_version_response(const std::string& op,
                                       std::uint64_t version) {
  JsonValue r = error_response(
      op, kErrUnsupportedVersion,
      "protocol version " + std::to_string(version) +
          " not supported (this server speaks up to " +
          std::to_string(kProtocolVersion) + ")");
  if (version >= 2) r.set("v", JsonValue(version));
  return r;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf, 16);
}

/// Parses a wire-name list field: accepts "methods":["ff","syn"] or the
/// singular "method":"ff"; falls back to `fallback` when neither is given.
template <typename T, typename ParseOne>
std::vector<T> parse_name_list(const JsonValue& req, const char* plural,
                               const char* singular, ParseOne one,
                               std::vector<T> fallback) {
  const auto parse_token = [&](const JsonValue& v) {
    if (!v.is_string()) throw BadRequest(std::string(singular) + ": expected string");
    T item;
    if (!one(v.as_string(), item)) {
      throw BadRequest(std::string(singular) + ": unknown name '" +
                       v.as_string() + "'");
    }
    return item;
  };
  if (const JsonValue* list = req.find(plural)) {
    if (!list->is_array()) return {parse_token(*list)};
    std::vector<T> out;
    for (const JsonValue& v : list->as_array()) out.push_back(parse_token(v));
    if (out.empty()) throw BadRequest(std::string(plural) + ": empty list");
    return out;
  }
  if (const JsonValue* v = req.find(singular)) return {parse_token(*v)};
  return fallback;
}

std::vector<std::uint64_t> parse_u64_list(const JsonValue& req,
                                          const char* plural,
                                          const char* singular,
                                          std::vector<std::uint64_t> fallback) {
  const auto parse_token = [&](const JsonValue& v) {
    const std::uint64_t n = v.as_u64();
    if (n == 0) throw BadRequest(std::string(singular) + ": must be positive");
    return n;
  };
  if (const JsonValue* list = req.find(plural)) {
    if (!list->is_array()) return {parse_token(*list)};
    std::vector<std::uint64_t> out;
    for (const JsonValue& v : list->as_array()) out.push_back(parse_token(v));
    if (out.empty()) throw BadRequest(std::string(plural) + ": empty list");
    return out;
  }
  if (const JsonValue* v = req.find(singular)) return {parse_token(*v)};
  return fallback;
}

/// Everything a predict/sweep request pins down, in canonical form.
struct GridSpec {
  core::SweepGrid grid;
  CoreCount cores = 0;
  bool memory_model = false;
  /// Optional machine-preset axis (v2 "machines" field): price the stored
  /// tree on each named preset via the reuse-distance model
  /// (core/machine_sweep.hpp). Empty = classic single-machine request.
  std::vector<std::string> machines;
};

GridSpec parse_grid(const JsonValue& req, CoreCount default_cores) {
  GridSpec spec;
  spec.grid.methods = parse_name_list<core::Method>(
      req, "methods", "method",
      [](const std::string& s, core::Method& m) { return parse_method(s, m); },
      {core::Method::Synthesizer});
  spec.grid.paradigms = parse_name_list<core::Paradigm>(
      req, "paradigms", "paradigm",
      [](const std::string& s, core::Paradigm& p) { return parse_paradigm(s, p); },
      {core::Paradigm::OpenMP});
  spec.grid.schedules = parse_name_list<runtime::OmpSchedule>(
      req, "schedules", "schedule",
      [](const std::string& s, runtime::OmpSchedule& o) {
        return parse_schedule(s, o);
      },
      {runtime::OmpSchedule::StaticCyclic});
  spec.grid.chunks = parse_u64_list(req, "chunks", "chunk", {1});
  const std::vector<std::uint64_t> threads =
      parse_u64_list(req, "threads", "threads", {2, 4, 8});
  spec.grid.thread_counts.clear();
  for (const std::uint64_t t : threads) {
    spec.grid.thread_counts.push_back(static_cast<CoreCount>(t));
  }
  spec.cores = default_cores;
  if (const JsonValue* v = req.find("cores")) {
    const std::uint64_t n = v->as_u64();
    if (n == 0) throw BadRequest("cores: must be positive");
    spec.cores = static_cast<CoreCount>(n);
  }
  if (const JsonValue* v = req.find("memory_model")) {
    spec.memory_model = v->as_bool();
  }
  spec.grid.memory_models = {spec.memory_model};
  if (const JsonValue* v = req.find("machines")) {
    const auto add_name = [&](const JsonValue& entry) {
      if (!entry.is_string()) throw BadRequest("machines: expected string");
      const std::string& name = entry.as_string();
      if (machine::find_machine_preset(name) == nullptr) {
        // Same one-line diagnostic the CLI prints for --machines.
        throw BadRequest("machines: " +
                         machine::unknown_machine_message(name));
      }
      spec.machines.push_back(name);
    };
    if (v->is_array()) {
      for (const JsonValue& entry : v->as_array()) add_name(entry);
      if (spec.machines.empty()) throw BadRequest("machines: empty list");
    } else {
      add_name(*v);
    }
  }
  return spec;
}

/// Canonical request fingerprint for the result cache: every dimension the
/// computation reads, rendered through json_dump's sorted-key form. Two
/// requests differing only in field order or defaulted fields collide here,
/// which is exactly what makes the cache effective.
JsonValue canonical_grid_json(const GridSpec& spec) {
  JsonValue c;
  JsonValue::Array methods, paradigms, schedules, chunks, threads;
  for (const auto m : spec.grid.methods) methods.emplace_back(wire_name(m));
  for (const auto p : spec.grid.paradigms) paradigms.emplace_back(wire_name(p));
  for (const auto s : spec.grid.schedules) schedules.emplace_back(wire_name(s));
  for (const auto ch : spec.grid.chunks) chunks.emplace_back(ch);
  for (const auto t : spec.grid.thread_counts) {
    threads.emplace_back(static_cast<std::uint64_t>(t));
  }
  c.set("methods", JsonValue(std::move(methods)));
  c.set("paradigms", JsonValue(std::move(paradigms)));
  c.set("schedules", JsonValue(std::move(schedules)));
  c.set("chunks", JsonValue(std::move(chunks)));
  c.set("threads", JsonValue(std::move(threads)));
  c.set("cores", JsonValue(static_cast<std::uint64_t>(spec.cores)));
  c.set("memory_model", JsonValue(spec.memory_model));
  // Only when requested, so every pre-existing request keeps its exact
  // canonical form (and therefore its cache key).
  if (!spec.machines.empty()) {
    JsonValue::Array machines;
    for (const std::string& m : spec.machines) machines.emplace_back(m);
    c.set("machines", JsonValue(std::move(machines)));
  }
  return c;
}

JsonValue cell_json(const core::SweepCell& cell,
                    const std::string& machine = std::string()) {
  JsonValue c;
  if (!machine.empty()) c.set("machine", JsonValue(machine));
  c.set("method", JsonValue(wire_name(cell.point.method)));
  c.set("paradigm", JsonValue(wire_name(cell.point.paradigm)));
  c.set("schedule", JsonValue(wire_name(cell.point.schedule)));
  c.set("chunk", JsonValue(cell.point.chunk));
  c.set("threads", JsonValue(static_cast<std::uint64_t>(cell.point.threads)));
  c.set("memory_model", JsonValue(cell.point.memory_model));
  c.set("speedup", JsonValue(cell.estimate.speedup));
  c.set("parallel_cycles", JsonValue(cell.estimate.parallel_cycles));
  c.set("serial_cycles", JsonValue(cell.estimate.serial_cycles));
  return c;
}

JsonValue candidate_json(const core::Candidate& c) {
  JsonValue v;
  v.set("paradigm", JsonValue(wire_name(c.paradigm)));
  v.set("schedule", JsonValue(wire_name(c.schedule)));
  // Emitted only off the default so chunk-less responses stay
  // byte-identical (the interop pins in tests/serve).
  if (c.chunk != 1) v.set("chunk", JsonValue(c.chunk));
  v.set("threads", JsonValue(static_cast<std::uint64_t>(c.threads)));
  v.set("speedup", JsonValue(c.speedup));
  v.set("efficiency", JsonValue(c.efficiency));
  return v;
}

JsonValue timer_json(const obs::TimerStat& t) {
  JsonValue v;
  v.set("count", JsonValue(t.count));
  v.set("total", JsonValue(t.total));
  v.set("min", JsonValue(t.count == 0 ? std::uint64_t{0} : t.min));
  v.set("max", JsonValue(t.max));
  v.set("mean", JsonValue(t.mean()));
  return v;
}

JsonValue histogram_json(const obs::HistogramSnapshot& h) {
  JsonValue v;
  v.set("count", JsonValue(h.count));
  v.set("total", JsonValue(h.total));
  v.set("min", JsonValue(h.min));
  v.set("max", JsonValue(h.max));
  v.set("mean", JsonValue(h.mean()));
  v.set("p50", JsonValue(h.quantile(0.50)));
  v.set("p90", JsonValue(h.quantile(0.90)));
  v.set("p99", JsonValue(h.quantile(0.99)));
  return v;
}

/// The per-server registry rendered as the "metrics" object of a stats
/// response: {"counters":{...},"gauges":{...},"timers":{...},
/// "histograms":{name:{count,...,p50,p90,p99}}}.
JsonValue metrics_json(const obs::MetricsSnapshot& snap) {
  JsonValue m;
  JsonValue counters;
  for (const auto& [name, v] : snap.counters) counters.set(name, JsonValue(v));
  m.set("counters", std::move(counters));
  JsonValue gauges;
  for (const auto& [name, v] : snap.gauges) gauges.set(name, JsonValue(v));
  m.set("gauges", std::move(gauges));
  JsonValue timers;
  for (const auto& [name, t] : snap.timers) timers.set(name, timer_json(t));
  m.set("timers", std::move(timers));
  JsonValue histograms;
  for (const auto& [name, h] : snap.histograms) {
    histograms.set(name, histogram_json(h));
  }
  m.set("histograms", std::move(histograms));
  return m;
}

/// Buckets an op string into the stable per-kind histogram suffix. Bounded
/// vocabulary on purpose: a hostile op name must not mint unbounded metric
/// names in the registry.
const char* op_kind(const std::string& op) {
  if (op == "upload" || op == "predict" || op == "sweep" || op == "advise" ||
      op == "ping" || op == "stats" || op == "sleep") {
    return op.c_str();
  }
  return "other";
}

/// Load-shedding classification: ops that can hold a worker for a long
/// stretch (grid sweeps, advisor searches, the debug sleep — and any
/// grid op that asks for the memory-model or machine-preset paths, which
/// re-expand and annotate the tree) shed at the queue's high watermark;
/// cheap ops keep being admitted until the queue is actually full.
bool is_expensive_op(const std::string& op, const JsonValue& request) {
  if (op == "sweep" || op == "advise" || op == "sleep") {
    return true;
  }
  if (request.find("machines") != nullptr) return true;
  if (const JsonValue* v = request.find("memory_model")) {
    return v->is_bool() && v->as_bool();
  }
  return false;
}

// One armed server for signal-driven shutdown (see arm_signal_shutdown).
std::atomic<int> g_signal_shutdown_fd{-1};
std::vector<int> g_armed_signals;

void signal_shutdown_handler(int) {
  const int fd = g_signal_shutdown_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t r = ::write(fd, &byte, 1);
  }
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      store_(config_.store_shards),
      h_read_(metrics_.histogram("serve.read_us")),
      h_queue_wait_(metrics_.histogram("serve.queue_wait_us")),
      h_compute_(metrics_.histogram("serve.compute_us")),
      h_write_(metrics_.histogram("serve.write_us")),
      h_other_(metrics_.histogram("serve.other_us")),
      h_total_(metrics_.histogram("serve.total_us")),
      g_queue_depth_(metrics_.gauge("serve.queue.depth")),
      g_inflight_(metrics_.gauge("serve.inflight")) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.queue_limit == 0) config_.queue_limit = 1;
  cache_ = std::make_unique<ResultCache>(config_.cache_bytes,
                                         config_.cache_shards);
}

Server::~Server() {
  if (started_.load() && !stopped_.load()) stop();
  close_quiet(shutdown_pipe_[0]);
  close_quiet(shutdown_pipe_[1]);
}

void Server::start() {
  if (started_.exchange(true)) throw std::runtime_error("serve: already started");
  if (config_.socket_path.empty() && config_.listen_tcp.empty()) {
    throw std::runtime_error("serve: empty socket path");
  }

  std::vector<Listener> listeners;
  if (!config_.socket_path.empty()) {
    listeners.push_back(Listener::unix_socket(config_.socket_path));
  }
  if (!config_.listen_tcp.empty()) {
    listeners.push_back(Listener::tcp(config_.listen_tcp));
    tcp_port_ = listeners.back().port();
  }
  endpoints_.clear();
  for (const Listener& l : listeners) endpoints_.push_back(l.describe());

  if (::pipe(shutdown_pipe_) != 0) {
    throw std::runtime_error(std::string("serve: pipe: ") + std::strerror(errno));
  }

  ReactorConfig rc;
  rc.io_timeout_ms = config_.io_timeout_ms;
  rc.shutdown_fd = shutdown_pipe_[0];
  Reactor::Hooks hooks;
  hooks.on_frame = [this](InboundFrame frame) { on_frame(std::move(frame)); };
  hooks.on_done = [this](const RequestTrace& trace) { finish_trace(trace); };
  hooks.on_open = [this](std::uint64_t) {
    connections_total_.add(1);
    metrics_.counter("serve.connections").add(1);
  };
  hooks.on_event = [this](TransportEvent event, std::uint64_t conn) {
    on_transport_event(event, conn);
  };
  reactor_ = std::make_unique<Reactor>(std::move(listeners), rc,
                                       std::move(hooks));

  workers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  reactor_->start();
}

void Server::request_shutdown() {
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  if (reactor_ != nullptr) reactor_->begin_drain();
}

void Server::wait() {
  if (!started_.load() || stopped_.load()) return;
  // The reactor exits once the drain finishes: it keeps dispatching queued
  // jobs' responses while the workers run them down, so join order is
  // reactor first (it needs live workers), workers second.
  if (reactor_ != nullptr) reactor_->join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& th : workers_) {
    if (th.joinable()) th.join();
  }
  stopped_.store(true);
}

void Server::stop() {
  request_shutdown();
  wait();
}

void Server::on_transport_event(TransportEvent event, std::uint64_t conn) {
  switch (event) {
    case TransportEvent::AcceptError:
      accept_errors_.add(1);
      metrics_.counter("serve.accept_errors").add(1);
      break;
    case TransportEvent::IoTimeout: {
      io_timeouts_.add(1);
      metrics_.counter("serve.io_timeouts").add(1);
      obs::EventLog* log = config_.event_log != nullptr
                               ? config_.event_log
                               : obs::EventLog::current();
      if (log != nullptr) {
        // Warn records bypass sampling, like slow requests: a wedged peer
        // mid-frame is exactly the thing an operator greps the log for.
        obs::LogRecord rec("io_timeout");
        rec.u64("conn", conn).u64("timeout_ms", config_.io_timeout_ms);
        log->write(obs::Severity::Warn, rec,
                   config_.io_timeout_ms * 1000);
      }
      break;
    }
    case TransportEvent::ProtocolError:
      metrics_.counter("serve.protocol_errors").add(1);
      break;
  }
}

Server::Admission Server::submit(std::unique_ptr<Job>& job, bool expensive) {
  const std::size_t high_watermark =
      std::max<std::size_t>(1, config_.queue_limit / 2);
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_closed_) return Admission::Closed;
    if (queue_.size() >= config_.queue_limit) return Admission::ShedFull;
    if (expensive && queue_.size() >= high_watermark) {
      return Admission::ShedExpensive;
    }
    queue_.push_back(std::move(job));
    depth = queue_.size();
  }
  g_queue_depth_.set(static_cast<double>(depth));
  queue_cv_.notify_one();
  return Admission::Accepted;
}

void Server::worker_loop() {
  for (;;) {
    std::unique_ptr<Job> job;
    std::size_t depth = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    g_queue_depth_.set(static_cast<double>(depth));
    execute(*job);
  }
}

void Server::execute(Job& job) {
  if (job.trace != nullptr) {
    job.trace->dequeued = RequestTrace::Clock::now();
  }
  g_inflight_.set(static_cast<double>(
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
  JsonValue response;
  // Whole ms queued: enqueued + a huge budget would overflow the clock.
  if (job.deadline_ms > 0 &&
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - job.enqueued)
              .count()) >= job.deadline_ms) {
    response = error_response(job.op, kErrDeadline,
                              "deadline of " + std::to_string(job.deadline_ms) +
                                  " ms expired in queue");
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    if (job.trace != nullptr) job.trace->compute_start = t0;
    try {
      response = handle(job.request, job.op, job.trace.get());
    } catch (const BadRequest& e) {
      response = error_response(job.op, kErrBadRequest, e.what());
    } catch (const JsonError& e) {
      response = error_response(job.op, kErrBadRequest, e.what());
    } catch (const std::exception& e) {
      response = error_response(job.op, kErrInternal, e.what());
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (job.trace != nullptr) job.trace->compute_end = t1;
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
    request_us_.record(static_cast<std::uint64_t>(us));
  }
  g_inflight_.set(static_cast<double>(
      inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
  // v1 clients (no "v" in the request) get byte-identical v1 responses;
  // v2+ clients get their version echoed back.
  if (job.version >= 2) response.set("v", JsonValue(job.version));
  note_outcome(response, job.trace.get());
  // The trace crosses back to the reactor thread, which stamps the write
  // marks at flush time and then calls finish_trace.
  reactor_->respond(job.conn, job.seq, json_dump(response),
                    std::move(job.trace));
}

void Server::on_frame(InboundFrame frame) {
  requests_total_.add(1);
  metrics_.counter("serve.requests").add(1);
  RequestTrace* trace = frame.trace.get();

  JsonValue response;
  std::string op = "?";
  std::uint64_t version = 1;
  try {
    JsonValue request = json_parse(frame.payload);
    const JsonValue* op_field = request.find("op");
    if (op_field == nullptr || !op_field->is_string()) {
      throw JsonError("missing string field 'op'");
    }
    op = op_field->as_string();
    trace->op = op;
    if (!parse_version(request, version)) {
      response = unsupported_version_response(op, version);
    } else if (op == "ping") {
      trace->compute_start = RequestTrace::Clock::now();
      response = ok_response(op);
      trace->compute_end = RequestTrace::Clock::now();
    } else if (op == "stats") {
      // Answered inline on the reactor thread: a stats poll must see the
      // live state without queueing behind (or competing with) the compute
      // ops it is trying to diagnose — and it keeps answering during the
      // drain, which is when the numbers matter most.
      trace->compute_start = RequestTrace::Clock::now();
      response = handle_stats();
      trace->compute_end = RequestTrace::Clock::now();
    } else {
      auto job = std::make_unique<Job>();
      job->op = op;
      job->conn = frame.conn;
      job->seq = frame.seq;
      job->version = version;
      job->enqueued = std::chrono::steady_clock::now();
      if (const JsonValue* d = request.find("deadline_ms")) {
        job->deadline_ms = d->as_u64();
      }
      const bool expensive = is_expensive_op(op, request);
      job->request = std::move(request);
      job->trace = std::move(frame.trace);
      trace->enqueued = job->enqueued;
      switch (submit(job, expensive)) {
        case Admission::Accepted:
          trace->queued = true;
          return;  // a worker responds via the reactor when done
        case Admission::ShedExpensive:
          response = error_response(
              op, kErrOverloaded,
              "admission queue at high watermark; expensive op shed");
          response.set("tier", JsonValue(std::string("expensive")));
          metrics_.counter("serve.shed.expensive").add(1);
          break;
        case Admission::ShedFull:
          response = error_response(
              op, kErrOverloaded,
              "admission queue full (" + std::to_string(config_.queue_limit) +
                  " requests)");
          response.set("tier", JsonValue(std::string("full")));
          metrics_.counter("serve.shed.full").add(1);
          break;
        case Admission::Closed:
          response = error_response(op, kErrShuttingDown,
                                    "server is draining for shutdown");
          break;
      }
      // Shed/closed: the job kept its trace; hand it back for the inline
      // rejection below.
      frame.trace = std::move(job->trace);
      trace = frame.trace.get();
    }
  } catch (const JsonError& e) {
    response = error_response(op, kErrBadRequest, e.what());
  }
  if (version >= 2) response.set("v", JsonValue(version));
  note_outcome(response, trace);
  reactor_->respond(frame.conn, frame.seq, json_dump(response),
                    std::move(frame.trace));
}

void Server::note_outcome(const JsonValue& response, RequestTrace* trace) {
  const JsonValue* ok = response.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    ok_.add(1);
    if (trace != nullptr) trace->outcome = "ok";
    return;
  }
  const JsonValue* code = response.find("error");
  const std::string c = code != nullptr && code->is_string() ? code->as_string()
                                                            : kErrInternal;
  // too_large is a rejected client input too.
  if (c == kErrBadRequest || c == kErrTooLarge) bad_request_.add(1);
  else if (c == kErrNotFound) not_found_.add(1);
  else if (c == kErrOverloaded) overloaded_.add(1);
  else if (c == kErrDeadline) deadline_exceeded_.add(1);
  else if (c == kErrShuttingDown) shutting_down_.add(1);
  else internal_error_.add(1);
  if (trace != nullptr) trace->outcome = c;
}

void Server::finish_trace(const RequestTrace& trace) {
  const std::uint64_t read = trace.read_us();
  const std::uint64_t queue_wait = trace.queue_wait_us();
  const std::uint64_t compute = trace.compute_us();
  const std::uint64_t write = trace.write_us();
  const std::uint64_t other = trace.other_us();
  const std::uint64_t total = trace.total_us();

  // Every request feeds read/write/other/total; queue_wait and compute only
  // when that stage actually ran (a rejected request never waited, an
  // inline ping never computed) so those quantiles aren't diluted by
  // structural zeros. The totals still reconcile exactly: skipped stages
  // contribute zero microseconds either way.
  h_read_.record(read);
  if (trace.queued) h_queue_wait_.record(queue_wait);
  if (trace.compute_start.time_since_epoch().count() != 0) {
    h_compute_.record(compute);
    if (trace.cache == 1) {
      metrics_.histogram("serve.compute_us.hit").record(compute);
    } else if (trace.cache == 0) {
      metrics_.histogram("serve.compute_us.miss").record(compute);
    }
  }
  h_write_.record(write);
  h_other_.record(other);
  h_total_.record(total);
  metrics_.histogram(std::string("serve.total_us.") + op_kind(trace.op))
      .record(total);

  if (obs::TraceSink* sink = obs::TraceSink::current()) {
    // Map steady_clock marks onto the sink's wall-microsecond axis by
    // anchoring "now" on both clocks and walking backwards.
    const RequestTrace::TimePoint now = RequestTrace::Clock::now();
    const std::uint64_t sink_now = sink->now_us();
    const auto ts_of = [&](RequestTrace::TimePoint tp) {
      const std::uint64_t back = RequestTrace::us_between(tp, now);
      return sink_now > back ? sink_now - back : 0;
    };
    const auto tid = static_cast<std::uint32_t>(trace.conn_id);
    std::vector<obs::TraceArg> args;
    args.push_back(obs::arg_str("op", trace.op));
    args.push_back(obs::arg_str("outcome", trace.outcome));
    args.push_back(obs::arg_num("bytes_in", trace.bytes_in));
    args.push_back(obs::arg_num("bytes_out", trace.bytes_out));
    if (trace.cache >= 0) {
      args.push_back(obs::arg_str("cache", trace.cache == 1 ? "hit" : "miss"));
    }
    sink->complete(std::string("serve.") + op_kind(trace.op), "serve",
                   obs::kPidPipeline, tid, ts_of(trace.read_start), total,
                   std::move(args));
    const auto stage = [&](const char* name, RequestTrace::TimePoint t0,
                           std::uint64_t dur) {
      if (dur != 0) {
        sink->complete(name, "serve.stage", obs::kPidPipeline, tid, ts_of(t0),
                       dur);
      }
    };
    stage("read", trace.read_start, read);
    stage("queue", trace.enqueued, queue_wait);
    stage("compute", trace.compute_start, compute);
    stage("write", trace.write_start, write);
  }

  obs::EventLog* log = config_.event_log != nullptr ? config_.event_log
                                                    : obs::EventLog::current();
  if (log != nullptr) {
    obs::LogRecord rec("request");
    rec.str("op", trace.op)
        .u64("conn", trace.conn_id)
        .str("outcome", trace.outcome.empty() ? "?" : trace.outcome)
        .u64("bytes_in", trace.bytes_in)
        .u64("bytes_out", trace.bytes_out)
        .u64("read_us", read)
        .u64("queue_wait_us", queue_wait)
        .u64("compute_us", compute)
        .u64("write_us", write)
        .u64("other_us", other);
    if (trace.cache >= 0) rec.boolean("cache_hit", trace.cache == 1);
    obs::Severity sev = obs::Severity::Info;
    if (trace.outcome == kErrInternal) {
      sev = obs::Severity::Error;
    } else if (!trace.outcome.empty() && trace.outcome != "ok" &&
               trace.outcome != kErrBadRequest &&
               trace.outcome != kErrNotFound) {
      sev = obs::Severity::Warn;  // load/lifecycle rejections, not user error
    }
    log->write(sev, rec, total);
  }
}

JsonValue Server::handle(const JsonValue& request, const std::string& op,
                         RequestTrace* trace) {
  if (op == "upload") return handle_upload(request);
  if (op == "predict" || op == "sweep") return handle_grid_op(request, op, trace);
  if (op == "advise") return handle_advise(request, trace);
  if (op == "sleep" && config_.debug_ops) return handle_sleep(request);
  throw BadRequest("unknown op '" + op + "'");
}

JsonValue Server::handle_upload(const JsonValue& request) {
  const JsonValue* data = request.find("pptb");
  if (data == nullptr || !data->is_string()) {
    throw BadRequest("upload: missing string field 'pptb'");
  }
  std::string bytes;
  try {
    bytes = base64_decode(data->as_string());
  } catch (const ProtocolError& e) {
    throw BadRequest(std::string("upload: ") + e.what());
  }
  ProfileStore::PutResult put;
  try {
    put = store_.put(bytes);
  } catch (const UploadTooLarge& e) {
    return error_response("upload", kErrTooLarge,
                          std::string("upload: ") + e.what());
  } catch (const std::exception& e) {
    throw BadRequest(std::string("upload: ") + e.what());
  }
  metrics_.counter("serve.uploads").add(1);
  metrics_.gauge("serve.store.trees").set(static_cast<double>(store_.size()));
  JsonValue r = ok_response("upload");
  r.set("key", JsonValue(put.entry->key));
  r.set("existed", JsonValue(put.existed));
  r.set("nodes", JsonValue(static_cast<std::uint64_t>(put.entry->nodes)));
  r.set("serial_cycles", JsonValue(put.entry->serial_cycles));
  return r;
}

JsonValue Server::handle_grid_op(const JsonValue& request,
                                 const std::string& op, RequestTrace* trace) {
  const JsonValue* key = request.find("key");
  if (key == nullptr || !key->is_string()) {
    throw BadRequest(op + ": missing string field 'key'");
  }
  const auto entry = store_.find(key->as_string());
  if (entry == nullptr) {
    return error_response(op, kErrNotFound,
                          "no stored tree under key " + key->as_string());
  }
  GridSpec spec = parse_grid(request, config_.default_cores);
  // predict is the single-configuration thread curve: collapse every list
  // dimension to its first element so the canonical key cannot alias a
  // multi-method sweep.
  if (op == "predict") {
    spec.grid.methods.resize(1);
    spec.grid.paradigms.resize(1);
    spec.grid.schedules.resize(1);
    spec.grid.chunks.resize(1);
  }
  // Keyed by the compiled tree's semantic digest rather than the upload
  // bytes: two uploads that differ only in node names (or packing) share
  // one cache entry. The spec JSON carries everything the burden-annotation
  // path depends on (cores, threads, memory_model), so the un-annotated
  // digest is a sound prefix for both branches below.
  const std::string cache_key = digest_hex(entry->compiled->tree_digest()) +
                                "|" + op + "|" +
                                json_dump(canonical_grid_json(spec));

  JsonValue r = ok_response(op);
  if (auto hit = cache_->get(cache_key)) {
    metrics_.counter("serve.cache.hits").add(1);
    if (trace != nullptr) trace->cache = 1;
    r.set("cached", JsonValue(true));
    // The stored bytes are the miss path's json_dump(result): splice them
    // in as-is, byte-identical to the miss response by construction.
    r.set("result", JsonValue::raw(std::move(*hit)));
    return r;
  }
  metrics_.counter("serve.cache.misses").add(1);
  if (trace != nullptr) trace->cache = 0;

  spec.grid.base = report::paper_options(spec.grid.methods.front());
  spec.grid.base.machine.cores = spec.cores;
  core::SweepOptions sopts;
  sopts.workers = config_.sweep_workers;

  JsonValue::Array cells;
  core::SweepStats agg;
  if (!spec.machines.empty()) {
    // Machine axis: one stored profile priced on every named preset
    // (core/machine_sweep.hpp). The engine clones per preset, so one
    // private expansion of the stored tree suffices.
    std::vector<machine::MachinePreset> presets;
    presets.reserve(spec.machines.size());
    for (const std::string& name : spec.machines) {
      presets.push_back(*machine::find_machine_preset(name));  // pre-validated
    }
    const tree::ProgramTree fresh = tree::unpack(entry->packed);
    core::MachineSweepResult mres =
        core::sweep_machines(fresh, presets, spec.grid, sopts);
    for (const core::MachineSweepEntry& e : mres.machines) {
      for (const core::SweepCell& cell : e.result.cells) {
        cells.push_back(cell_json(cell, e.machine));
      }
      agg.grid_points += e.result.stats.grid_points;
      agg.section_lookups += e.result.stats.section_lookups;
      agg.cache_hits += e.result.stats.cache_hits;
      agg.section_evals += e.result.stats.section_evals;
    }
  } else {
    core::SweepResult res;
    if (spec.memory_model) {
      // Burden annotation mutates the tree, so run it on a private
      // expansion; the shared read-only tree stays untouched for concurrent
      // requests.
      tree::ProgramTree fresh = tree::unpack(entry->packed);
      memmodel::CalibrationOptions copts;
      copts.machine = spec.grid.base.machine;
      const memmodel::BurdenModel model(memmodel::calibrate(copts));
      memmodel::annotate_burdens(fresh, model, spec.grid.thread_counts);
      res = core::sweep(fresh, spec.grid, sopts);
    } else {
      res = core::sweep(*entry->compiled, spec.grid, sopts);
    }
    cells.reserve(res.cells.size());
    for (const core::SweepCell& cell : res.cells) {
      cells.push_back(cell_json(cell));
    }
    agg = res.stats;
  }

  JsonValue result;
  result.set("cells", JsonValue(std::move(cells)));
  JsonValue stats;
  stats.set("grid_points", JsonValue(static_cast<std::uint64_t>(agg.grid_points)));
  stats.set("section_lookups",
            JsonValue(static_cast<std::uint64_t>(agg.section_lookups)));
  stats.set("memo_hits", JsonValue(static_cast<std::uint64_t>(agg.cache_hits)));
  stats.set("section_evals",
            JsonValue(static_cast<std::uint64_t>(agg.section_evals)));
  result.set("stats", std::move(stats));

  cache_->put(cache_key, json_dump(result));
  r.set("cached", JsonValue(false));
  r.set("result", std::move(result));
  return r;
}

JsonValue Server::handle_advise(const JsonValue& request,
                                RequestTrace* trace) {
  const JsonValue* key = request.find("key");
  if (key == nullptr || !key->is_string()) {
    throw BadRequest("advise: missing string field 'key'");
  }
  const auto entry = store_.find(key->as_string());
  if (entry == nullptr) {
    return error_response("advise", kErrNotFound,
                          "no stored tree under key " + key->as_string());
  }
  core::AdviseOptions ao;
  ao.base = report::paper_options(core::Method::Synthesizer);
  const std::vector<std::uint64_t> threads =
      parse_u64_list(request, "threads", "threads", {2, 4, 6, 8, 10, 12});
  ao.grid.thread_counts.clear();
  for (const std::uint64_t t : threads) {
    ao.grid.thread_counts.push_back(static_cast<CoreCount>(t));
  }
  ao.grid.chunks.clear();  // sweep with the base chunk
  CoreCount cores = config_.default_cores;
  if (const JsonValue* v = request.find("cores")) {
    const std::uint64_t n = v->as_u64();
    if (n == 0) throw BadRequest("cores: must be positive");
    cores = static_cast<CoreCount>(n);
  }
  ao.base.machine.cores = cores;
  bool memory_model = false;
  if (const JsonValue* v = request.find("memory_model")) {
    memory_model = v->as_bool();
  }
  ao.base.memory_model = memory_model;
  if (const JsonValue* v = request.find("efficiency_knee")) {
    ao.efficiency_knee = v->as_double();
  }
  if (const JsonValue* v = request.find("target_threads")) {
    ao.target_threads = static_cast<CoreCount>(v->as_u64());
  }

  JsonValue canonical;
  JsonValue::Array tlist;
  for (const auto t : ao.grid.thread_counts) {
    tlist.emplace_back(static_cast<std::uint64_t>(t));
  }
  canonical.set("threads", JsonValue(std::move(tlist)));
  canonical.set("cores", JsonValue(static_cast<std::uint64_t>(cores)));
  canonical.set("memory_model", JsonValue(memory_model));
  canonical.set("efficiency_knee", JsonValue(ao.efficiency_knee));
  canonical.set("target_threads",
                JsonValue(static_cast<std::uint64_t>(ao.target_threads)));
  const std::string cache_key = digest_hex(entry->compiled->tree_digest()) +
                                "|advise|" + json_dump(canonical);

  JsonValue r = ok_response("advise");
  if (auto hit = cache_->get(cache_key)) {
    metrics_.counter("serve.cache.hits").add(1);
    if (trace != nullptr) trace->cache = 1;
    r.set("cached", JsonValue(true));
    r.set("result", JsonValue::raw(std::move(*hit)));  // as in handle_grid_op
    return r;
  }
  metrics_.counter("serve.cache.misses").add(1);
  if (trace != nullptr) trace->cache = 0;

  core::Advice advice;
  try {
    if (memory_model) {
      tree::ProgramTree fresh = tree::unpack(entry->packed);
      memmodel::CalibrationOptions copts;
      copts.machine = ao.base.machine;
      const memmodel::BurdenModel model(memmodel::calibrate(copts));
      memmodel::annotate_burdens(fresh, model, ao.grid.thread_counts);
      advice = core::advise(fresh, ao);
    } else {
      advice = core::advise(*entry->compiled, ao);
    }
  } catch (const std::invalid_argument& e) {
    throw BadRequest(std::string("advise: ") + e.what());
  }

  JsonValue result;
  result.set("target_threads",
             JsonValue(static_cast<std::uint64_t>(advice.target_threads)));
  result.set("baseline", candidate_json(advice.baseline));
  result.set("best", candidate_json(advice.best));
  result.set("economical", candidate_json(advice.economical));
  JsonValue::Array sweep;
  sweep.reserve(advice.configurations.size());
  for (const core::Candidate& c : advice.configurations) {
    sweep.push_back(candidate_json(c));
  }
  result.set("sweep", JsonValue(std::move(sweep)));

  JsonValue profile;
  profile.set("serial_cycles", JsonValue(advice.profile.serial_cycles));
  profile.set("top_u_cycles", JsonValue(advice.profile.top_u_cycles));
  profile.set("serial_share", JsonValue(advice.profile.serial_share));
  JsonValue::Array sections;
  sections.reserve(advice.profile.sections.size());
  for (const core::SectionProfile& sp : advice.profile.sections) {
    JsonValue s;
    s.set("section", JsonValue(static_cast<std::uint64_t>(sp.section)));
    if (!sp.name.empty()) s.set("name", JsonValue(sp.name));
    s.set("repeat", JsonValue(sp.repeat));
    s.set("tasks", JsonValue(sp.tasks));
    s.set("work", JsonValue(sp.work));
    s.set("span", JsonValue(sp.span));
    s.set("parallelism", JsonValue(sp.parallelism));
    s.set("work_share", JsonValue(sp.work_share));
    s.set("max_burden", JsonValue(sp.max_burden));
    JsonValue::Array locks;
    locks.reserve(sp.locks.size());
    for (const core::LockProfile& lp : sp.locks) {
      JsonValue l;
      l.set("lock", JsonValue(static_cast<std::uint64_t>(lp.lock)));
      l.set("held_cycles", JsonValue(lp.held_cycles));
      l.set("work_share", JsonValue(lp.work_share));
      l.set("cap_speedup", JsonValue(lp.cap_speedup));
      l.set("cap_threads",
            JsonValue(static_cast<std::uint64_t>(lp.cap_threads)));
      locks.push_back(std::move(l));
    }
    s.set("locks", JsonValue(std::move(locks)));
    sections.push_back(std::move(s));
  }
  profile.set("sections", JsonValue(std::move(sections)));
  result.set("profile", std::move(profile));

  JsonValue::Array actions;
  actions.reserve(advice.actions.size());
  for (const core::Action& a : advice.actions) {
    JsonValue v;
    v.set("kind", JsonValue(core::to_string(a.kind)));
    if (a.kind == core::ActionKind::ConvertConfig) {
      v.set("config", candidate_json(a.config));
    } else {
      v.set("section", JsonValue(static_cast<std::uint64_t>(a.section)));
      if (!a.section_name.empty()) {
        v.set("section_name", JsonValue(a.section_name));
      }
      if (a.kind == core::ActionKind::SplitTasks) {
        v.set("split", JsonValue(a.edit.split));
      } else if (a.kind == core::ActionKind::ShrinkLock) {
        v.set("lock", JsonValue(static_cast<std::uint64_t>(a.edit.lock)));
        v.set("factor", JsonValue(a.edit.factor));
      } else {
        v.set("factor", JsonValue(a.edit.factor));
      }
    }
    v.set("speedup_before", JsonValue(a.speedup_before));
    v.set("speedup_after", JsonValue(a.speedup_after));
    v.set("describe", JsonValue(a.describe()));
    actions.push_back(std::move(v));
  }
  result.set("actions", JsonValue(std::move(actions)));

  JsonValue stats;
  stats.set("grid_points",
            JsonValue(static_cast<std::uint64_t>(advice.stats.grid_points)));
  stats.set("section_lookups", JsonValue(static_cast<std::uint64_t>(
                                   advice.stats.section_lookups)));
  stats.set("memo_hits",
            JsonValue(static_cast<std::uint64_t>(advice.stats.cache_hits)));
  stats.set("section_evals",
            JsonValue(static_cast<std::uint64_t>(advice.stats.section_evals)));
  result.set("stats", std::move(stats));

  cache_->put(cache_key, json_dump(result));
  r.set("cached", JsonValue(false));
  r.set("result", std::move(result));
  return r;
}

JsonValue Server::handle_sleep(const JsonValue& request) {
  const std::uint64_t ms = request.at("ms").as_u64();
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  JsonValue r = ok_response("sleep");
  r.set("slept_ms", JsonValue(ms));
  return r;
}

JsonValue Server::handle_stats() const {
  const ServerStatsSnapshot s = stats();
  JsonValue r = ok_response("stats");
  JsonValue body;
  body.set("connections", JsonValue(s.connections));
  body.set("requests", JsonValue(s.requests));
  body.set("ok", JsonValue(s.ok));
  JsonValue rejected;
  rejected.set("bad_request", JsonValue(s.bad_request));
  rejected.set("not_found", JsonValue(s.not_found));
  rejected.set("overloaded", JsonValue(s.overloaded));
  rejected.set("deadline_exceeded", JsonValue(s.deadline_exceeded));
  rejected.set("shutting_down", JsonValue(s.shutting_down));
  rejected.set("internal", JsonValue(s.internal_error));
  body.set("rejected", std::move(rejected));
  JsonValue transport;
  transport.set("accept_errors", JsonValue(s.accept_errors));
  transport.set("io_timeouts", JsonValue(s.io_timeouts));
  body.set("transport", std::move(transport));
  body.set("queue_depth", JsonValue(static_cast<std::uint64_t>(s.queue_depth)));
  JsonValue store;
  store.set("trees", JsonValue(static_cast<std::uint64_t>(s.stored_trees)));
  store.set("bytes", JsonValue(static_cast<std::uint64_t>(s.stored_bytes)));
  body.set("store", std::move(store));
  JsonValue cache;
  cache.set("hits", JsonValue(s.cache.hits));
  cache.set("misses", JsonValue(s.cache.misses));
  cache.set("insertions", JsonValue(s.cache.insertions));
  cache.set("evictions", JsonValue(s.cache.evictions));
  cache.set("entries", JsonValue(static_cast<std::uint64_t>(s.cache.entries)));
  cache.set("bytes", JsonValue(static_cast<std::uint64_t>(s.cache.bytes)));
  cache.set("hit_rate", JsonValue(s.cache.hit_rate()));
  body.set("cache", std::move(cache));
  body.set("request_us", timer_json(s.request_us));
  body.set("metrics", metrics_json(s.metrics));
  r.set("stats", std::move(body));
  return r;
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot s;
  s.connections = connections_total_.value();
  s.requests = requests_total_.value();
  s.ok = ok_.value();
  s.bad_request = bad_request_.value();
  s.not_found = not_found_.value();
  s.overloaded = overloaded_.value();
  s.deadline_exceeded = deadline_exceeded_.value();
  s.shutting_down = shutting_down_.value();
  s.internal_error = internal_error_.value();
  s.accept_errors = accept_errors_.value();
  s.io_timeouts = io_timeouts_.value();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  s.stored_trees = store_.size();
  s.stored_bytes = store_.total_bytes();
  s.cache = cache_->stats();
  s.request_us = request_us_.stat();
  s.metrics = metrics_.snapshot();
  return s;
}

void arm_signal_shutdown(Server& server, std::initializer_list<int> signals) {
  g_signal_shutdown_fd.store(server.shutdown_fd(), std::memory_order_relaxed);
  for (const int sig : signals) {
    std::signal(sig, signal_shutdown_handler);
    g_armed_signals.push_back(sig);
  }
}

void disarm_signal_shutdown() {
  for (const int sig : g_armed_signals) std::signal(sig, SIG_DFL);
  g_armed_signals.clear();
  g_signal_shutdown_fd.store(-1, std::memory_order_relaxed);
}

}  // namespace pprophet::serve
