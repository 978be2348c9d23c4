// The prediction service daemon (`pprophet serve`): a socket server
// answering upload / predict / sweep / advise / stats requests against a
// content-addressed ProfileStore, fronted by a sharded LRU ResultCache and
// executed on a bounded worker pool.
//
// Threading model (docs/SERVE.md):
//  * one epoll reactor thread (serve/reactor.hpp) owns every listening
//    socket — the unix-domain socket and, when configured, a TCP endpoint —
//    plus every accepted connection. Connections are nonblocking; frames
//    assemble incrementally, so clients may pipeline requests and receive
//    responses in request order;
//  * `workers` request threads drain the bounded admission queue and run
//    the handlers (which in turn use the core::sweep worker pool, so
//    results are bit-identical to in-process prediction);
//  * ping/stats are answered directly on the reactor thread — a stats poll
//    must see live state without queueing behind the compute ops it is
//    trying to diagnose.
//
// Backpressure is tiered: when the admission queue reaches its high
// watermark, expensive ops (sweep / advise — anything that can hold a
// worker for seconds) are shed first with `overloaded` + `"tier":
// "expensive"`; cheap ops (upload / predict) are still admitted until the
// queue is actually full (`"tier":"full"`). The daemon never queues
// unboundedly. Deadlines: a request carrying "deadline_ms" that is still
// queued when the budget expires is rejected with `deadline_exceeded`
// instead of computed.
// Shutdown: request_shutdown() — or a signal wired via
// arm_signal_shutdown() — stops accepting connections, lets every admitted
// request finish and flush its response, then joins all threads (drain, not
// abort). New requests arriving during the drain get `shutting_down`.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "serve/profile_store.hpp"
#include "serve/reactor.hpp"
#include "serve/request_trace.hpp"
#include "serve/result_cache.hpp"

namespace pprophet::serve {

struct ServerConfig {
  std::string socket_path;
  /// Optional second transport: "HOST:PORT" (IPv4; port 0 = ephemeral,
  /// readable back via tcp_port()). Empty = unix socket only. TCP carries
  /// the identical frame protocol; see docs/SERVE.md for the trust caveat.
  std::string listen_tcp;
  std::size_t workers = 2;          ///< request-execution threads
  std::size_t queue_limit = 64;     ///< bounded admission queue capacity
  std::size_t cache_bytes = 64u << 20;  ///< result-cache budget
  std::size_t cache_shards = 8;
  std::size_t store_shards = 8;     ///< ProfileStore lock shards
  /// Reactor I/O timeout: drop a connection wedged mid-frame or not
  /// draining its responses for this long (idle between frames is fine).
  std::uint64_t io_timeout_ms = 1000;
  /// core::sweep pool width per request (0 = hardware concurrency). Keep
  /// small: up to `workers` requests each spawn this many sweep threads.
  std::size_t sweep_workers = 1;
  CoreCount default_cores = 12;     ///< machine cores when a request omits it
  /// Enables the test-only "sleep" op that the deterministic backpressure /
  /// deadline tests park workers with. Off for `pprophet serve`.
  bool debug_ops = false;
  /// Optional structured request log (`pprophet serve --log FILE`). The
  /// sink must outlive the server; its own sampling/slow-threshold policy
  /// decides which requests actually hit the file. Null = no logging.
  obs::EventLog* event_log = nullptr;
};

/// Point-in-time server statistics (also the payload of a `stats` request).
struct ServerStatsSnapshot {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t not_found = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t shutting_down = 0;
  std::uint64_t internal_error = 0;
  std::uint64_t accept_errors = 0;  ///< accept() failures survived (retried)
  std::uint64_t io_timeouts = 0;    ///< connections dropped mid-frame stall
  std::size_t queue_depth = 0;
  std::size_t stored_trees = 0;
  std::size_t stored_bytes = 0;
  ResultCache::Stats cache;
  obs::TimerStat request_us;  ///< handler latency of queued (compute) ops
  /// The server's private metrics registry (per-stage latency histograms,
  /// queue/inflight gauges) at snapshot time — what the `stats` op renders
  /// under "metrics" and `pprophet serve --metrics` merges at exit.
  obs::MetricsSnapshot metrics;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket(s) and starts the reactor/worker threads. Throws
  /// std::runtime_error on bind/listen failure (e.g. a live server already
  /// owns the path). A stale socket file with no listener is replaced.
  void start();

  /// Begins a graceful drain; safe to call from any thread, idempotent.
  /// (Not async-signal-safe — signal handlers must instead write a byte to
  /// shutdown_fd(), which is what arm_signal_shutdown() installs.)
  void request_shutdown();

  /// Blocks until the drain completes and every thread has been joined.
  void wait();

  /// Convenience: request_shutdown() + wait().
  void stop();

  bool running() const { return started_.load() && !stopped_.load(); }
  const ServerConfig& config() const { return config_; }

  /// Write end of the shutdown self-pipe: writing one byte triggers the
  /// same drain as request_shutdown(), and write(2) is async-signal-safe.
  int shutdown_fd() const { return shutdown_pipe_[1]; }

  /// Bound TCP port after start() (resolves port 0); 0 when no TCP
  /// listener was configured.
  std::uint16_t tcp_port() const { return tcp_port_; }

  /// Human-readable transport endpoints after start() ("unix:/path",
  /// "tcp:host:port"), for the startup banner and tests.
  const std::vector<std::string>& endpoints() const { return endpoints_; }

  ServerStatsSnapshot stats() const;

  /// The per-server metrics registry. Always live (independent of the
  /// global obs::enabled() switch) so the `stats` op works on any running
  /// daemon and concurrent Server instances in one process don't mix
  /// telemetry. Exposed for tests and bench tooling.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Job {
    JsonValue request;
    std::string op;
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
    std::uint64_t version = 1;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t deadline_ms = 0;  ///< 0 = no deadline
    /// Travels with the job: read marks stamped by the reactor, queue and
    /// compute marks stamped by the worker, write marks stamped back on the
    /// reactor thread when the response bytes flush.
    std::unique_ptr<RequestTrace> trace;
  };

  enum class Admission : std::uint8_t {
    Accepted,
    ShedExpensive,  ///< queue at high watermark; expensive op shed first
    ShedFull,       ///< queue full; everything sheds
    Closed,         ///< draining for shutdown
  };

  void on_frame(InboundFrame frame);
  void on_transport_event(TransportEvent event, std::uint64_t conn);
  void worker_loop();
  /// Moves from `job` only on Accepted, so a shed request keeps its trace
  /// for the inline rejection response.
  Admission submit(std::unique_ptr<Job>& job, bool expensive);
  void execute(Job& job);

  // Request handlers (queued ops run on worker threads; ping/stats are
  // answered inline on the reactor thread).
  JsonValue handle(const JsonValue& request, const std::string& op,
                   RequestTrace* trace);
  JsonValue handle_upload(const JsonValue& request);
  JsonValue handle_grid_op(const JsonValue& request, const std::string& op,
                           RequestTrace* trace);
  JsonValue handle_advise(const JsonValue& request, RequestTrace* trace);
  JsonValue handle_sleep(const JsonValue& request);
  JsonValue handle_stats() const;

  void note_outcome(const JsonValue& response, RequestTrace* trace);
  /// Records the finished request into the per-stage histograms, emits
  /// TraceSink spans when a sink is live, and writes the JSONL record.
  void finish_trace(const RequestTrace& trace);

  ServerConfig config_;
  ProfileStore store_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<Reactor> reactor_;

  int shutdown_pipe_[2] = {-1, -1};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::uint16_t tcp_port_ = 0;
  std::vector<std::string> endpoints_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Job>> queue_;
  bool queue_closed_ = false;

  std::vector<std::thread> workers_;

  // Outcome counters; plain atomics so the stats op needs no lock.
  obs::Counter connections_total_;
  obs::Counter requests_total_;
  obs::Counter ok_;
  obs::Counter bad_request_;
  obs::Counter not_found_;
  obs::Counter overloaded_;
  obs::Counter deadline_exceeded_;
  obs::Counter shutting_down_;
  obs::Counter internal_error_;
  obs::Counter accept_errors_;
  obs::Counter io_timeouts_;
  obs::Timer request_us_;

  std::atomic<std::int64_t> inflight_{0};

  // Per-server telemetry (see metrics()). Declared after the registry so
  // the cached handles are initialized from a constructed registry.
  obs::MetricsRegistry metrics_;
  obs::Histogram& h_read_;
  obs::Histogram& h_queue_wait_;
  obs::Histogram& h_compute_;
  obs::Histogram& h_write_;
  obs::Histogram& h_other_;
  obs::Histogram& h_total_;
  obs::Gauge& g_queue_depth_;
  obs::Gauge& g_inflight_;
};

/// Installs a handler for each signal in `signals` (e.g. SIGTERM, SIGINT)
/// that triggers `server`'s graceful drain via its self-pipe. Only one
/// server can be armed at a time; disarm restores SIG_DFL.
void arm_signal_shutdown(Server& server, std::initializer_list<int> signals);
void disarm_signal_shutdown();

}  // namespace pprophet::serve
