// pprophet command-line tool: predict / inspect / compress / advise /
// timeline / sweep over program trees saved in the text serialization format
// (tree/serialize.hpp), and the prediction service (serve / client / stats).
// `pprophet help` prints the usage of every command and flag.
//
// The entry point is a plain function so tests can drive it without
// spawning processes.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep.hpp"

namespace pprophet::cli {

struct Options {
  /// predict|inspect|compress|advise|timeline|sweep|serve|client|stats|help
  std::string command;
  std::string tree_path;
  std::string output_path;
  core::Method method = core::Method::Synthesizer;
  core::Paradigm paradigm = core::Paradigm::OpenMP;
  runtime::OmpSchedule schedule = runtime::OmpSchedule::StaticCyclic;
  std::uint64_t chunk = 1;
  std::vector<CoreCount> threads{2, 4, 6, 8, 10, 12};
  CoreCount cores = 12;
  /// advise --target-threads: thread count the what-if edits are priced at
  /// (0 = the largest entry of --threads).
  CoreCount target_threads = 0;
  bool memory_model = false;
  double tolerance = 0.05;
  bool lossy = false;
  std::string csv_path;
  // sweep-only grid dimensions (the singular options above seed the
  // defaults when a list is not given).
  std::vector<core::Method> methods;
  std::vector<core::Paradigm> paradigms;
  std::vector<runtime::OmpSchedule> schedules;
  std::vector<std::uint64_t> chunks;
  /// --machines (sweep/client): machine presets to price the tree on via
  /// the reuse-distance model (machine/presets.hpp, docs/MEMMODEL.md).
  std::vector<std::string> machines;
  /// --machine (predict): single preset overriding the default machine.
  std::string machine;
  std::size_t workers = 0;  ///< sweep worker pool; 0 = hardware concurrency
  // observability (any command)
  bool metrics = false;      ///< --metrics: enable + report the registry
  std::string metrics_path;  ///< --metrics=FILE: render by extension
  std::string trace_path;    ///< --trace-out FILE: Chrome trace JSON
  // prediction service (serve / client; docs/SERVE.md)
  std::string socket_path;        ///< --socket PATH: unix-domain socket
  std::string listen_tcp;         ///< serve --listen HOST:PORT: TCP transport
  std::string connect_spec;       ///< client/stats --connect HOST:PORT
  std::string op = "ping";        ///< client --op: request to send
  std::string key;                ///< client --key: stored-tree content hash
  std::size_t serve_workers = 2;  ///< serve --serve-workers: request threads
  std::size_t queue_limit = 64;   ///< serve --queue-limit: admission bound
  std::size_t cache_mb = 64;      ///< serve --cache-mb: result-cache budget
  std::uint64_t deadline_ms = 0;  ///< client --deadline-ms: request budget
  // serve request log (obs/event_log.hpp; docs/SERVE.md)
  std::string log_path;            ///< serve --log FILE: JSONL request log
  std::uint64_t slow_ms = 100;     ///< serve --slow-ms: always-log threshold
  std::uint64_t log_sample = 1;    ///< serve --log-sample: 1-in-N info records
  // stats watcher (`pprophet stats`)
  std::uint64_t watch_secs = 0;    ///< stats --watch N: poll every N seconds
  std::uint64_t watch_samples = 0; ///< stats --samples M: stop after M polls
};

/// Parses argv (excluding argv[0]). Returns nullopt and writes a message to
/// `err` on bad usage.
std::optional<Options> parse_args(const std::vector<std::string>& args,
                                  std::ostream& err);

/// Runs the tool. Returns a process exit code.
int run(const Options& opts, std::ostream& out, std::ostream& err);

/// Convenience main body: parse + run.
int main_impl(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace pprophet::cli
