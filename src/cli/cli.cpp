#include "cli/cli.hpp"

#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>

#include "core/advise.hpp"
#include "core/machine_sweep.hpp"
#include "machine/presets.hpp"
#include "machine/timeline.hpp"
#include "reuse/miss_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "memmodel/burden.hpp"
#include "memmodel/calibration.hpp"
#include "report/experiment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "tree/serialize.hpp"
#include "tree/tree_stats.hpp"
#include "tree/validate.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace pprophet::cli {
namespace {

constexpr const char* kUsage = R"(usage:
  pprophet predict  --tree FILE [--method ff|syn|suit|real]
                    [--paradigm omp|cilk] [--schedule static|static1|dynamic|guided]
                    [--chunk N] [--threads 2,4,8] [--cores N]
                    [--machine PRESET] [--memory-model] [--csv FILE]
  pprophet inspect  --tree FILE
  pprophet compress --tree FILE -o FILE [--tolerance 0.05] [--lossy]
  pprophet advise   --tree FILE [--threads 2,4,8] [--cores N]
                    [--target-threads N] [--memory-model]
  pprophet timeline --tree FILE [--threads N] [--paradigm omp|cilk]
                    [--schedule ...] [--cores N]
  pprophet sweep    --tree FILE [--methods ff,syn,suit,real]
                    [--paradigms omp,cilk] [--schedules static1,static,dynamic]
                    [--chunks 1,4] [--threads 2,4,8] [--cores N]
                    [--machines westmere,skylake,...] [--memory-model]
                    [--workers N] [--csv FILE]
  pprophet serve    --socket PATH [--listen HOST:PORT] [--serve-workers N]
                    [--queue-limit N] [--cache-mb N] [--workers N] [--cores N]
                    [--log FILE] [--slow-ms N] [--log-sample N]
  pprophet client   --socket PATH | --connect HOST:PORT
                    [--op] ping|stats|upload|predict|sweep|advise
                    [--tree FILE | --key HASH] [--methods ...] [--paradigms ...]
                    [--schedules ...] [--chunks ...] [--threads 2,4,8]
                    [--cores N] [--target-threads N] [--machines ...]
                    [--memory-model] [--deadline-ms N]
  pprophet stats    --socket PATH | --connect HOST:PORT [--watch N] [--samples M]
  pprophet help
observability (any command; see docs/OBSERVABILITY.md):
  --metrics[=FILE]   collect metrics; snapshot to stderr, or FILE (.json/.csv)
  --trace-out FILE   write Chrome trace-event JSON (chrome://tracing, Perfetto)
  --csv -            stream CSV to stdout (predict/sweep); table suppressed
serve request log (docs/SERVE.md "Diagnosing tail latency"):
  --log FILE         append one JSONL record per request (stage breakdown)
  --slow-ms N        requests at/over N ms always log (default 100; 0 = off)
  --log-sample N     log 1-in-N routine requests (default 1 = all)
)";

// The CLI and the wire protocol share one name set (ff/syn/..., omp/cilk,
// static/static1/...), parsed by serve/protocol.cpp.
using serve::parse_method;
using serve::parse_paradigm;
using serve::parse_schedule;

/// Splits a comma list and parses each token with `one`; false on any
/// failure or an empty list.
template <typename T, typename ParseOne>
bool parse_list(const std::string& v, std::vector<T>& out, ParseOne one) {
  out.clear();
  std::istringstream is(v);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    T item;
    if (!one(tok, item)) return false;
    out.push_back(item);
  }
  return !out.empty();
}

/// Parses the whole of `v` as a T in [lo, hi]. No sign the type cannot
/// hold, no trailing text, no out-of-range value wrapped into range.
template <typename T>
bool parse_number(const std::string& v, T& out, T lo, T hi) {
  T n{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc() || end != v.data() + v.size()) return false;
  if (!(n >= lo && n <= hi)) return false;  // NaN fails too
  out = n;
  return true;
}

/// Stores one flag's value into Options; false when the value is malformed.
using Setter = std::function<bool(const std::string&, Options&)>;

Setter text(std::string Options::*field) {
  return [=](const std::string& v, Options& o) {
    o.*field = v;
    return true;
  };
}

template <typename T>
Setter number(T Options::*field, T lo, T hi = std::numeric_limits<T>::max()) {
  return [=](const std::string& v, Options& o) {
    return parse_number(v, o.*field, lo, hi);
  };
}

template <typename T, typename ParseOne>
Setter one_of(T Options::*field, ParseOne parse) {
  return [=](const std::string& v, Options& o) { return parse(v, o.*field); };
}

template <typename T, typename ParseOne>
Setter list(std::vector<T> Options::*field, ParseOne one) {
  return [=](const std::string& v, Options& o) {
    return parse_list<T>(v, o.*field, one);
  };
}

template <typename T>
bool positive(const std::string& v, T& out) {
  return parse_number<T>(v, out, 1, std::numeric_limits<T>::max());
}

/// One command-line flag. A flag either takes the next argument as its value
/// (`set`) or is a switch (`toggle`); a rejected value prints
/// "bad NAME (use e.g. HINT)".
struct Flag {
  std::string name;
  Setter set;
  std::string hint = {};
  bool Options::*toggle = nullptr;
  bool inline_file = false;  ///< NAME=FILE is accepted too
};

/// Every flag of every command. Numeric ranges also bound the arithmetic
/// done on the value later: cmd_serve shifts --cache-mb by 20 and multiplies
/// --slow-ms by 1000, and cmd_stats sleeps --watch seconds.
const std::vector<Flag>& flags() {
  using u64 = std::uint64_t;
  static const std::vector<Flag> kFlags = {
      {"--tree", text(&Options::tree_path)},
      {"-o", text(&Options::output_path)},
      {"--output", text(&Options::output_path)},
      {"--method", one_of(&Options::method, parse_method)},
      {"--paradigm", one_of(&Options::paradigm, parse_paradigm)},
      {"--schedule", one_of(&Options::schedule, parse_schedule)},
      {"--chunk", number<u64>(&Options::chunk, 1)},
      {"--threads", list(&Options::threads, positive<CoreCount>), "2,4,8"},
      {"--cores", number<CoreCount>(&Options::cores, 1)},
      {"--target-threads", number<CoreCount>(&Options::target_threads, 1)},
      {"--methods", list(&Options::methods, parse_method), "ff,syn,suit,real"},
      {"--paradigms", list(&Options::paradigms, parse_paradigm), "omp,cilk"},
      {"--schedules", list(&Options::schedules, parse_schedule),
       "static1,static,dynamic"},
      {"--chunks", list(&Options::chunks, positive<u64>), "1,4"},
      {"--machine", text(&Options::machine)},
      {"--machines",
       [](const std::string& v, Options& o) {
         // Empty entries are skipped: "westmere,,skylake," names two.
         o.machines.clear();
         std::istringstream is(v);
         for (std::string tok; std::getline(is, tok, ',');) {
           if (!tok.empty()) o.machines.push_back(tok);
         }
         return !o.machines.empty();
       },
       "westmere,skylake"},
      {"--workers", number<std::size_t>(&Options::workers, 0)},
      {"--memory-model", nullptr, {}, &Options::memory_model},
      {"--tolerance", number(&Options::tolerance, 0.0, 1.0)},
      {"--lossy", nullptr, {}, &Options::lossy},
      {"--csv", text(&Options::csv_path)},
      {"--metrics",
       [](const std::string& v, Options& o) {
         o.metrics = true;
         o.metrics_path = v;
         return true;
       },
       {}, &Options::metrics, true},
      {"--trace-out", text(&Options::trace_path), {}, nullptr, true},
      {"--socket", text(&Options::socket_path)},
      {"--listen", text(&Options::listen_tcp)},
      {"--connect", text(&Options::connect_spec)},
      {"--op", text(&Options::op)},
      {"--key", text(&Options::key)},
      {"--serve-workers", number<std::size_t>(&Options::serve_workers, 1)},
      {"--queue-limit", number<std::size_t>(&Options::queue_limit, 1)},
      {"--cache-mb",
       number<std::size_t>(&Options::cache_mb, 1, SIZE_MAX >> 20)},
      {"--deadline-ms", number<u64>(&Options::deadline_ms, 1)},
      {"--log", text(&Options::log_path)},
      // 0 is legal: it disables the always-log threshold.
      {"--slow-ms", number<u64>(&Options::slow_ms, 0, UINT64_MAX / 1000)},
      {"--log-sample", number<u64>(&Options::log_sample, 1)},
      {"--watch", number<u64>(&Options::watch_secs, 1,
                              std::chrono::seconds::max().count())},
      {"--samples", number<u64>(&Options::watch_samples, 1)},
  };
  return kFlags;
}

/// Resolves one preset name, printing the shared one-line diagnostic on
/// failure (the same text the serve protocol returns for a bad "machines"
/// entry).
const machine::MachinePreset* resolve_machine(const std::string& name,
                                              std::ostream& err) {
  const machine::MachinePreset* p = machine::find_machine_preset(name);
  if (p == nullptr) {
    err << "pprophet: " << machine::unknown_machine_message(name) << "\n";
  }
  return p;
}

std::optional<tree::ProgramTree> load_tree(const std::string& path,
                                           std::ostream& err) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    err << "pprophet: '" << path << "' is a directory, not a tree file\n";
    return std::nullopt;
  }
  std::ifstream f(path);
  if (!f) {
    err << "pprophet: cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::ostringstream text;
  text << f.rdbuf();
  try {
    return tree::from_text(text.str());
  } catch (const std::exception& e) {
    err << "pprophet: parse error in '" << path << "': " << e.what() << "\n";
    return std::nullopt;
  }
}

/// The pricing step of predict, sweep and advise: loads the tree, projects
/// it onto `preset` when one is named (the preset becomes `base`'s machine),
/// attaches β calibrated on `base`'s machine under --memory-model, and
/// compiles once.
std::optional<tree::CompiledTree> price(const Options& opts,
                                        const std::string& preset,
                                        core::PredictOptions& base,
                                        std::ostream& err) {
  auto t = load_tree(opts.tree_path, err);
  if (!t) return std::nullopt;
  if (!preset.empty()) {
    // The preset is the whole machine (cores included), and sections
    // carrying reuse profiles get their counters re-derived for its cache
    // hierarchy (docs/MEMMODEL.md).
    const machine::MachinePreset* p = resolve_machine(preset, err);
    if (p == nullptr) return std::nullopt;
    reuse::project_tree(*t, p->cache, p->cost.dram);
    base.machine = p->machine;
    base.dram_stall = p->cost.dram;
  }
  if (opts.memory_model) {
    memmodel::CalibrationOptions copts;
    copts.machine = base.machine;
    copts.dram_stall = base.dram_stall;
    const memmodel::BurdenModel model(memmodel::calibrate(copts));
    memmodel::annotate_burdens(*t, model, opts.threads);
  }
  return tree::CompiledTree::compile(*t);
}

int cmd_predict(const Options& opts, std::ostream& out, std::ostream& err) {
  core::PredictOptions po = report::paper_options(opts.method);
  po.paradigm = opts.paradigm;
  po.schedule = opts.schedule;
  po.chunk = opts.chunk;
  po.machine.cores = opts.cores;
  po.memory_model = opts.memory_model;
  const auto compiled = price(opts, opts.machine, po, err);
  if (!compiled) return 1;

  // `--csv -` streams the CSV to stdout: the table is suppressed and status
  // lines move to stderr so stdout stays machine-readable.
  const bool csv_stdout = opts.csv_path == "-";
  std::ostream& status = csv_stdout ? err : out;
  obs::TraceSink* const sink = obs::TraceSink::current();

  util::Table table({"threads", "projected speedup", "parallel cycles"});
  util::CsvWriter csv({"threads", "speedup", "parallel_cycles",
                       "serial_cycles", "method", "schedule"});
  for (const CoreCount n : opts.threads) {
    machine::Timeline timeline;
    core::PredictOptions po_n = po;
    if (sink != nullptr) po_n.timeline = &timeline;
    obs::ScopedSpan span("predict t=" + std::to_string(n), "cli");
    const core::SpeedupEstimate est = core::predict(*compiled, n, po_n);
    table.add_row({std::to_string(n), util::fmt_f(est.speedup, 2),
                   util::fmt_i(static_cast<long long>(est.parallel_cycles))});
    csv.add_row({std::to_string(n), util::fmt_f(est.speedup, 4),
                 std::to_string(est.parallel_cycles),
                 std::to_string(est.serial_cycles),
                 core::to_string(opts.method),
                 runtime::to_string(opts.schedule)});
    if (sink != nullptr && !timeline.spans().empty()) {
      // One emulated-cycle track per thread count, pid-separated from the
      // wall-clock pipeline track (see obs/trace.hpp).
      obs::bridge_timeline(timeline, *sink, obs::kPidEmulation + n,
                           "emulation " + std::to_string(n) +
                               " threads (cycles)");
    }
  }
  status << "method " << core::to_string(opts.method) << ", paradigm "
         << core::to_string(opts.paradigm) << ", schedule "
         << runtime::to_string(opts.schedule) << ", machine ";
  if (!opts.machine.empty()) status << opts.machine << " (";
  status << po.machine.cores << " cores";
  if (!opts.machine.empty()) status << ")";
  status << ", memory model " << (opts.memory_model ? "on" : "off") << "\n";
  if (csv_stdout) {
    out << csv.to_string();
  } else {
    table.print(out);
    if (!opts.csv_path.empty()) {
      if (!csv.write(opts.csv_path)) {
        err << "pprophet: cannot write '" << opts.csv_path << "'\n";
        return 1;
      }
      out << "wrote " << opts.csv_path << "\n";
    }
  }
  return 0;
}

// Batched what-if sweep over (method × paradigm × schedule × chunk ×
// threads) through the memoizing engine (core/sweep.hpp), with the cache
// hit-rate and wall-clock reported so the batching win is visible.
int cmd_sweep(const Options& opts, std::ostream& out, std::ostream& err) {
  core::SweepGrid grid;
  grid.methods = opts.methods.empty()
                     ? std::vector<core::Method>{opts.method}
                     : opts.methods;
  grid.paradigms = opts.paradigms.empty()
                       ? std::vector<core::Paradigm>{opts.paradigm}
                       : opts.paradigms;
  grid.schedules = opts.schedules.empty()
                       ? std::vector<runtime::OmpSchedule>{opts.schedule}
                       : opts.schedules;
  grid.chunks = opts.chunks.empty() ? std::vector<std::uint64_t>{opts.chunk}
                                    : opts.chunks;
  grid.thread_counts = opts.threads;
  grid.memory_models = {opts.memory_model};
  grid.base = report::paper_options(grid.methods.front());
  grid.base.machine.cores = opts.cores;

  core::SweepOptions sopts;
  sopts.workers = opts.workers;

  // --machines: one profiling pass, N machines. Each preset gets the tree
  // re-priced through the reuse-distance model and its own burden
  // calibration (core/machine_sweep.hpp); a leading "machine" column keys
  // the rows. Without --machines the classic single-machine sweep (and its
  // CSV schema) is unchanged.
  const bool by_machine = !opts.machines.empty();
  std::vector<std::pair<std::string, core::SweepResult>> runs;
  std::size_t projected = 0;
  if (by_machine) {
    const auto t = load_tree(opts.tree_path, err);
    if (!t) return 1;
    std::vector<machine::MachinePreset> presets;
    for (const std::string& name : opts.machines) {
      const machine::MachinePreset* p = resolve_machine(name, err);
      if (p == nullptr) return 1;
      presets.push_back(*p);
    }
    core::MachineSweepResult mres =
        core::sweep_machines(*t, presets, grid, sopts);
    for (core::MachineSweepEntry& e : mres.machines) {
      projected += e.projected_sections;
      runs.emplace_back(std::move(e.machine), std::move(e.result));
    }
  } else {
    const auto compiled = price(opts, "", grid.base, err);
    if (!compiled) return 1;
    runs.emplace_back("", core::sweep(*compiled, grid, sopts));
  }

  std::vector<std::string> table_cols{"method",  "paradigm", "schedule",
                                      "chunk",   "threads",  "speedup",
                                      "parallel cycles"};
  std::vector<std::string> csv_cols{"method",  "paradigm",        "schedule",
                                    "chunk",   "threads",         "speedup",
                                    "parallel_cycles", "serial_cycles"};
  if (by_machine) {
    table_cols.insert(table_cols.begin(), "machine");
    csv_cols.insert(csv_cols.begin(), "machine");
  }
  util::Table table(table_cols);
  util::CsvWriter csv(csv_cols);
  core::SweepStats stats;
  for (const auto& [name, res] : runs) {
    stats.grid_points += res.stats.grid_points;
    stats.section_lookups += res.stats.section_lookups;
    stats.cache_hits += res.stats.cache_hits;
    stats.section_evals += res.stats.section_evals;
    stats.workers = res.stats.workers;
    stats.batched_blocks += res.stats.batched_blocks;
    stats.batched_points += res.stats.batched_points;
    stats.wall_ms += res.stats.wall_ms;
    for (const core::SweepCell& c : res.cells) {
      const auto& p = c.point;
      std::vector<std::string> trow{
          core::to_string(p.method), core::to_string(p.paradigm),
          runtime::to_string(p.schedule), std::to_string(p.chunk),
          std::to_string(p.threads), util::fmt_f(c.estimate.speedup, 2),
          util::fmt_i(static_cast<long long>(c.estimate.parallel_cycles))};
      std::vector<std::string> crow{
          core::to_string(p.method), core::to_string(p.paradigm),
          runtime::to_string(p.schedule), std::to_string(p.chunk),
          std::to_string(p.threads), util::fmt_f(c.estimate.speedup, 4),
          std::to_string(c.estimate.parallel_cycles),
          std::to_string(c.estimate.serial_cycles)};
      if (by_machine) {
        trow.insert(trow.begin(), name);
        crow.insert(crow.begin(), name);
      }
      table.add_row(trow);
      csv.add_row(crow);
    }
  }
  // With --csv the engine stats are diagnostics, not results: they move to
  // stderr so piped CSV output stays clean (they are also mirrored into the
  // metrics registry as sweep.* — see --metrics). `--csv -` streams the CSV
  // itself to stdout and suppresses the table.
  const bool csv_selected = !opts.csv_path.empty();
  const bool csv_stdout = opts.csv_path == "-";
  std::ostream& status = csv_stdout ? err : out;
  status << "sweep over " << stats.grid_points << " grid points, ";
  if (by_machine) {
    status << runs.size() << " machine" << (runs.size() == 1 ? "" : "s")
           << " (" << projected << " section counter projection"
           << (projected == 1 ? "" : "s") << ")";
  } else {
    status << "machine " << opts.cores << " cores";
  }
  status << ", memory model " << (opts.memory_model ? "on" : "off") << "\n";
  if (!csv_stdout) table.print(out);
  const auto& s = stats;
  (csv_selected ? err : out)
      << "grid points " << s.grid_points << ", section emulations "
      << s.section_evals << " of " << s.section_lookups
      << " lookups (memo hit rate " << util::fmt_pct(s.hit_rate()) << "), "
      << s.workers << " worker" << (s.workers == 1 ? "" : "s") << ", "
      << s.batched_blocks << " batched block"
      << (s.batched_blocks == 1 ? "" : "s") << " (" << s.batched_points
      << " points), " << util::fmt_f(s.wall_ms, 1) << " ms\n";
  if (csv_stdout) {
    out << csv.to_string();
  } else if (csv_selected) {
    if (!csv.write(opts.csv_path)) {
      err << "pprophet: cannot write '" << opts.csv_path << "'\n";
      return 1;
    }
    out << "wrote " << opts.csv_path << "\n";
  }
  return 0;
}

int cmd_inspect(const Options& opts, std::ostream& out, std::ostream& err) {
  auto t = load_tree(opts.tree_path, err);
  if (!t) return 1;
  const auto issues = tree::validate(*t);
  const tree::TreeStats stats = tree::compute_stats(*t);
  out << "tree: " << opts.tree_path << "\n"
      << "  valid: " << (issues.empty() ? "yes" : "NO") << "\n";
  for (const auto& issue : issues) {
    out << "    " << issue.path << ": " << issue.message << "\n";
  }
  out << "  physical nodes: " << stats.physical_nodes
      << "  logical: " << stats.logical_nodes
      << "  depth: " << stats.max_depth << "\n"
      << "  serial work: " << util::fmt_i(static_cast<long long>(stats.serial_work))
      << " cycles\n";
  util::Table secs({"top-level section", "trip count", "serial cycles",
                    "MPI", "traffic MB/s"});
  for (const auto& child : t->root->children()) {
    if (child->kind() != tree::NodeKind::Sec) continue;
    const auto* c = child->counters();
    secs.add_row({child->name(), std::to_string(child->logical_child_count()),
                  util::fmt_i(static_cast<long long>(child->serial_work())),
                  c != nullptr ? util::fmt_f(c->mpi(), 5) : "-",
                  c != nullptr ? util::fmt_f(c->traffic_mbps(), 1) : "-"});
  }
  secs.print(out);
  return issues.empty() ? 0 : 2;
}

int cmd_compress(const Options& opts, std::ostream& out, std::ostream& err) {
  auto t = load_tree(opts.tree_path, err);
  if (!t) return 1;
  if (opts.output_path.empty()) {
    err << "pprophet: compress needs -o OUTPUT\n";
    return 1;
  }
  tree::CompressOptions copts;
  copts.tolerance = opts.tolerance;
  copts.lossy = opts.lossy;
  copts.lossy_tolerance = std::max(opts.tolerance, 0.5);
  const tree::CompressStats s = tree::compress(*t, copts);
  std::ofstream f(opts.output_path);
  if (!f) {
    err << "pprophet: cannot write '" << opts.output_path << "'\n";
    return 1;
  }
  tree::write_tree(f, *t);
  out << "compressed " << s.nodes_before << " -> " << s.nodes_after
      << " nodes (" << util::fmt_pct(s.node_reduction()) << " reduction, "
      << (s.lossy_merges ? "lossy" : "lossless") << ", max deviation "
      << util::fmt_pct(s.max_absorbed_deviation) << ")\n"
      << "wrote " << opts.output_path << "\n";
  return 0;
}

// The what-if advisor (docs/ADVISOR.md): critical-path profile per section,
// the configuration search, and the ranked hypothetical edits.
int cmd_advise(const Options& opts, std::ostream& out, std::ostream& err) {
  core::AdviseOptions ao;
  ao.base = report::paper_options(core::Method::Synthesizer);
  ao.base.machine.cores = opts.cores;
  ao.base.memory_model = opts.memory_model;
  ao.grid.thread_counts = opts.threads;
  ao.grid.chunks.clear();  // sweep with the base chunk
  ao.target_threads = opts.target_threads;
  const auto compiled = price(opts, "", ao.base, err);
  if (!compiled) return 1;
  const core::Advice advice = core::advise(*compiled, ao);

  const core::CriticalPathProfile& prof = advice.profile;
  out << "serial: " << util::fmt_i(static_cast<long long>(prof.serial_cycles))
      << " cycles (" << util::fmt_pct(prof.serial_share)
      << " outside sections)\n";
  util::Table table({"section", "repeat", "tasks", "work", "span",
                     "parallelism", "share", "locks"});
  for (const core::SectionProfile& sp : prof.sections) {
    std::string locks;
    for (const core::LockProfile& lp : sp.locks) {
      if (!locks.empty()) locks += ", ";
      locks += "#" + std::to_string(lp.lock) + " caps " +
               util::fmt_f(lp.cap_speedup, 1) + "x";
    }
    table.add_row({sp.name.empty() ? std::to_string(sp.section) : sp.name,
                   std::to_string(sp.repeat), std::to_string(sp.tasks),
                   util::fmt_i(static_cast<long long>(sp.work)),
                   util::fmt_i(static_cast<long long>(sp.span)),
                   util::fmt_f(sp.parallelism, 1),
                   util::fmt_pct(sp.work_share),
                   locks.empty() ? "-" : locks});
  }
  table.print(out);

  out << "\nbest:       " << core::to_string(advice.best.paradigm) << " "
      << runtime::to_string(advice.best.schedule) << " on "
      << advice.best.threads << " threads -> "
      << util::fmt_f(advice.best.speedup, 2) << "x\n"
      << "economical: " << advice.economical.threads << " threads -> "
      << util::fmt_f(advice.economical.speedup, 2) << "x\n"
      << "baseline at " << advice.target_threads << " threads: "
      << util::fmt_f(advice.baseline.speedup, 2) << "x\n";
  if (advice.actions.empty()) {
    out << "no profitable edits found\n";
  } else {
    out << "\nwhat-if edits (at " << advice.target_threads << " threads):\n";
    std::size_t i = 0;
    for (const core::Action& a : advice.actions) {
      out << "  " << ++i << ". " << a.describe() << "\n";
    }
  }
  return 0;
}

// Gantt view of the emulated execution: where each thread ran and where it
// waited on locks — the "diagnose bottleneck" use the paper assigns to
// emulation (Table III).
int cmd_timeline(const Options& opts, std::ostream& out, std::ostream& err) {
  auto t = load_tree(opts.tree_path, err);
  if (!t) return 1;
  const CoreCount threads = opts.threads.empty() ? 4 : opts.threads.front();
  machine::Timeline timeline;
  runtime::ExecMode mode = runtime::ExecMode::real();
  mode.timeline = &timeline;
  const core::PredictOptions base = report::paper_options(core::Method::GroundTruth);
  machine::MachineConfig mcfg = base.machine;
  mcfg.cores = opts.cores;
  const tree::CompiledTree ct = tree::CompiledTree::compile(*t);
  runtime::RunResult r;
  if (opts.paradigm == core::Paradigm::OpenMP) {
    runtime::OmpConfig c;
    c.num_threads = threads;
    c.schedule = opts.schedule;
    c.chunk = opts.chunk;
    r = runtime::run_tree_omp(ct, mcfg, c, mode);
  } else {
    runtime::CilkConfig c;
    c.num_workers = threads;
    r = runtime::run_tree_cilk(ct, mcfg, c, mode);
  }
  const Cycles serial = core::serial_cycles_of(*t);
  out << "emulated " << threads << " threads ("
      << core::to_string(opts.paradigm) << ", "
      << runtime::to_string(opts.schedule) << ") on " << opts.cores
      << " cores: " << r.elapsed << " cycles, speedup "
      << util::fmt_f(static_cast<double>(serial) /
                         static_cast<double>(r.elapsed), 2)
      << "x\n\n";
  timeline.print(out);
  if (obs::TraceSink* sink = obs::TraceSink::current()) {
    obs::bridge_timeline(timeline, *sink, obs::kPidEmulation,
                         "emulation (cycles)");
  }
  Cycles total_wait = 0;
  for (std::uint32_t th = 0; th < timeline.thread_count(); ++th) {
    total_wait += timeline.lock_wait(th);
  }
  if (total_wait > 0) {
    out << "\nlock waiting across threads: " << total_wait << " cycles ("
        << util::fmt_pct(static_cast<double>(total_wait) /
                         static_cast<double>(r.elapsed * threads))
        << " of thread time)\n";
  }
  return 0;
}

// The prediction service daemon (docs/SERVE.md). Blocks until SIGTERM /
// SIGINT triggers the graceful drain, then reports the session totals.
// `serve_metrics` (when non-null) receives the server's private registry
// snapshot so `--metrics` can fold it into the end-of-run report.
int cmd_serve(const Options& opts, std::ostream& out, std::ostream& err,
              obs::MetricsSnapshot* serve_metrics) {
  if (opts.socket_path.empty() && opts.listen_tcp.empty()) {
    err << "pprophet: serve needs --socket PATH and/or --listen HOST:PORT\n";
    return 1;
  }
  serve::ServerConfig cfg;
  cfg.socket_path = opts.socket_path;
  cfg.listen_tcp = opts.listen_tcp;
  cfg.workers = opts.serve_workers;
  cfg.queue_limit = opts.queue_limit;
  cfg.cache_bytes = opts.cache_mb << 20;
  cfg.sweep_workers = opts.workers == 0 ? 1 : opts.workers;
  cfg.default_cores = opts.cores;
  std::ofstream log_file;
  std::optional<obs::EventLog> log;
  if (!opts.log_path.empty()) {
    log_file.open(opts.log_path, std::ios::app);
    if (!log_file) {
      err << "pprophet: cannot write '" << opts.log_path << "'\n";
      return 1;
    }
    obs::EventLog::Options lo;
    lo.sample_every = opts.log_sample;
    lo.slow_us = opts.slow_ms * 1000;
    log.emplace(log_file, lo);
    cfg.event_log = &*log;
  }
  serve::Server server(cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    err << "pprophet: " << e.what() << "\n";
    return 1;
  }
  serve::arm_signal_shutdown(server, {SIGTERM, SIGINT});
  for (const std::string& endpoint : server.endpoints()) {
    out << "pprophet serve: listening on " << endpoint << " ("
        << cfg.workers << " workers, queue " << cfg.queue_limit << ", cache "
        << opts.cache_mb << " MiB)\n";
  }
  if (log.has_value()) {
    out << "pprophet serve: request log " << opts.log_path << " (";
    if (opts.slow_ms > 0) out << "slow >= " << opts.slow_ms << " ms";
    else out << "slow threshold off";
    out << ", sampling 1-in-" << opts.log_sample << ")\n";
  }
  out << std::flush;
  server.wait();
  serve::disarm_signal_shutdown();
  const serve::ServerStatsSnapshot s = server.stats();
  if (serve_metrics != nullptr) *serve_metrics = s.metrics;
  out << "pprophet serve: drained — " << s.requests << " requests ("
      << s.ok << " ok) over " << s.connections << " connections, cache hit rate "
      << util::fmt_pct(s.cache.hit_rate()) << "\n";
  if (log.has_value()) {
    out << "pprophet serve: logged " << log->written() << " records ("
        << log->sampled_out() << " sampled out) to " << opts.log_path << "\n";
  }
  return 0;
}

serve::JsonValue build_client_request(const Options& opts,
                                      const std::string& op,
                                      const std::string& key) {
  serve::JsonValue req;
  req.set("op", serve::JsonValue(op));
  req.set("v", serve::JsonValue(serve::kProtocolVersion));
  req.set("key", serve::JsonValue(key));
  serve::JsonValue::Array threads;
  for (const CoreCount t : opts.threads) {
    threads.emplace_back(static_cast<std::uint64_t>(t));
  }
  req.set("threads", serve::JsonValue(std::move(threads)));
  req.set("cores", serve::JsonValue(static_cast<std::uint64_t>(opts.cores)));
  req.set("memory_model", serve::JsonValue(opts.memory_model));
  if (opts.deadline_ms > 0) {
    req.set("deadline_ms", serve::JsonValue(opts.deadline_ms));
  }
  if (op == "advise") {
    if (opts.target_threads > 0) {
      req.set("target_threads",
              serve::JsonValue(static_cast<std::uint64_t>(opts.target_threads)));
    }
    return req;  // the advisor sweeps its own dimensions
  }
  // Each grid axis sends its list flag, else the singular flag's value.
  const auto axis = [&req](const char* name, const auto& list,
                           const auto& single) {
    const auto wire = [](const auto& v) {
      if constexpr (std::is_integral_v<std::decay_t<decltype(v)>>) {
        return serve::JsonValue(v);
      } else {
        return serve::JsonValue(serve::wire_name(v));
      }
    };
    serve::JsonValue::Array values;
    if (list.empty()) values.push_back(wire(single));
    for (const auto& v : list) values.push_back(wire(v));
    req.set(name, serve::JsonValue(std::move(values)));
  };
  axis("methods", opts.methods, opts.method);
  axis("paradigms", opts.paradigms, opts.paradigm);
  axis("schedules", opts.schedules, opts.schedule);
  axis("chunks", opts.chunks, opts.chunk);
  if (!opts.machines.empty()) {
    serve::JsonValue::Array machines;
    for (const std::string& m : opts.machines) machines.emplace_back(m);
    req.set("machines", serve::JsonValue(std::move(machines)));
  }
  return req;
}

/// Renders a predict/sweep "result" object as the familiar sweep table.
/// Cells from a machines request carry a "machine" field, shown as a
/// leading column.
void print_cells(const serve::JsonValue& result, std::ostream& out) {
  const auto& cells = result.at("cells").as_array();
  const bool by_machine =
      !cells.empty() && cells.front().find("machine") != nullptr;
  std::vector<std::string> cols{"method",  "paradigm", "schedule", "chunk",
                                "threads", "speedup",  "parallel cycles"};
  if (by_machine) cols.insert(cols.begin(), "machine");
  util::Table table(cols);
  for (const serve::JsonValue& c : cells) {
    std::vector<std::string> row{
        c.at("method").as_string(), c.at("paradigm").as_string(),
        c.at("schedule").as_string(), std::to_string(c.at("chunk").as_u64()),
        std::to_string(c.at("threads").as_u64()),
        util::fmt_f(c.at("speedup").as_double(), 2),
        util::fmt_i(static_cast<long long>(c.at("parallel_cycles").as_u64()))};
    if (by_machine) row.insert(row.begin(), c.at("machine").as_string());
    table.add_row(row);
  }
  table.print(out);
}

void print_advice(const serve::JsonValue& result, std::ostream& out) {
  const auto line = [&](const char* label, const serve::JsonValue& c) {
    out << label << c.at("paradigm").as_string() << " "
        << c.at("schedule").as_string() << " on " << c.at("threads").as_u64()
        << " threads -> " << util::fmt_f(c.at("speedup").as_double(), 2)
        << "x\n";
  };
  line("best:       ", result.at("best"));
  line("economical: ", result.at("economical"));
  out << "baseline at " << result.at("target_threads").as_u64()
      << " threads: "
      << util::fmt_f(result.at("baseline").at("speedup").as_double(), 2)
      << "x\n";
  const auto& actions = result.at("actions").as_array();
  if (actions.empty()) {
    out << "no profitable edits found\n";
    return;
  }
  out << "what-if edits:\n";
  std::size_t i = 0;
  for (const serve::JsonValue& a : actions) {
    out << "  " << ++i << ". " << a.at("describe").as_string() << "\n";
  }
}

/// Connects to --connect HOST:PORT, else --socket PATH; on failure prints
/// one line and returns false.
bool connect(serve::Client& client, const Options& opts, std::ostream& err) {
  try {
    if (!opts.connect_spec.empty()) {
      client.connect_endpoint(opts.connect_spec);
    } else {
      client.connect(opts.socket_path);
    }
    return true;
  } catch (const std::exception& e) {
    err << "pprophet: " << e.what() << "\n";
    return false;
  }
}

// One-shot client: connect, upload the tree (unless --key references an
// already-stored one), send the requested op, render the response.
int cmd_client(const Options& opts, std::ostream& out, std::ostream& err) {
  if (opts.socket_path.empty() && opts.connect_spec.empty()) {
    err << "pprophet: client needs --socket PATH or --connect HOST:PORT\n";
    return 1;
  }
  const std::string& op = opts.op;
  const bool needs_tree =
      op == "upload" ||
      ((op == "predict" || op == "sweep" || op == "advise") &&
       opts.key.empty());
  if (op != "ping" && op != "stats" && op != "upload" && op != "predict" &&
      op != "sweep" && op != "advise") {
    err << "pprophet: unknown client --op '" << op << "'\n";
    return 1;
  }
  if (needs_tree && opts.tree_path.empty()) {
    err << "pprophet: client --op " << op << " needs --tree FILE"
        << (op == "upload" ? "" : " or --key HASH") << "\n";
    return 1;
  }

  serve::Client client;
  if (!connect(client, opts, err)) return 1;
  try {
    if (op == "ping" || op == "stats") {
      const serve::JsonValue resp = client.call(op);
      out << serve::json_dump(resp) << "\n";
      const serve::JsonValue* ok = resp.find("ok");
      return ok != nullptr && ok->is_bool() && ok->as_bool() ? 0 : 1;
    }

    std::string key = opts.key;
    if (key.empty() || op == "upload") {
      auto t = load_tree(opts.tree_path, err);
      if (!t) return 1;
      key = client.upload(tree::to_binary(tree::pack(*t)));
      out << "uploaded " << opts.tree_path << " as " << key << "\n";
      if (op == "upload") return 0;
    }

    const serve::JsonValue resp =
        client.call(build_client_request(opts, op, key));
    const serve::JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      const serve::JsonValue* msg = resp.find("message");
      const serve::JsonValue* code = resp.find("error");
      err << "pprophet: server rejected " << op << " ("
          << (code != nullptr && code->is_string() ? code->as_string()
                                                   : "error")
          << "): "
          << (msg != nullptr && msg->is_string() ? msg->as_string() : "")
          << "\n";
      return 1;
    }
    const serve::JsonValue& result = resp.at("result");
    if (op == "advise") {
      print_advice(result, out);
    } else {
      print_cells(result, out);
    }
    const serve::JsonValue* cached = resp.find("cached");
    out << op << " served "
        << (cached != nullptr && cached->is_bool() && cached->as_bool()
                ? "from cache"
                : "freshly")
        << "\n";
    return 0;
  } catch (const std::exception& e) {
    err << "pprophet: " << e.what() << "\n";
    return 1;
  }
}

// The serve-path latency histograms `pprophet stats` renders, most
// aggregated first. The stage rows partition serve.total_us (see
// serve/request_trace.hpp), so a fat tail always shows up in exactly one of
// them.
constexpr const char* kStageHistograms[] = {
    "serve.total_us",   "serve.read_us",  "serve.queue_wait_us",
    "serve.compute_us", "serve.write_us", "serve.other_us",
};

/// "123" on the first sample, "123 (+4)" / "123 (-4)" afterwards.
std::string with_delta(std::uint64_t cur, std::uint64_t prev, bool first) {
  if (first) return std::to_string(cur);
  const long long d =
      static_cast<long long>(cur) - static_cast<long long>(prev);
  return std::to_string(cur) + (d >= 0 ? " (+" : " (") + std::to_string(d) +
         ")";
}

// Live tail-latency watcher: polls the `stats` op and renders per-stage
// p50/p90/p99 with numeric deltas against the previous poll, so a latency
// regression shows up as a climbing tail while you reproduce it. One-shot
// without --watch; --samples bounds the loop (tests use --samples 2).
int cmd_stats(const Options& opts, std::ostream& out, std::ostream& err) {
  if (opts.socket_path.empty() && opts.connect_spec.empty()) {
    err << "pprophet: stats needs --socket PATH or --connect HOST:PORT\n";
    return 1;
  }
  serve::Client client;
  if (!connect(client, opts, err)) return 1;
  // quantile rows remembered between polls: name -> {count, p50, p90, p99}
  std::map<std::string, std::array<std::uint64_t, 4>> prev;
  std::uint64_t prev_requests = 0;
  bool first = true;
  const std::uint64_t max_samples =
      opts.watch_samples != 0 ? opts.watch_samples
                              : (opts.watch_secs == 0 ? 1 : 0);  // 0 = forever
  std::uint64_t sample = 0;
  for (;;) {
    serve::JsonValue resp;
    try {
      resp = client.call("stats");
    } catch (const std::exception& e) {
      err << "pprophet: " << e.what() << "\n";
      return 1;
    }
    const serve::JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      err << "pprophet: stats request failed: " << serve::json_dump(resp)
          << "\n";
      return 1;
    }
    const serve::JsonValue& body = resp.at("stats");
    const std::uint64_t requests = body.at("requests").as_u64();
    const std::uint64_t queue_depth = body.at("queue_depth").as_u64();
    double inflight = 0.0;
    const serve::JsonValue* metrics = body.find("metrics");
    if (metrics != nullptr) {
      if (const serve::JsonValue* gauges = metrics->find("gauges")) {
        if (const serve::JsonValue* g = gauges->find("serve.inflight")) {
          inflight = g->as_double();
        }
      }
    }
    if (!first) out << "\n";
    out << "requests " << with_delta(requests, prev_requests, first)
        << ", queue depth " << queue_depth << ", inflight "
        << static_cast<std::uint64_t>(inflight) << "\n";
    util::Table table({"stage", "count", "p50 us", "p90 us", "p99 us"});
    const serve::JsonValue* hists =
        metrics != nullptr ? metrics->find("histograms") : nullptr;
    if (hists != nullptr) {
      for (const char* name : kStageHistograms) {
        const serve::JsonValue* h = hists->find(name);
        if (h == nullptr) continue;
        const std::array<std::uint64_t, 4> cur = {
            h->at("count").as_u64(), h->at("p50").as_u64(),
            h->at("p90").as_u64(), h->at("p99").as_u64()};
        const auto it = prev.find(name);
        const bool have_prev = it != prev.end();
        const std::array<std::uint64_t, 4> old =
            have_prev ? it->second : std::array<std::uint64_t, 4>{};
        table.add_row({name, with_delta(cur[0], old[0], !have_prev),
                       with_delta(cur[1], old[1], !have_prev),
                       with_delta(cur[2], old[2], !have_prev),
                       with_delta(cur[3], old[3], !have_prev)});
        prev[name] = cur;
      }
    }
    table.print(out);
    out << std::flush;
    prev_requests = requests;
    first = false;
    ++sample;
    if (max_samples != 0 && sample >= max_samples) break;
    std::this_thread::sleep_for(std::chrono::seconds(opts.watch_secs));
  }
  return 0;
}

}  // namespace

std::optional<Options> parse_args(const std::vector<std::string>& args,
                                  std::ostream& err) {
  if (args.empty()) {
    err << "pprophet: missing command (run 'pprophet help' for usage)\n";
    return std::nullopt;
  }
  Options opts;
  opts.command = args[0];
  if (opts.command != "predict" && opts.command != "inspect" &&
      opts.command != "compress" && opts.command != "advise" &&
      opts.command != "timeline" && opts.command != "sweep" &&
      opts.command != "serve" && opts.command != "client" &&
      opts.command != "stats" && opts.command != "help") {
    err << "pprophet: unknown command '" << opts.command
        << "' (run 'pprophet help' for usage)\n";
    return std::nullopt;
  }
  bool positional_op = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    const std::size_t eq = a.find('=');  // NAME=FILE
    const Flag* flag = nullptr;
    for (const Flag& f : flags()) {
      if (a.compare(0, eq, f.name) == 0 &&
          (eq == std::string::npos || f.inline_file)) {
        flag = &f;
      }
    }
    if (flag == nullptr) {
      if (opts.command == "client" && a.rfind("--", 0) != 0 &&
          !positional_op) {
        // `pprophet client stats` reads better than `--op stats`; the first
        // bare word is the op.
        opts.op = a;
        positional_op = true;
        continue;
      }
      err << "pprophet: unknown option '" << a
          << "' (run 'pprophet help' for usage)\n";
      return std::nullopt;
    }
    if (eq != std::string::npos) {
      if (eq + 1 == a.size()) {
        err << "pprophet: " << flag->name << "= needs a file name\n";
        return std::nullopt;
      }
      flag->set(a.substr(eq + 1), opts);
    } else if (flag->toggle != nullptr) {
      opts.*(flag->toggle) = true;
    } else if (i + 1 >= args.size()) {
      err << "pprophet: " << a << " needs a value\n";
      return std::nullopt;
    } else if (!flag->set(args[++i], opts)) {
      err << "pprophet: bad " << flag->name;
      if (!flag->hint.empty()) err << " (use e.g. " << flag->hint << ")";
      err << "\n";
      return std::nullopt;
    }
  }
  // serve/client/stats talk to a socket, help talks to nobody — only the
  // tree-reading commands require --tree up front (the client checks its own
  // --tree/--key contract per op).
  const bool needs_tree = opts.command != "serve" && opts.command != "client" &&
                          opts.command != "stats" && opts.command != "help";
  if (needs_tree && opts.tree_path.empty()) {
    err << "pprophet: --tree is required\n";
    return std::nullopt;
  }
  return opts;
}

namespace {

int dispatch(const Options& opts, std::ostream& out, std::ostream& err,
             obs::MetricsSnapshot* serve_metrics) {
  try {
    if (opts.command == "predict") return cmd_predict(opts, out, err);
    if (opts.command == "inspect") return cmd_inspect(opts, out, err);
    if (opts.command == "compress") return cmd_compress(opts, out, err);
    if (opts.command == "advise") return cmd_advise(opts, out, err);
    if (opts.command == "timeline") return cmd_timeline(opts, out, err);
    if (opts.command == "sweep") return cmd_sweep(opts, out, err);
    if (opts.command == "serve") return cmd_serve(opts, out, err, serve_metrics);
    if (opts.command == "client") return cmd_client(opts, out, err);
    if (opts.command == "stats") return cmd_stats(opts, out, err);
    if (opts.command == "help") {
      out << kUsage;
      return 0;
    }
  } catch (const std::exception& e) {
    err << "pprophet: " << e.what() << "\n";
    return 1;
  }
  err << kUsage;
  return 1;
}

/// Renders the metrics snapshot: to `err` as text when no path was given,
/// else to the file, format picked by extension (.json / .csv / text).
/// `serve_metrics` is the server's private registry captured at drain time
/// (empty for every other command); folding it in here means
/// `pprophet serve --metrics=f.json` reports the per-stage histograms
/// alongside the global counters.
bool emit_metrics(const Options& opts, const obs::MetricsSnapshot& serve_metrics,
                  std::ostream& err) {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  snap.merge(serve_metrics);
  if (opts.metrics_path.empty()) {
    err << "-- metrics --\n";
    snap.render_text(err);
    return true;
  }
  std::ofstream f(opts.metrics_path);
  if (!f) {
    err << "pprophet: cannot write '" << opts.metrics_path << "'\n";
    return false;
  }
  const auto ends_with = [&](const char* suffix) {
    const std::string& p = opts.metrics_path;
    const std::size_t n = std::string(suffix).size();
    return p.size() >= n && p.compare(p.size() - n, n, suffix) == 0;
  };
  if (ends_with(".json")) snap.render_json(f);
  else if (ends_with(".csv")) snap.render_csv(f);
  else snap.render_text(f);
  err << "wrote metrics " << opts.metrics_path << "\n";
  return true;
}

}  // namespace

int run(const Options& opts, std::ostream& out, std::ostream& err) {
  // Observability session: the registry and sink are process globals, so
  // save/restore around the command lets embedding tests drive run()
  // repeatedly without leaking state between invocations.
  const bool prev_enabled = obs::enabled();
  obs::TraceSink* const prev_sink = obs::TraceSink::current();
  std::optional<obs::TraceSink> sink;
  if (!opts.trace_path.empty()) {
    sink.emplace();
    sink->name_process(obs::kPidPipeline, "pipeline (wall-clock us)");
    obs::TraceSink::set_current(&*sink);
  }
  if (opts.metrics) {
    obs::MetricsRegistry::global().reset();  // per-invocation counts
    obs::set_enabled(true);
  }

  obs::MetricsSnapshot serve_metrics;
  int rc = dispatch(opts, out, err, &serve_metrics);

  if (opts.metrics && !emit_metrics(opts, serve_metrics, err) && rc == 0) {
    rc = 1;
  }
  obs::set_enabled(prev_enabled);
  if (sink.has_value()) {
    obs::TraceSink::set_current(prev_sink);
    std::ofstream f(opts.trace_path);
    if (!f) {
      err << "pprophet: cannot write '" << opts.trace_path << "'\n";
      if (rc == 0) rc = 1;
    } else {
      sink->write_chrome_json(f);
      err << "wrote trace " << opts.trace_path << " (" << sink->size()
          << " events)\n";
    }
  }
  return rc;
}

int main_impl(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  const auto opts = parse_args(args, err);
  if (!opts) return 1;
  return run(*opts, out, err);
}

}  // namespace pprophet::cli
