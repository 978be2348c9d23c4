// perfbench: the repo's end-to-end benchmark binary (see ../README.md).
//
//   perfbench --workload profile|whatif|serve --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Runs one closed-loop workload against the public API, checks every
// output, and prints its metrics; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 they are the per-layer set, and
// the spans are written to DIR as Chrome-trace JSON.
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric, in print order. A workload fills the ones its
/// layers exercise; the rest report 0 (that layer did no work there).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"workloads.kernel_ms", "ms"},
    {"vcpu.instructions", "count"},
    {"vcpu.sim_minst_per_s", "Minst/s"},
    {"cachesim.llc_misses", "count"},
    {"tree.compress_ms", "ms"},
    {"tree.compress_ratio", "ratio"},
    {"tree.pack_ms", "ms"},
    {"tree.pptb_bytes", "bytes"},
    {"memmodel.annotate_ms", "ms"},
    {"tree.compile_ms", "ms"},
    {"machine.syn_ms", "ms"},
    {"machine.synm_ms", "ms"},
    {"machine.real_ms", "ms"},
    {"emul.ff_ms", "ms"},
    {"emul.suit_ms", "ms"},
    {"core.sweep.section_evals", "count"},
    {"core.sweep.hit_ratio", "ratio"},
    {"core.advise_ms", "ms"},
    {"core.advise.section_evals", "count"},
    {"core.advise.hit_ratio", "ratio"},
    {"serve.hit_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"serve.upload_ms", "ms"},
    {"serve.read_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.compute_us", "us"},
    {"serve.write_us", "us"},
    {"serve.other_us", "us"},
    {"serve.read_share", "ratio"},
    {"serve.queue_wait_share", "ratio"},
    {"serve.compute_share", "ratio"},
    {"serve.write_share", "ratio"},
    {"serve.other_share", "ratio"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.store.trees", "count"},
    {"traced.ops_per_s", "1/s"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload profile|whatif|serve --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

long parse_long(const std::string& flag, const std::string& v) {
  try {
    std::size_t used = 0;
    const long n = std::stol(v, &used);
    if (used != v.size() || n < 0) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    usage(flag + ": expected a non-negative integer, got '" + v + "'");
  }
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_metric(std::ostream& os, bool& first, const std::string& name,
                  double value, const std::string& unit) {
  os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
     << number(value) << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = static_cast<std::uint64_t>(parse_long(flag, v));
    } else if (flag == "--seconds") {
      args.seconds = parse_long(flag, v);
      if (args.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("missing --workload");
  tracing_enable(args.trace);

  Outcome o;
  try {
    if (args.workload == "profile") {
      o = run_profile(args, process_start);
    } else if (args.workload == "whatif") {
      o = run_whatif(args, process_start);
    } else if (args.workload == "serve") {
      o = run_serve(args, process_start);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double raw_ops_per_s =
      o.timed_s > 0 ? static_cast<double>(o.attempted) / o.timed_s : 0.0;
  const double raw_p50 = median(o.op_ms);
  const Tail raw_tail = tail_of(o.op_ms);
  const double raw_setup = median(o.setup_s);
  // Timings of a workload that probes the host are reported at the nominal
  // host speed: scaled by how much faster or slower than nominal the probe
  // ran beside the ops. `serve` takes no probes and is not scaled.
  const double probe = median(o.probe_ms);
  const double scale = probe > 0 ? kNominalProbeMs / probe : 1.0;
  const double ops_per_s = raw_ops_per_s / scale;
  const double p50 = raw_p50 * scale;
  const Tail tail{raw_tail.percentile, raw_tail.value * scale,
                  raw_tail.samples};

  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  seconds " << args.seconds << "  trace " << args.trace
            << "\n";
  for (const std::string& note : o.notes) std::cout << "note " << note << "\n";
  std::cout << "ops " << o.attempted << " in " << number(o.timed_s)
            << " s; tail_ms is p" << tail.percentile << " of " << tail.samples
            << " op latencies\n";
  if (o.probe_ms.empty()) {
    std::cout << "host probe: none taken; timings unscaled\n";
  } else {
    std::cout << "host probe median " << number(probe) << " ms over "
              << o.probe_ms.size() << " samples; nominal " << kNominalProbeMs
              << " ms; timings scaled by " << number(scale) << "\n";
  }
  std::cout << "unscaled ops_per_s " << number(raw_ops_per_s) << " p50_ms "
            << number(raw_p50) << " tail_ms " << number(raw_tail.value)
            << " setup_s " << number(raw_setup) << "\n";
  std::cout << "setup_s repetitions (unscaled):";
  for (const double s : o.setup_s) std::cout << ' ' << number(s);
  std::cout << "\npred_err_pct is |PredM - Real| / Real against the "
               "simulated-machine ground truth (the DES), not hardware\n";
  std::cout << "counts {";
  for (std::size_t i = 0; i < o.counts.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << o.counts[i].first
              << "\": " << o.counts[i].second;
  }
  std::cout << "}\n";

  std::ostringstream metrics;
  bool first = true;
  if (args.trace) {
    const auto table = self_times();
    std::cout << "self time over " << o.attempted << " timed ops:\n";
    for (const SelfTime& row : table) {
      std::cout << "  " << std::left << std::setw(24) << row.name << std::right
                << std::setw(12) << std::fixed << std::setprecision(3)
                << row.self_ms << " ms" << std::setw(10) << row.count
                << " spans\n";
    }
    std::cout.unsetf(std::ios::floatfield);
    const std::filesystem::path path =
        std::filesystem::path(args.out_dir) /
        ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
    write_chrome_trace(path.string());
    std::cout << "trace written to " << path.string() << "\n";

    o.layers.push_back({"traced.ops_per_s", ops_per_s, "1/s"});
    for (const Metric& m : o.layers) {
      bool known = false;
      for (const auto& [name, unit] : kLayerMetrics) known |= m.name == name;
      if (!known) {
        std::cerr << "perfbench: unlisted layer metric " << m.name << "\n";
        return 1;
      }
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      for (const Metric& m : o.layers) {
        if (m.name == name) value = m.value;
      }
      print_metric(metrics, first, name, value, unit);
    }
  } else {
    print_metric(metrics, first, "ops_per_s", ops_per_s, "1/s");
    print_metric(metrics, first, "p50_ms", p50, "ms");
    print_metric(metrics, first, "tail_ms", tail.value, "ms");
    print_metric(metrics, first, "setup_s", raw_setup * scale, "s");
    print_metric(metrics, first, "peak_rss_mb", peak_rss_mb, "MB");
    print_metric(metrics, first, "pred_err_pct", o.pred_err_pct, "%");
  }
  std::cout << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << o.attempted
            << ", \"failed\": " << o.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
