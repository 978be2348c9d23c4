#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the same thread's spans
  std::int64_t op = -1;
};

/// One thread's spans. Only its own thread appends; readers run after the
/// recording threads have been joined.
struct ThreadLog {
  std::uint32_t tid = 0;
  std::int64_t op = -1;
  std::vector<Record> spans;
  std::vector<std::int64_t> open;  ///< stack of open span indices
};

std::atomic<bool> g_on{false};
const Clock::time_point g_epoch = Clock::now();
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_mu

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

ThreadLog& local_log() {
  thread_local ThreadLog* log = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    g_logs.back()->tid = static_cast<std::uint32_t>(g_logs.size());
    g_logs.back()->spans.reserve(1 << 14);
    return g_logs.back().get();
  }();
  return *log;
}

}  // namespace

void tracing_enable(bool on) { g_on.store(on); }
bool tracing_enabled() { return g_on.load(std::memory_order_relaxed); }

void set_current_op(std::int64_t op) {
  if (tracing_enabled()) local_log().op = op;
}

Span::Span(const char* name) {
  if (!tracing_enabled()) return;
  ThreadLog& log = local_log();
  index_ = static_cast<std::int64_t>(log.spans.size());
  Record r;
  r.name = name;
  r.parent = log.open.empty() ? -1 : log.open.back();
  r.op = log.op;
  r.start_ns = now_ns();
  log.spans.push_back(r);
  log.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadLog& log = local_log();
  log.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log.open.pop_back();
}

std::vector<SelfTime> self_times() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SelfTime> by_name;
  for (const auto& log : g_logs) {
    const auto& spans = log->spans;
    std::vector<std::int64_t> covered(spans.size(), 0);
    for (const Record& r : spans) {
      if (r.parent >= 0) {
        covered[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].op < 0) continue;
      SelfTime& row = by_name[spans[i].name];
      row.name = spans[i].name;
      row.self_ms +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              covered[i]) /
          1e6;
      ++row.count;
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double self_ms(const std::vector<SelfTime>& table, const std::string& name) {
  for (const SelfTime& row : table) {
    if (row.name == name) return row.self_ms;
  }
  return 0.0;
}

void write_chrome_trace(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(g_mu);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const Record& r = log->spans[i];
      os << (first ? "" : ",") << "\n{\"name\":\"" << r.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid
         << ",\"ts\":" << static_cast<double>(r.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
         << ",\"op\":" << r.op << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
