// Observability overhead gate: the "zero overhead when disabled" contract
// of src/obs, restated as counts so it holds on any host. Each check runs
// the same work with instrumentation off and on and compares what the two
// arms did, not how long they took:
//   * a FastForward prediction loop leaves the global metrics registry
//     untouched (no name registered, nothing recorded) while disabled, and
//     allocates strictly less than the enabled arm, which registers and
//     records;
//   * obs::hist_record behind the enabled() guard registers nothing,
//     records nothing and allocates nothing while disabled; enabled, it
//     records every call;
//   * an EventLog record that sampling drops does no formatting or IO: the
//     sampled-out writes allocate nothing and add no sink bytes, while the
//     same writes on an unsampled log do both.
// The allocation counts come from this binary's replacement operator new.
// Registered as a ctest (label: observability) — exits 1 on violation.
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include "core/prophet.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "report/experiment.hpp"
#include "tree/compress.hpp"
#include "util/rng.hpp"
#include "workloads/test_patterns.hpp"

using namespace pprophet;

namespace {

std::atomic<std::uint64_t> g_allocations{0};

/// Metric names registered and events recorded in the global registry.
struct Tally {
  std::uint64_t names = 0;
  std::uint64_t records = 0;
};

Tally registry_tally() {
  const obs::MetricsSnapshot s = obs::MetricsRegistry::global().snapshot();
  Tally t;
  t.names = s.counters.size() + s.gauges.size() + s.timers.size() +
            s.histograms.size();
  for (const auto& [name, v] : s.counters) t.records += v;
  for (const auto& [name, v] : s.timers) t.records += v.count;
  for (const auto& [name, v] : s.histograms) t.records += v.count;
  return t;
}

/// What one arm did: registry movement and heap allocations.
struct Arm {
  std::uint64_t new_names = 0;
  std::uint64_t new_records = 0;
  std::uint64_t allocations = 0;
};

template <class Work>
Arm measure(bool enabled, Work&& work) {
  obs::set_enabled(enabled);
  const Tally before = registry_tally();
  const std::uint64_t a0 = g_allocations.load();
  work();
  const std::uint64_t a1 = g_allocations.load();
  obs::set_enabled(false);
  const Tally after = registry_tally();
  return {after.names - before.names, after.records - before.records,
          a1 - a0};
}

void print_arms(const char* what, const Arm& dis, const Arm& ena) {
  std::cout << what << ": disabled " << dis.new_names << " names, "
            << dis.new_records << " records, " << dis.allocations
            << " allocations; enabled " << ena.new_names << " names, "
            << ena.new_records << " records, " << ena.allocations
            << " allocations\n";
}

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

int main() {
  report::print_header(std::cout,
                       "Observability overhead — disabled instrumentation "
                       "vs enabled, counted");
  int rc = 0;

  util::Xoshiro256 rng(2012);
  tree::ProgramTree t = workloads::run_test2(workloads::random_test2(rng));
  tree::compress(t);
  const core::PredictOptions po =
      report::paper_options(core::Method::FastForward);
  const auto predict_loop = [&] {
    for (const CoreCount n : {2u, 4u, 8u, 12u}) {
      (void)core::predict(t, n, po);
    }
  };

  // Warm-up with metrics off, so one-time allocations of the prediction
  // path land in neither arm. The disabled arm runs before any name is
  // registered, so the enabled arm pays every registration.
  obs::set_enabled(false);
  predict_loop();
  const Arm sweep_dis = measure(false, predict_loop);
  const Arm sweep_ena = measure(true, predict_loop);
  print_arms("FF predict loop", sweep_dis, sweep_ena);
  if (sweep_dis.new_names != 0 || sweep_dis.new_records != 0 ||
      sweep_ena.new_names == 0 || sweep_ena.new_records == 0 ||
      sweep_dis.allocations >= sweep_ena.allocations) {
    std::cout << "FAIL: the disabled prediction path touched the registry "
                 "or allocated as much as the instrumented one — an "
                 "obs::enabled() guard is gone\n";
    rc = 1;
  }

  // --- Histogram guard: obs::hist_record on a name nothing else uses.
  constexpr std::uint64_t kHistCalls = 10000;
  const auto hist_loop = [] {
    for (std::uint64_t i = 0; i < kHistCalls; ++i) {
      obs::hist_record("bench.hist_us", i & 0xFFFF);
    }
  };
  const Arm hist_dis = measure(false, hist_loop);
  const Arm hist_ena = measure(true, hist_loop);
  print_arms("hist_record", hist_dis, hist_ena);
  if (hist_dis.new_names != 0 || hist_dis.new_records != 0 ||
      hist_dis.allocations != 0 || hist_ena.new_names != 1 ||
      hist_ena.new_records != kHistCalls) {
    std::cout << "FAIL: disabled hist_record registered, recorded or "
                 "allocated — the enabled() guard is gone\n";
    rc = 1;
  }

  // --- EventLog: after the one admitted record, a 1-in-2^30 sampled log
  // drops every Info record before formatting it.
  constexpr std::uint64_t kLogWrites = 1000;
  obs::LogRecord rec("bench");
  rec.u64("i", 42);
  struct LogArm {
    std::uint64_t written = 0, sampled_out = 0, bytes = 0, allocations = 0;
  };
  const auto log_arm = [&](obs::EventLog::Options opts) {
    std::ostringstream sink;
    obs::EventLog log(sink, opts);
    log.write(obs::Severity::Info, rec);  // admitted by either log
    const auto bytes0 = sink.tellp();
    const std::uint64_t a0 = g_allocations.load();
    for (std::uint64_t i = 1; i < kLogWrites; ++i) {
      log.write(obs::Severity::Info, rec);
    }
    const std::uint64_t allocations = g_allocations.load() - a0;
    return LogArm{log.written(), log.sampled_out(),
                  static_cast<std::uint64_t>(sink.tellp() - bytes0),
                  allocations};
  };
  obs::EventLog::Options skip_all;
  skip_all.sample_every = 1u << 30;
  const LogArm skip = log_arm(skip_all);
  const LogArm write = log_arm({});
  for (const auto& [name, arm] : {std::pair{"sampled", skip},
                                  std::pair{"unsampled", write}}) {
    std::cout << "event_log " << name << ": " << arm.written << " written, "
              << arm.sampled_out << " sampled out; the last "
              << kLogWrites - 1 << " writes added " << arm.bytes
              << " sink bytes, " << arm.allocations << " allocations\n";
  }
  if (skip.written != 1 || skip.sampled_out != kLogWrites - 1 ||
      skip.bytes != 0 || skip.allocations != 0 ||
      write.written != kLogWrites || write.bytes == 0 ||
      write.allocations == 0) {
    std::cout << "FAIL: a sampled-out log record was formatted or written — "
                 "the sampling gate is gone\n";
    rc = 1;
  }

  if (rc == 0) {
    std::cout << "OK: every disabled path did strictly less work than its "
                 "enabled twin\n";
  }
  return rc;
}
