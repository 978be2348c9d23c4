// Helpers shared by the serve integration suites: the sample tree every
// suite uploads, a raw unix-socket connect for byte-level tests, and
// polling on observed server state, so tests order their steps on what the
// server did rather than on sleeps.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "tree/binary.hpp"
#include "tree/compress.hpp"
#include "workloads/test_patterns.hpp"

namespace pprophet::serve {

/// A small compressed Test1 tree, packed to PPTB bytes.
inline std::string sample_pptb() {
  workloads::Test1Params p;
  p.i_max = 16;
  p.lock1_prob = 0.5;
  tree::ProgramTree t = workloads::run_test1(p);
  tree::compress(t);
  return tree::to_binary(tree::pack(t));
}

/// Connected unix-socket fd, or -1.
inline int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls the server's stats until `ready` holds. False after a generous
/// timeout (the caller's assertion then fails instead of hanging).
template <class Ready>
bool wait_for_state(const Server& server, Ready ready) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready(server.stats())) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Requests a worker is executing (the `serve.inflight` gauge).
inline double inflight(const ServerStatsSnapshot& s) {
  for (const auto& [name, v] : s.metrics.gauges) {
    if (name == "serve.inflight") return v;
  }
  return 0.0;
}

/// Waits until `running` requests are executing and `queued` more wait in
/// the admission queue.
inline bool wait_for_load(const Server& server, double running,
                          std::size_t queued) {
  return wait_for_state(server, [&](const ServerStatsSnapshot& s) {
    return inflight(s) == running && s.queue_depth == queued;
  });
}

inline std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace pprophet::serve
