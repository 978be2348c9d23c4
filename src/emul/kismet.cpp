#include "emul/kismet.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace pprophet::emul {
namespace {

using tree::Node;
using tree::NodeKind;

struct PathInfo {
  Cycles work = 0;  ///< total cycles in the subtree
  Cycles span = 0;  ///< critical path of the subtree
  /// Per-lock serialized demand inside the subtree: any schedule must run
  /// all critical sections of one lock back to back.
  std::map<LockId, Cycles> lock_demand;

  /// Absorbs `repeat` copies of `child`, side by side when `parallel`,
  /// else back to back: the closed form of absorbing it `repeat` times.
  void absorb(const PathInfo& child, std::uint64_t repeat, bool parallel) {
    if (repeat == 0) return;
    work += repeat * child.work;
    span = parallel ? std::max(span, child.span) : span + repeat * child.span;
    for (const auto& [id, c] : child.lock_demand) lock_demand[id] += repeat * c;
  }
};

PathInfo analyze(const Node& node) {
  PathInfo info;
  switch (node.kind()) {
    case NodeKind::U: {
      info.work = info.span = node.length();
      break;
    }
    case NodeKind::L: {
      info.work = info.span = node.length();
      info.lock_demand[node.lock_id()] = node.length();
      break;
    }
    case NodeKind::Task:
    case NodeKind::Root: {
      for (const auto& c : node.children()) {
        info.absorb(analyze(*c), c->repeat(), /*parallel=*/false);
      }
      break;
    }
    case NodeKind::Sec: {
      PathInfo inner;
      for (const auto& c : node.children()) {
        inner.absorb(analyze(*c), c->repeat(), /*parallel=*/true);
      }
      // Lock serialization can dominate the parallel span.
      for (const auto& [id, demand] : inner.lock_demand) {
        inner.span = std::max(inner.span, demand);
      }
      info = inner;
      break;
    }
  }
  return info;
}

}  // namespace

double KismetResult::bound(CoreCount threads) const {
  if (threads == 0 || serial_cycles == 0) return 0.0;
  const double span_limited = static_cast<double>(critical_path);
  const double work_limited = static_cast<double>(serial_cycles) /
                              static_cast<double>(threads);
  const double time = std::max(span_limited, work_limited);
  return static_cast<double>(serial_cycles) / std::max(1.0, time);
}

double KismetResult::self_parallelism() const {
  return critical_path == 0
             ? 0.0
             : static_cast<double>(serial_cycles) /
                   static_cast<double>(critical_path);
}

KismetResult analyze_kismet(const tree::ProgramTree& tree) {
  if (!tree.root) throw std::invalid_argument("kismet: empty tree");
  const PathInfo info = analyze(*tree.root);
  KismetResult r;
  r.serial_cycles = info.work;
  r.critical_path = info.span;
  return r;
}

}  // namespace pprophet::emul
