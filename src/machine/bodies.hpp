// Convenience ThreadBody implementations for tests and simple runtime
// components.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "tree/compile.hpp"

namespace pprophet::machine {

/// Forward-only walk over a child range of a CompiledTree. Replay bodies
/// hold one of these per traversal frame, so body generation allocates
/// nothing per prediction.
struct FlatChildWalk {
  tree::NodeId cur = tree::kNoNode;
  tree::NodeId stop = tree::kNoNode;  ///< exclusive sibling bound

  /// All children of `n`, in order.
  static FlatChildWalk children_of(const tree::CompiledTree& ct,
                                   tree::NodeId n) {
    return {ct.first_child(n), tree::kNoNode};
  }
  /// Just `n` itself — lets a single top-level section replay in place,
  /// as the only child of an implicit root.
  static FlatChildWalk single(const tree::CompiledTree& ct, tree::NodeId n) {
    return {n, ct.next_sibling(n)};
  }

  bool done() const { return cur == stop || cur == tree::kNoNode; }
  void advance(const tree::CompiledTree& ct) { cur = ct.next_sibling(cur); }
};

/// Runs a fixed list of ops, then exits.
class ScriptBody final : public ThreadBody {
 public:
  explicit ScriptBody(std::vector<Op> ops) : ops_(std::move(ops)) {}

  std::optional<Op> next(Machine&, ThreadId) override {
    if (next_ >= ops_.size()) return std::nullopt;
    return ops_[next_++];
  }

 private:
  std::vector<Op> ops_;
  std::size_t next_ = 0;
};

/// Delegates to a callable; handy for ad-hoc state machines in tests.
class FuncBody final : public ThreadBody {
 public:
  using Fn = std::function<std::optional<Op>(Machine&, ThreadId)>;
  explicit FuncBody(Fn fn) : fn_(std::move(fn)) {}

  std::optional<Op> next(Machine& m, ThreadId self) override {
    return fn_(m, self);
  }

 private:
  Fn fn_;
};

}  // namespace pprophet::machine
