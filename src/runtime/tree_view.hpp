// The tree view behind every emulator.
//
// The FF engine and the OpenMP/Cilk replay bodies read the program tree
// through this small value type: "what are this node's attributes, who are
// its children, what is this section's iteration table". It wraps a
// tree::CompiledTree: node attributes are array loads, section handles are
// borrowed TaskTable views, and lock state is a vector indexed by the dense
// lock slot. Nothing allocates per prediction.
#pragma once

#include <vector>

#include "machine/bodies.hpp"
#include "tree/compile.hpp"

namespace pprophet::runtime {

/// View over a CompiledTree.
struct FlatTreeView {
  const tree::CompiledTree* ct = nullptr;

  using NodeRef = tree::NodeId;
  using ChildCursor = machine::FlatChildWalk;
  using SectionHandle = tree::CompiledTree::TaskTable;
  using LockTable = std::vector<Cycles>;

  ChildCursor children(NodeRef n) const {
    return ChildCursor::children_of(*ct, n);
  }
  bool cursor_done(const ChildCursor& c) const { return c.done(); }
  NodeRef cursor_node(const ChildCursor& c) const { return c.cur; }
  void cursor_advance(ChildCursor& c) const { c.advance(*ct); }

  tree::NodeKind kind(NodeRef n) const { return ct->kind(n); }
  Cycles length(NodeRef n) const { return ct->length(n); }
  std::uint64_t repeat(NodeRef n) const { return ct->repeat(n); }
  LockId lock_id(NodeRef n) const { return ct->lock_id(n); }
  bool barrier_at_end(NodeRef n) const { return ct->barrier_at_end(n); }

  SectionHandle section(NodeRef sec) const { return ct->tasks_of(sec); }
  std::uint64_t trip_count(const SectionHandle& h) const {
    return h.trip_count();
  }
  NodeRef task_at(const SectionHandle& h, std::uint64_t i) const {
    return h.task_at(i);
  }

  double burden(NodeRef sec, CoreCount threads) const {
    const std::uint32_t s = ct->section_of(sec);
    return s == tree::kNoSection ? 1.0 : ct->section_burden(s, threads);
  }
  const tree::SectionCounters* counters(NodeRef sec) const {
    const std::uint32_t s = ct->section_of(sec);
    return s == tree::kNoSection ? nullptr : ct->section_counters(s);
  }

  // Block-friendly run iteration for the batched evaluator (emul/ff.cpp):
  // a Sec's physical Task children (RLE runs) instead of logical
  // iterations, plus its precomputed block-layout flags.
  std::uint32_t run_count(NodeRef sec) const {
    return ct->tasks_of(sec).run_count();
  }
  NodeRef run_task(NodeRef sec, std::uint32_t r) const {
    return ct->tasks_of(sec).run_task(r);
  }
  const tree::SecBlockFlags& block_flags(NodeRef sec) const {
    return ct->sec_block_flags(sec);
  }

  LockTable make_lock_table() const { return LockTable(ct->lock_count(), 0); }
  Cycles& lock_cell(LockTable& t, NodeRef l) const {
    return t[ct->lock_index(l)];
  }
};

}  // namespace pprophet::runtime
