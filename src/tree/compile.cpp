#include "tree/compile.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "util/fnv.hpp"

namespace pprophet::tree {
namespace {

using util::Fnv64;

[[noreturn]] void bad_tree(const std::string& what) {
  throw std::invalid_argument("compile: " + what);
}

void check_child_kind(NodeKind parent, NodeKind child) {
  switch (parent) {
    case NodeKind::Root:
      if (child == NodeKind::Sec || child == NodeKind::U) return;
      bad_tree("Root child must be Sec or U, got " +
               std::string(to_string(child)));
    case NodeKind::Sec:
      if (child == NodeKind::Task) return;
      bad_tree("Sec child must be Task, got " + std::string(to_string(child)));
    case NodeKind::Task:
      if (child == NodeKind::U || child == NodeKind::L ||
          child == NodeKind::Sec) {
        return;
      }
      bad_tree("Task child must be U, L or Sec, got " +
               std::string(to_string(child)));
    case NodeKind::U:
    case NodeKind::L:
      bad_tree(std::string(to_string(parent)) + " must be a leaf");
  }
  bad_tree("unknown parent kind");
}

}  // namespace

NodeId CompiledTree::TaskTable::task_at(std::uint64_t i) const {
  const auto begin = ct->run_cum_.begin() + offset;
  const auto end = begin + runs;
  const auto it = std::upper_bound(begin, end, i);
  return ct->run_task_[static_cast<std::size_t>(it - ct->run_cum_.begin())];
}

NodeId CompiledTree::TaskTable::run_task(std::uint32_t r) const {
  return ct->run_task_[offset + r];
}

std::uint64_t CompiledTree::TaskTable::run_cum(std::uint32_t r) const {
  return ct->run_cum_[offset + r];
}

std::uint64_t CompiledTree::TaskTable::run_trips(std::uint32_t r) const {
  const std::uint64_t cum = ct->run_cum_[offset + r];
  return r == 0 ? cum : cum - ct->run_cum_[offset + r - 1];
}

CompiledTree::TaskTable CompiledTree::tasks_of(NodeId sec) const {
  const TableRec& t = tables_[table_idx_[sec]];
  return TaskTable{this, t.offset, t.runs, t.trips};
}

double CompiledTree::section_burden(std::uint32_t s, CoreCount threads) const {
  for (const auto& [t, beta] : sections_[s].burdens) {
    if (t == threads) return beta;
  }
  return 1.0;
}

CompiledTree CompiledTree::compile(const ProgramTree& tree) {
  if (!tree.root) bad_tree("empty tree");
  if (tree.root->kind() != NodeKind::Root) bad_tree("root is not a Root node");
  const std::size_t total = tree.root->subtree_size();
  if (total > std::numeric_limits<NodeId>::max() - 1) {
    bad_tree("tree too large for 32-bit node ids");
  }

  CompiledTree ct;
  ct.kinds_.reserve(total);
  ct.lengths_.reserve(total);
  ct.lock_ids_.reserve(total);
  ct.lock_slots_.reserve(total);
  ct.repeats_.reserve(total);
  ct.barriers_.reserve(total);
  ct.first_child_.reserve(total);
  ct.next_sibling_.reserve(total);
  ct.table_idx_.reserve(total);
  ct.section_idx_.reserve(total);

  std::unordered_map<LockId, std::uint32_t> lock_map;

  // Preorder emission: a node's record is appended before its children's,
  // so the root is id 0 and every first_child/next_sibling link points
  // forward. Also builds the per-Sec run tables (the RLE expansion of each
  // Sec's Task children into logical iterations) in the same pass.
  const auto emit = [&](auto&& self, const Node& n) -> NodeId {
    const NodeId id = static_cast<NodeId>(ct.kinds_.size());
    ct.kinds_.push_back(n.kind());
    ct.lengths_.push_back(n.length());
    ct.lock_ids_.push_back(n.lock_id());
    // Kept verbatim: repeat 0 means "executes zero times" to every walker,
    // and the run tables handle the zero-width segment naturally.
    ct.repeats_.push_back(n.repeat());
    ct.barriers_.push_back(n.barrier_at_end() ? 1 : 0);
    ct.first_child_.push_back(kNoNode);
    ct.next_sibling_.push_back(kNoNode);
    ct.table_idx_.push_back(kNoSection);
    ct.section_idx_.push_back(kNoSection);
    if (n.kind() == NodeKind::L) {
      const auto [it, inserted] =
          lock_map.try_emplace(n.lock_id(),
                               static_cast<std::uint32_t>(lock_map.size()));
      ct.lock_slots_.push_back(it->second);
    } else {
      ct.lock_slots_.push_back(kNoLock);
    }

    NodeId prev = kNoNode;
    for (const auto& child : n.children()) {
      check_child_kind(n.kind(), child->kind());
      const NodeId cid = self(self, *child);
      if (prev == kNoNode) {
        ct.first_child_[id] = cid;
      } else {
        ct.next_sibling_[prev] = cid;
      }
      prev = cid;
    }

    if (n.kind() == NodeKind::Sec) {
      TableRec rec;
      rec.offset = static_cast<std::uint32_t>(ct.run_cum_.size());
      std::uint64_t cum = 0;
      for (NodeId c = ct.first_child_[id]; c != kNoNode;
           c = ct.next_sibling_[c]) {
        cum += ct.repeats_[c];
        ct.run_cum_.push_back(cum);
        ct.run_task_.push_back(c);
      }
      rec.runs = static_cast<std::uint32_t>(ct.run_cum_.size()) - rec.offset;
      rec.trips = cum;
      ct.table_idx_[id] = static_cast<std::uint32_t>(ct.tables_.size());
      ct.tables_.push_back(rec);
    }
    return id;
  };
  emit(emit, *tree.root);
  ct.lock_count_ = lock_map.size();

  // Block layout: per-Sec classification flags for the batched emulator
  // (emul/ff.cpp). Derived data only — the digest pass below never reads
  // it.
  ct.sec_flags_.assign(ct.tables_.size(), SecBlockFlags{});
  struct SubFlags {
    bool lock = false;
    bool nested = false;
  };
  const auto scan = [&](auto&& self, NodeId n) -> SubFlags {
    SubFlags f;
    for (NodeId c = ct.first_child_[n]; c != kNoNode;
         c = ct.next_sibling_[c]) {
      const SubFlags cf = self(self, c);
      f.lock = f.lock || cf.lock || ct.kinds_[c] == NodeKind::L;
      f.nested = f.nested || cf.nested || ct.kinds_[c] == NodeKind::Sec;
    }
    if (ct.kinds_[n] == NodeKind::Sec) {
      SecBlockFlags& out = ct.sec_flags_[ct.table_idx_[n]];
      out.subtree_has_lock = f.lock ? 1 : 0;
      out.subtree_has_nested = f.nested ? 1 : 0;
      bool flat = true;
      for (NodeId task = ct.first_child_[n]; task != kNoNode;
           task = ct.next_sibling_[task]) {
        for (NodeId c = ct.first_child_[task]; c != kNoNode;
             c = ct.next_sibling_[c]) {
          if (ct.kinds_[c] != NodeKind::U) flat = false;
        }
      }
      out.tasks_flat = flat ? 1 : 0;
    }
    return f;
  };
  scan(scan, 0);

  // Per-top-level-section digests and aggregates. The digest covers the
  // full semantic content of the section — everything any emulator reads —
  // in a fixed preorder encoding; node *names* are deliberately excluded
  // (they never influence emulation).
  const auto digest_subtree = [&](auto&& self, Fnv64& d, NodeId n) -> void {
    d.u64(static_cast<std::uint64_t>(ct.kinds_[n]));
    d.u64(ct.lengths_[n]);
    d.u64(ct.kinds_[n] == NodeKind::L ? ct.lock_ids_[n] : 0);
    d.u64(ct.repeats_[n]);
    d.byte(ct.barriers_[n]);
    std::uint64_t child_count = 0;
    for (NodeId c = ct.first_child_[n]; c != kNoNode; c = ct.next_sibling_[c]) {
      ++child_count;
    }
    d.u64(child_count);
    for (NodeId c = ct.first_child_[n]; c != kNoNode; c = ct.next_sibling_[c]) {
      self(self, d, c);
    }
  };

  // Aggregates for one repetition of a subtree (the node's own repeat is
  // excluded at the section level, counted for everything below).
  struct Sums {
    Cycles leaf_work = 0;
    Cycles lock_cycles = 0;
  };
  const auto sum_subtree = [&](auto&& self, NodeId n) -> Sums {
    Sums s;
    if (ct.kinds_[n] == NodeKind::U) {
      s.leaf_work = ct.lengths_[n];
    } else if (ct.kinds_[n] == NodeKind::L) {
      s.leaf_work = ct.lengths_[n];
      s.lock_cycles = ct.lengths_[n];
    } else {
      for (NodeId c = ct.first_child_[n]; c != kNoNode;
           c = ct.next_sibling_[c]) {
        const Sums cs = self(self, c);
        s.leaf_work += cs.leaf_work * ct.repeats_[c];
        s.lock_cycles += cs.lock_cycles * ct.repeats_[c];
      }
    }
    return s;
  };

  Fnv64 tree_digest;
  tree_digest.u64(ct.lengths_[0]);  // the measured serial denominator
  std::uint32_t child_index = 0;
  for (NodeId c = ct.first_child_[0]; c != kNoNode;
       c = ct.next_sibling_[c], ++child_index) {
    if (ct.kinds_[c] == NodeKind::U) {
      ct.top_u_cycles_ += ct.lengths_[c] * ct.repeats_[c];
      tree_digest.u64(0x55);  // top-level U tag
      tree_digest.u64(ct.lengths_[c]);
      tree_digest.u64(ct.repeats_[c]);
      continue;
    }
    SectionInfo info;
    info.node = c;
    const Node* src = tree.root->child(child_index);
    info.name = src->name();
    info.burdens = src->burdens();
    if (src->counters() != nullptr) info.counters = *src->counters();

    Fnv64 d;
    digest_subtree(digest_subtree, d, c);
    if (info.counters) {
      d.byte(1);
      d.u64(info.counters->instructions);
      d.u64(info.counters->cycles);
      d.u64(info.counters->llc_misses);
      d.u64(info.counters->llc_writebacks);
    } else {
      d.byte(0);
    }
    // Burden tables are semantically a map keyed by thread count (set_burden
    // keeps keys unique); digest in sorted-key order so insertion order
    // cannot split otherwise-identical sections.
    auto sorted = info.burdens;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    d.u64(sorted.size());
    for (const auto& [t, beta] : sorted) {
      d.u64(t);
      d.f64(beta);
    }
    // Reuse profile, appended only when present: two same-shaped sections
    // with different memory signatures must not share serve-cache entries,
    // while every profile-less tree keeps its pre-reuse digest.
    if (const reuse::ReuseHistogram* h = src->reuse_profile()) {
      d.u64(h->config.line_bytes);
      d.u64(h->config.omega);
      d.u64(h->config.l1_bytes);
      d.u64(h->config.l1_ways);
      d.u64(h->config.l2_bytes);
      d.u64(h->config.l2_ways);
      d.u64(h->config.llc_bytes);
      d.u64(h->config.llc_ways);
      d.u64(h->cold);
      d.u64(h->writes);
      d.u64(h->buckets.size());
      for (const std::uint64_t n : h->buckets) d.u64(n);
    }
    info.digest = d.h;

    const TableRec& table = ct.tables_[ct.table_idx_[c]];
    info.aggregates.task_count = table.trips;
    const Sums sums = sum_subtree(sum_subtree, c);
    info.aggregates.total_leaf_work = sums.leaf_work;
    info.aggregates.lock_cycles = sums.lock_cycles;
    for (std::uint32_t r = 0; r < table.runs; ++r) {
      const NodeId task = ct.run_task_[table.offset + r];
      info.aggregates.max_task_length = std::max(
          info.aggregates.max_task_length,
          sum_subtree(sum_subtree, task).leaf_work);
    }

    tree_digest.u64(0x5E);  // top-level Sec tag
    tree_digest.u64(info.digest);
    tree_digest.u64(ct.repeats_[c]);
    ct.section_idx_[c] = static_cast<std::uint32_t>(ct.sections_.size());
    ct.sections_.push_back(std::move(info));
  }
  ct.tree_digest_ = tree_digest.h;

  // Serial denominator: measured root length, else leaf-work sum — the
  // same rule as core::serial_cycles_of (Node::serial_work counts the
  // root's own repeat too, so mirror it).
  Cycles leaf_sum = 0;
  for (NodeId c = ct.first_child_[0]; c != kNoNode; c = ct.next_sibling_[c]) {
    leaf_sum += sum_subtree(sum_subtree, c).leaf_work * ct.repeats_[c];
  }
  ct.serial_cycles_ =
      ct.lengths_[0] != 0 ? ct.lengths_[0] : leaf_sum * ct.repeats_[0];
  return ct;
}

}  // namespace pprophet::tree
