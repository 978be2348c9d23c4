#include "tree/compress.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "tree/builder.hpp"
#include "tree/tree_stats.hpp"

namespace pprophet::tree {
namespace {

bool lengths_close(Cycles a, Cycles b, double tolerance) {
  if (a == b) return true;
  const double hi = static_cast<double>(std::max(a, b));
  const double lo = static_cast<double>(std::min(a, b));
  if (hi == 0.0) return true;
  return (hi - lo) / hi <= tolerance;
}

double length_deviation(Cycles a, Cycles b) {
  const double hi = static_cast<double>(std::max(a, b));
  const double lo = static_cast<double>(std::min(a, b));
  return hi == 0.0 ? 0.0 : (hi - lo) / hi;
}

bool equal_impl(const Node& a, const Node& b, double tolerance,
                double* max_dev, bool ignore_top_repeat = false) {
  if (a.kind() != b.kind()) return false;
  if (a.lock_id() != b.lock_id()) return false;
  if (a.barrier_at_end() != b.barrier_at_end()) return false;
  if (!ignore_top_repeat && a.repeat() != b.repeat()) return false;
  if (a.children().size() != b.children().size()) return false;
  if (!lengths_close(a.length(), b.length(), tolerance)) return false;
  if (max_dev != nullptr) {
    *max_dev = std::max(*max_dev, length_deviation(a.length(), b.length()));
  }
  for (std::size_t i = 0; i < a.children().size(); ++i) {
    if (!equal_impl(*a.child(i), *b.child(i), tolerance, max_dev)) {
      return false;
    }
  }
  return true;
}

// Averages the lengths of `src` into `dst` with weight: dst keeps
// dst_weight prior merges, src contributes src_weight.
void merge_lengths(Node& dst, const Node& src, std::uint64_t dst_weight,
                   std::uint64_t src_weight) {
  const double total = static_cast<double>(dst_weight + src_weight);
  const double avg =
      (static_cast<double>(dst.length()) * static_cast<double>(dst_weight) +
       static_cast<double>(src.length()) * static_cast<double>(src_weight)) /
      total;
  dst.set_length(static_cast<Cycles>(std::llround(avg)));
  for (std::size_t i = 0; i < dst.children().size(); ++i) {
    merge_lengths(*dst.mutable_children()[i], *src.child(i), dst_weight,
                  src_weight);
  }
}

void compress_node(Node& node, const CompressOptions& opts,
                   CompressStats& stats) {
  for (auto& c : node.mutable_children()) {
    compress_node(*c, opts, stats);
  }
  auto& kids = node.mutable_children();
  if (kids.size() < 2) return;
  std::vector<NodePtr> merged;
  merged.reserve(kids.size());
  for (auto& kid : kids) {
    if (!merged.empty()) {
      Node& prev = *merged.back();
      double dev = 0.0;
      const bool exact =
          equal_impl(prev, *kid, opts.tolerance, &dev, /*ignore_top_repeat=*/true);
      bool forced = false;
      if (!exact && opts.lossy) {
        dev = 0.0;
        forced = equal_impl(prev, *kid, opts.lossy_tolerance, &dev,
                            /*ignore_top_repeat=*/true);
      }
      if (exact || forced) {
        // Weighted-average the lengths and bump the repeat count. The
        // repeat() of the children inside the pattern is part of the
        // structural signature, so only the top-level repeat changes.
        const std::uint64_t prev_rep = prev.repeat();
        const std::uint64_t kid_rep = kid->repeat();
        merge_lengths(prev, *kid, prev_rep, kid_rep);
        prev.set_repeat(prev_rep + kid_rep);
        stats.max_absorbed_deviation =
            std::max(stats.max_absorbed_deviation, dev);
        ++stats.rle_merges;
        if (forced) stats.lossy_merges = true;
        continue;
      }
    }
    merged.push_back(std::move(kid));
  }
  kids = std::move(merged);
}

}  // namespace

bool structurally_equal(const Node& a, const Node& b, double tolerance) {
  return equal_impl(a, b, tolerance, nullptr);
}

bool try_rle_merge(Node& prev, const Node& next, double tolerance) {
  if (!equal_impl(prev, next, tolerance, nullptr, /*ignore_top_repeat=*/true)) {
    return false;
  }
  const std::uint64_t prev_rep = prev.repeat();
  const std::uint64_t next_rep = next.repeat();
  merge_lengths(prev, next, prev_rep, next_rep);
  prev.set_repeat(prev_rep + next_rep);
  return true;
}

CompressStats compress(ProgramTree& tree, const CompressOptions& opts) {
  CompressStats stats;
  if (!tree.root) return stats;
  {
    const TreeStats before = compute_stats(tree);
    stats.nodes_before = before.physical_nodes;
    stats.bytes_before = before.approx_bytes;
  }
  // A merged pattern's top-level repeat must be mergeable, so normalize:
  // equal_impl treats repeat() as structural below the merge point, which is
  // exactly the paper's RLE over sibling iterations.
  compress_node(*tree.root, opts, stats);
  {
    const TreeStats after = compute_stats(tree);
    stats.nodes_after = after.physical_nodes;
    stats.bytes_after = after.approx_bytes;
  }
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("compress.runs").add(1);
    reg.counter("compress.rle_merges").add(stats.rle_merges);
    reg.counter("compress.nodes_before").add(stats.nodes_before);
    reg.counter("compress.nodes_after").add(stats.nodes_after);
    reg.counter("compress.bytes_before").add(stats.bytes_before);
    reg.counter("compress.bytes_after").add(stats.bytes_after);
    if (stats.lossy_merges) reg.counter("compress.lossy_runs").add(1);
  }
  return stats;
}

std::size_t PackedTree::approx_bytes() const {
  std::size_t bytes = sizeof(PackedTree);
  for (const Pattern& p : dictionary) {
    bytes += sizeof(Pattern) + p.children.capacity() * sizeof(Ref);
  }
  bytes += top.capacity() * sizeof(Ref);
  bytes += top_counters.capacity() *
           sizeof(std::pair<std::uint32_t, SectionCounters>);
  for (const auto& entry : top_reuse) {
    bytes += sizeof entry + entry.second.buckets.capacity() *
                                sizeof(std::uint64_t);
  }
  return bytes;
}

namespace {

// Canonical text signature of a pattern for dictionary deduplication.
std::string pattern_key(const PackedTree::Pattern& p) {
  std::string key;
  key += std::to_string(static_cast<int>(p.kind));
  key += ':';
  key += std::to_string(p.length);
  key += ':';
  key += std::to_string(p.lock_id);
  key += ':';
  key += p.barrier ? '1' : '0';
  for (const auto& r : p.children) {
    key += ',';
    key += std::to_string(r.pattern);
    key += 'x';
    key += std::to_string(r.repeat);
  }
  return key;
}

struct Packer {
  PackedTree out;
  std::unordered_map<std::string, std::uint32_t> index;
  std::size_t interned = 0;  ///< total intern() calls (dedup hit accounting)

  std::uint32_t intern(const Node& n) {
    ++interned;
    PackedTree::Pattern p;
    p.kind = n.kind();
    p.length = n.length();
    p.lock_id = n.lock_id();
    p.barrier = n.barrier_at_end();
    p.children.reserve(n.children().size());
    for (const auto& c : n.children()) {
      p.children.push_back({intern(*c), c->repeat()});
    }
    const std::string key = pattern_key(p);
    if (const auto it = index.find(key); it != index.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(out.dictionary.size());
    out.dictionary.push_back(std::move(p));
    index.emplace(key, id);
    return id;
  }
};

NodePtr expand(const PackedTree& packed, const PackedTree::Ref& ref) {
  if (ref.pattern >= packed.dictionary.size()) {
    throw std::runtime_error("PackedTree: dangling pattern reference");
  }
  const auto& p = packed.dictionary[ref.pattern];
  auto node = std::make_unique<Node>(p.kind, "");
  node->set_length(p.length);
  node->set_lock_id(p.lock_id);
  node->set_barrier_at_end(p.barrier);
  node->set_repeat(ref.repeat);
  for (const auto& child_ref : p.children) {
    node->add_child(expand(packed, child_ref));
  }
  return node;
}

}  // namespace

PackedTree pack(const ProgramTree& tree) {
  Packer packer;
  if (tree.root) {
    for (const auto& c : tree.root->children()) {
      if (c->counters() != nullptr) {
        packer.out.top_counters.emplace_back(
            static_cast<std::uint32_t>(packer.out.top.size()), *c->counters());
      }
      if (c->reuse_profile() != nullptr) {
        packer.out.top_reuse.emplace_back(
            static_cast<std::uint32_t>(packer.out.top.size()),
            *c->reuse_profile());
      }
      packer.out.top.push_back({packer.intern(*c), c->repeat()});
    }
  }
  if (obs::enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("compress.dict_patterns").add(packer.out.dictionary.size());
    // Interned subtrees that resolved to an existing dictionary entry.
    reg.counter("compress.dict_hits")
        .add(packer.interned - packer.out.dictionary.size());
  }
  return std::move(packer.out);
}

ProgramTree unpack(const PackedTree& packed) {
  ProgramTree tree;
  tree.root = std::make_unique<Node>(NodeKind::Root, "root");
  for (const auto& ref : packed.top) {
    tree.root->add_child(expand(packed, ref));
  }
  for (const auto& [idx, counters] : packed.top_counters) {
    if (idx >= tree.root->children().size()) {
      throw std::runtime_error("PackedTree: counters index out of range");
    }
    tree.root->child(idx)->set_counters(counters);
  }
  for (const auto& [idx, hist] : packed.top_reuse) {
    if (idx >= tree.root->children().size()) {
      throw std::runtime_error("PackedTree: reuse index out of range");
    }
    tree.root->child(idx)->set_reuse_profile(hist);
  }
  fill_aggregate_lengths(*tree.root);
  return tree;
}

UnpackedExtent measure_unpacked(const PackedTree& packed) {
  struct Totals {
    std::uint64_t nodes = 1;
    std::uint64_t depth = 1;
    Cycles work = 0;  ///< serial work of one instance (repeat 1)
  };
  UnpackedExtent out;
  const auto add = [&](std::uint64_t& acc, std::uint64_t v) {
    if (__builtin_add_overflow(acc, v, &acc)) out.overflow = true;
  };
  const auto add_times = [&](std::uint64_t& acc, std::uint64_t v,
                             std::uint64_t times) {
    std::uint64_t product = 0;
    if (__builtin_mul_overflow(v, times, &product)) out.overflow = true;
    add(acc, product);
  };
  const std::vector<PackedTree::Pattern>& dict = packed.dictionary;
  std::vector<Totals> memo(dict.size());
  for (std::size_t i = 0; i < dict.size() && !out.overflow; ++i) {
    const PackedTree::Pattern& p = dict[i];
    const bool leaf = p.kind == NodeKind::U || p.kind == NodeKind::L;
    Totals& t = memo[i];
    if (leaf) t.work = p.length;
    for (const PackedTree::Ref& c : p.children) {
      if (c.pattern >= i) {
        throw std::runtime_error("PackedTree: forward pattern reference");
      }
      const Totals& ct = memo[c.pattern];
      add(t.nodes, ct.nodes);
      t.depth = std::max(t.depth, ct.depth + 1);
      if (!leaf) add_times(t.work, ct.work, c.repeat);
    }
  }
  out.nodes = 1;
  out.depth = 1;
  for (const PackedTree::Ref& ref : packed.top) {
    if (out.overflow) return out;
    if (ref.pattern >= dict.size()) {
      throw std::runtime_error("PackedTree: dangling pattern reference");
    }
    const Totals& t = memo[ref.pattern];
    add(out.nodes, t.nodes);
    out.depth = std::max(out.depth, t.depth + 1);
    add_times(out.serial_cycles, t.work, ref.repeat);
  }
  return out;
}

}  // namespace pprophet::tree
