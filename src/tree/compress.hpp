// Program-tree compression (paper §VI-B).
//
// A raw program tree stores one Task node per dynamic loop iteration, which
// the paper reports can reach 13.5 GB (NPB-CG class B). Two techniques cut
// this down:
//
//  * RLE: consecutive sibling subtrees that are structurally identical and
//    whose node lengths agree within a tolerance (the paper allows 5%
//    variation to count as "the same length") are merged into a single child
//    with an increased repeat() count, lengths averaged.
//  * Dictionary packing: identical non-adjacent subtrees are stored once in
//    a pattern dictionary, with the tree flattened to (pattern id, repeat)
//    references. Order is preserved, so scheduling-sensitive emulation is
//    unaffected. PackedTree is the storage/measurement form; emulators walk
//    the normal Node tree.
//
// Lossy mode: when sibling lengths vary beyond the tolerance, merging can be
// forced ("last resort" in the paper); the result records the maximum
// relative deviation that was absorbed.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "tree/node.hpp"

namespace pprophet::tree {

struct CompressOptions {
  /// Relative length tolerance under which sibling subtrees are considered
  /// equal. Paper default: 5%.
  double tolerance = 0.05;
  /// Allow merging beyond the tolerance (lossy compression).
  bool lossy = false;
  /// In lossy mode, the tolerance actually applied.
  double lossy_tolerance = 0.50;
};

struct CompressStats {
  std::size_t nodes_before = 0;
  std::size_t nodes_after = 0;
  std::size_t bytes_before = 0;
  std::size_t bytes_after = 0;
  std::size_t rle_merges = 0;  ///< sibling-subtree merges performed
  double max_absorbed_deviation = 0.0;  ///< worst relative length deviation merged
  bool lossy_merges = false;

  double node_reduction() const {
    return nodes_before == 0
               ? 0.0
               : 1.0 - static_cast<double>(nodes_after) /
                           static_cast<double>(nodes_before);
  }
};

/// In-place RLE compression of the whole tree. Returns before/after stats.
CompressStats compress(ProgramTree& tree, const CompressOptions& opts = {});

/// True when the two subtrees are structurally identical (kind, lock ids,
/// barrier flags, child shapes, repeats) and every node length matches within
/// `tolerance` relative deviation.
bool structurally_equal(const Node& a, const Node& b, double tolerance);

/// Attempts to RLE-merge `next` into `prev` as if they were consecutive
/// siblings (the top-level repeat counts may differ). On success, `prev`'s
/// lengths become the weighted average, its repeat the sum, and true is
/// returned; on failure nothing changes. Used by the profiler's online
/// compression.
bool try_rle_merge(Node& prev, const Node& next, double tolerance);

/// Dictionary-packed storage form. Patterns are unique subtree shapes; the
/// sequence lists the root's children as pattern references.
struct PackedTree {
  struct Ref {
    std::uint32_t pattern = 0;
    std::uint64_t repeat = 1;
  };
  struct Pattern {
    NodeKind kind = NodeKind::U;
    Cycles length = 0;
    LockId lock_id = 0;
    bool barrier = true;
    std::vector<Ref> children;
  };
  std::vector<Pattern> dictionary;
  std::vector<Ref> top;
  /// Per-instance memory counters of top-level sections (paper §IV-B),
  /// keyed by index into `top`, sorted ascending. Patterns dedupe by shape,
  /// so counters — which differ between same-shaped sections — live on the
  /// instance refs, not the dictionary. Empty for unprofiled trees.
  std::vector<std::pair<std::uint32_t, SectionCounters>> top_counters;
  /// Per-instance reuse-distance histograms (reuse/collector.hpp), same
  /// keying and ordering as `top_counters`. Empty unless reuse profiling
  /// ran; their presence selects PPTB format v3 (tree/binary.hpp).
  std::vector<std::pair<std::uint32_t, reuse::ReuseHistogram>> top_reuse;

  std::size_t approx_bytes() const;
};

/// Packs a (typically already RLE-compressed) tree into dictionary form.
PackedTree pack(const ProgramTree& tree);

/// Expands a PackedTree back to a full ProgramTree (names are dropped; the
/// emulators do not use them).
ProgramTree unpack(const PackedTree& packed);

/// Size of the tree unpack() would build, computed from the dictionary in
/// O(dictionary + references) without expanding anything: each pattern's
/// totals are derived once from its children's. A few hundred PPTB bytes
/// can describe billions of nodes, so untrusted input is measured before
/// it is unpacked.
struct UnpackedExtent {
  std::uint64_t nodes = 0;   ///< unpack(packed).node_count()
  std::uint64_t depth = 0;   ///< node levels, root included
  Cycles serial_cycles = 0;  ///< unpack(packed).total_serial_cycles()
  /// A count does not fit in 64 bits; the other fields are then partial.
  bool overflow = false;
};

/// Throws std::runtime_error on dangling or forward pattern references
/// (patterns may only reference earlier entries; pack() and the PPTB
/// reader both guarantee it).
UnpackedExtent measure_unpacked(const PackedTree& packed);

}  // namespace pprophet::tree
