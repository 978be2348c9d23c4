#include "tree/binary.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace pprophet::tree {
namespace {

constexpr char kMagic[4] = {'P', 'P', 'T', 'B'};
// v1: dictionary + top refs. v2 appends per-instance top-level section
// counters (paper §IV-B), so profiled trees survive the binary round trip
// with everything the memory model needs. v3 appends reuse-distance
// histograms (reuse/histogram.hpp) after the counters trailer, making the
// tree machine-portable (docs/MEMMODEL.md). Writers emit the lowest version
// that can represent the tree — existing trees keep their exact bytes and
// content hashes — and readers accept all three.
constexpr std::uint8_t kVersionPlain = 1;
constexpr std::uint8_t kVersionCounters = 2;
constexpr std::uint8_t kVersionReuse = 3;

void put_u8(std::ostream& os, std::uint8_t v) {
  os.put(static_cast<char>(v));
}

/// LEB128 unsigned varint.
void put_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(os, static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(os, static_cast<std::uint8_t>(v));
}

std::uint8_t get_u8(std::istream& is) {
  const int c = is.get();
  if (c == EOF) throw std::runtime_error("pptb: truncated stream");
  return static_cast<std::uint8_t>(c);
}

std::uint64_t get_varint(std::istream& is) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    const std::uint8_t byte = get_u8(is);
    if (shift >= 63 && (byte & 0x7F) > 1) {
      throw std::runtime_error("pptb: varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

}  // namespace

void write_packed_binary(std::ostream& os, const PackedTree& packed) {
  os.write(kMagic, sizeof kMagic);
  const std::uint8_t version =
      !packed.top_reuse.empty()
          ? kVersionReuse
          : (packed.top_counters.empty() ? kVersionPlain : kVersionCounters);
  put_u8(os, version);
  put_varint(os, packed.dictionary.size());
  for (const PackedTree::Pattern& p : packed.dictionary) {
    put_u8(os, static_cast<std::uint8_t>(p.kind));
    put_u8(os, p.barrier ? 1 : 0);
    put_varint(os, p.length);
    put_varint(os, p.lock_id);
    put_varint(os, p.children.size());
    for (const PackedTree::Ref& r : p.children) {
      put_varint(os, r.pattern);
      put_varint(os, r.repeat);
    }
  }
  put_varint(os, packed.top.size());
  for (const PackedTree::Ref& r : packed.top) {
    put_varint(os, r.pattern);
    put_varint(os, r.repeat);
  }
  if (version >= kVersionCounters) {
    put_varint(os, packed.top_counters.size());
    for (const auto& [idx, c] : packed.top_counters) {
      put_varint(os, idx);
      put_varint(os, c.instructions);
      put_varint(os, c.cycles);
      put_varint(os, c.llc_misses);
      put_varint(os, c.llc_writebacks);
    }
  }
  if (version >= kVersionReuse) {
    put_varint(os, packed.top_reuse.size());
    for (const auto& [idx, h] : packed.top_reuse) {
      put_varint(os, idx);
      put_varint(os, h.config.line_bytes);
      put_varint(os, h.config.omega);
      put_varint(os, h.config.l1_bytes);
      put_varint(os, h.config.l1_ways);
      put_varint(os, h.config.l2_bytes);
      put_varint(os, h.config.l2_ways);
      put_varint(os, h.config.llc_bytes);
      put_varint(os, h.config.llc_ways);
      put_varint(os, h.cold);
      put_varint(os, h.writes);
      put_varint(os, h.buckets.size());
      for (const std::uint64_t n : h.buckets) put_varint(os, n);
    }
  }
  if (!os) throw std::runtime_error("pptb: write failure");
}

PackedTree read_packed_binary(std::istream& is) {
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is || std::string(magic, 4) != std::string(kMagic, 4)) {
    throw std::runtime_error("pptb: bad magic");
  }
  const std::uint8_t version = get_u8(is);
  if (version < kVersionPlain || version > kVersionReuse) {
    throw std::runtime_error("pptb: unsupported version " +
                             std::to_string(version));
  }
  // Counts come from the stream and are untrusted, so nothing is reserved
  // from them: every entry consumes at least one byte, and a count larger
  // than the stream runs out of bytes ("truncated stream") instead of
  // allocating for it.
  PackedTree packed;
  const std::uint64_t dict_size = get_varint(is);
  for (std::uint64_t i = 0; i < dict_size; ++i) {
    PackedTree::Pattern p;
    const std::uint8_t kind = get_u8(is);
    if (kind > static_cast<std::uint8_t>(NodeKind::L)) {
      throw std::runtime_error("pptb: bad node kind");
    }
    p.kind = static_cast<NodeKind>(kind);
    p.barrier = get_u8(is) != 0;
    p.length = get_varint(is);
    p.lock_id = static_cast<LockId>(get_varint(is));
    const std::uint64_t kids = get_varint(is);
    for (std::uint64_t k = 0; k < kids; ++k) {
      PackedTree::Ref r;
      r.pattern = static_cast<std::uint32_t>(get_varint(is));
      r.repeat = get_varint(is);
      // Patterns may only reference earlier entries (the packer interns
      // children before parents), which also rules out cycles.
      if (r.pattern >= i) {
        throw std::runtime_error("pptb: forward pattern reference");
      }
      if (r.repeat == 0) throw std::runtime_error("pptb: zero repeat");
      p.children.push_back(r);
    }
    packed.dictionary.push_back(std::move(p));
  }
  const std::uint64_t top_size = get_varint(is);
  for (std::uint64_t i = 0; i < top_size; ++i) {
    PackedTree::Ref r;
    r.pattern = static_cast<std::uint32_t>(get_varint(is));
    r.repeat = get_varint(is);
    if (r.pattern >= packed.dictionary.size()) {
      throw std::runtime_error("pptb: dangling top-level reference");
    }
    if (r.repeat == 0) throw std::runtime_error("pptb: zero repeat");
    packed.top.push_back(r);
  }
  if (version >= kVersionCounters) {
    const std::uint64_t n = get_varint(is);
    if (n > packed.top.size()) {
      throw std::runtime_error("pptb: more counter records than top refs");
    }
    packed.top_counters.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = get_varint(is);
      if (idx >= packed.top.size() || (i > 0 && idx <= prev)) {
        throw std::runtime_error("pptb: bad counters index");
      }
      prev = idx;
      SectionCounters c;
      c.instructions = get_varint(is);
      c.cycles = get_varint(is);
      c.llc_misses = get_varint(is);
      c.llc_writebacks = get_varint(is);
      packed.top_counters.emplace_back(static_cast<std::uint32_t>(idx), c);
    }
  }
  if (version >= kVersionReuse) {
    const std::uint64_t n = get_varint(is);
    if (n > packed.top.size()) {
      throw std::runtime_error("pptb: more reuse records than top refs");
    }
    packed.top_reuse.reserve(n);
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t idx = get_varint(is);
      if (idx >= packed.top.size() || (i > 0 && idx <= prev)) {
        throw std::runtime_error("pptb: bad reuse index");
      }
      prev = idx;
      reuse::ReuseHistogram h;
      h.config.line_bytes = get_varint(is);
      h.config.omega = get_varint(is);
      h.config.l1_bytes = get_varint(is);
      h.config.l1_ways = get_varint(is);
      h.config.l2_bytes = get_varint(is);
      h.config.l2_ways = get_varint(is);
      h.config.llc_bytes = get_varint(is);
      h.config.llc_ways = get_varint(is);
      h.cold = get_varint(is);
      h.writes = get_varint(is);
      const std::uint64_t buckets = get_varint(is);
      if (buckets > reuse::ReuseHistogram::kMaxBuckets) {
        throw std::runtime_error("pptb: reuse bucket count out of range");
      }
      h.buckets.resize(buckets);
      for (std::uint64_t b = 0; b < buckets; ++b) {
        h.buckets[b] = get_varint(is);
      }
      packed.top_reuse.emplace_back(static_cast<std::uint32_t>(idx),
                                    std::move(h));
    }
  }
  return packed;
}

std::string to_binary(const PackedTree& packed) {
  std::ostringstream os(std::ios::binary);
  write_packed_binary(os, packed);
  return os.str();
}

PackedTree from_binary(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return read_packed_binary(is);
}

}  // namespace pprophet::tree
