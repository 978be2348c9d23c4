#include "tree/binary.hpp"

#include <gtest/gtest.h>

#include "tree/builder.hpp"
#include "tree/serialize.hpp"
#include "util/rng.hpp"

namespace pprophet::tree {
namespace {

ProgramTree sample_tree() {
  TreeBuilder b;
  b.u(1'000);
  b.begin_sec("s");
  b.begin_task("t").u(50).l(2, 25).end_task().repeat_last(100);
  b.begin_task("odd").u(77).end_task();
  b.end_sec(false);
  b.u(9);
  ProgramTree t = b.finish();
  compress(t);
  return t;
}

TEST(BinaryTree, RoundTripsExactly) {
  const ProgramTree t = sample_tree();
  const PackedTree packed = pack(t);
  const PackedTree back = from_binary(to_binary(packed));
  const ProgramTree a = unpack(packed);
  const ProgramTree b = unpack(back);
  EXPECT_TRUE(structurally_equal(*a.root, *b.root, 0.0));
  EXPECT_EQ(a.total_serial_cycles(), b.total_serial_cycles());
}

TEST(BinaryTree, PreservesNowaitAndLocks) {
  const PackedTree back = from_binary(to_binary(pack(sample_tree())));
  const ProgramTree t = unpack(back);
  const Node* sec = t.root->child(1);
  EXPECT_FALSE(sec->barrier_at_end());
  EXPECT_EQ(sec->child(0)->child(1)->lock_id(), 2u);
  EXPECT_EQ(sec->child(0)->repeat(), 100u);
}

TEST(BinaryTree, SmallerThanTextForRepetitiveTrees) {
  TreeBuilder b;
  for (int i = 0; i < 32; ++i) {
    b.u(1'000 + 10 * i);
    b.begin_sec("s");
    for (int j = 0; j < 64; ++j) b.begin_task("t").u(7).end_task();
    b.end_sec();
  }
  ProgramTree t = b.finish();
  compress(t);
  const std::string binary = to_binary(pack(t));
  const std::string text = to_text(t);
  EXPECT_LT(binary.size(), text.size() / 2);
}

TEST(BinaryTree, RejectsBadMagic) {
  EXPECT_THROW(from_binary("NOPE....."), std::runtime_error);
  EXPECT_THROW(from_binary(""), std::runtime_error);
}

TEST(BinaryTree, RejectsBadVersion) {
  std::string bytes = to_binary(pack(sample_tree()));
  bytes[4] = 99;  // version byte
  EXPECT_THROW(from_binary(bytes), std::runtime_error);
}

TEST(BinaryTree, RejectsTruncation) {
  const std::string bytes = to_binary(pack(sample_tree()));
  for (const std::size_t cut : {5ul, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(from_binary(bytes.substr(0, cut)), std::runtime_error)
        << "cut at " << cut;
  }
}

/// LEB128 encoding of `v`, as the writer emits it.
std::string varint(std::uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

/// The message from_binary(bytes) throws, or "" when it parses.
std::string reject_reason(const std::string& bytes) {
  try {
    from_binary(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BinaryTree, CountsLargerThanTheStreamAreTruncation) {
  // Counts come from the upload; none may size an allocation. A dictionary
  // of 2^40 patterns in an 11-byte stream runs out of bytes instead.
  const std::string header = std::string("PPTB") + '\x03';
  EXPECT_EQ(reject_reason(header + varint(1ULL << 40)),
            "pptb: truncated stream");
  // One U pattern (kind, barrier, length, lock id) claiming 2^40 children.
  const std::string one_pattern = header + varint(1) + '\x03' + '\x01' +
                                  varint(100) + varint(0) +
                                  varint(1ULL << 40);
  EXPECT_EQ(reject_reason(one_pattern), "pptb: truncated stream");
  // 2^40 top-level refs after an empty dictionary.
  EXPECT_EQ(reject_reason(header + varint(0) + varint(1ULL << 40)),
            "pptb: truncated stream");
}

TEST(BinaryTree, FuzzedBytesNeverCrash) {
  util::Xoshiro256 rng(404);
  const std::string good = to_binary(pack(sample_tree()));
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = good;
    const std::size_t pos = rng.uniform_u64(0, bytes.size() - 1);
    bytes[pos] = static_cast<char>(rng.uniform_u64(0, 255));
    try {
      const PackedTree p = from_binary(bytes);
      // Parsed despite the flip: the tree must still be expandable.
      const ProgramTree t = unpack(p);
      (void)t;
    } catch (const std::runtime_error&) {
      // Rejection is fine; crashing is not.
    }
  }
  SUCCEED();
}

TEST(BinaryTree, EmptyPackedTreeRoundTrips) {
  PackedTree empty;
  const PackedTree back = from_binary(to_binary(empty));
  EXPECT_TRUE(back.dictionary.empty());
  EXPECT_TRUE(back.top.empty());
}

}  // namespace
}  // namespace pprophet::tree
