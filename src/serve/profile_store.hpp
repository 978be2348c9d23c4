// Content-addressed profile store: clients upload PPTB binary trees once
// and refer to them by hash key in every subsequent predict/sweep/advise
// request — the "profile once, predict many times" half of docs/SERVE.md.
//
// The key is a 128-bit FNV-1a over the exact uploaded bytes, so uploads are
// idempotent: re-uploading the same profile is a cheap dedupe hit, and two
// clients that profiled the same build independently converge on one stored
// tree. Each entry keeps the compiled tree (shared, read-only — the
// emulators only read trees) so requests never re-parse.
//
// Trust assumption: FNV-1a is NOT collision-resistant against an adversary.
// A malicious uploader could engineer bytes whose key aliases another
// stored profile, silently serving predictions from the wrong tree. The
// store therefore assumes every client on the socket shares one trust
// domain — the unix-socket file permissions are the access-control
// boundary (docs/SERVE.md). Do not expose the socket across trust
// boundaries without swapping content_key for a cryptographic hash.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tree/binary.hpp"
#include "tree/compile.hpp"
#include "tree/compress.hpp"

namespace pprophet::serve {

/// 32-hex-digit content hash of `bytes` (two independent 64-bit FNV-1a
/// lanes). Stable across runs and platforms.
std::string content_key(std::string_view bytes);

/// Largest tree an upload may expand to. Dictionary packing lets a small
/// upload describe an exponentially larger tree (each pattern referencing
/// the previous one twice doubles it), so uploads are measured
/// (tree::measure_unpacked) before anything is expanded. The paper suite's
/// trees are a few thousand nodes at most.
inline constexpr std::uint64_t kMaxUploadNodes = std::uint64_t{1} << 20;
/// Deepest tree an upload may expand to; unpacking and compiling recurse
/// once per level.
inline constexpr std::uint64_t kMaxUploadDepth = 1024;

/// An upload whose expanded tree exceeds kMaxUploadNodes or
/// kMaxUploadDepth, or whose node or cycle totals overflow 64 bits. The
/// serve layer answers it with the `too_large` error code.
class UploadTooLarge : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sharded by content key so concurrent uploads and lookups from the
/// worker pool contend on shards, not on one global lock. The shard index
/// is an FNV-1a fold of the key — stable, and independent of
/// std::hash so the spread is the same on every platform.
class ProfileStore {
 public:
  struct Entry {
    std::string key;
    tree::PackedTree packed;  ///< for per-request mutation (burden annotation)
    /// Flat compiled form (tree::CompiledTree), built once at upload so
    /// every cache-missing request sweeps over the arrays directly. Its
    /// tree_digest() is also the result-cache key prefix: two uploads whose
    /// bytes differ but whose trees are semantically identical share cached
    /// results (docs/SERVE.md).
    std::shared_ptr<const tree::CompiledTree> compiled;
    std::size_t upload_bytes = 0;
    std::size_t nodes = 0;
    Cycles serial_cycles = 0;
  };

  struct PutResult {
    std::shared_ptr<const Entry> entry;
    bool existed = false;  ///< dedupe hit: the key was already stored
  };

  explicit ProfileStore(std::size_t shards = 8);

  /// Parses and stores an uploaded PPTB byte string. Throws
  /// UploadTooLarge when the tree would expand beyond the upload limits
  /// and std::runtime_error on malformed bytes (nothing is stored).
  PutResult put(const std::string& pptb_bytes);

  /// nullptr when the key is unknown.
  std::shared_ptr<const Entry> find(const std::string& key) const;

  std::size_t size() const;
  std::size_t total_bytes() const;  ///< sum of stored upload sizes

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Entry>> map;
    std::size_t total_bytes = 0;
  };

  Shard& shard_of(const std::string& key) const;

  mutable std::vector<Shard> shards_;
};

}  // namespace pprophet::serve
