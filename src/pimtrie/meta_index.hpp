#pragma once
// The hash value manager's data plane (paper Section 4.4): meta-tree
// entries (one per data-trie block), meta-block pieces (connected
// fragments of the meta-tree bounded by K_SMB, organized into
// meta-block trees of height O(log P)), the replicated master index, and
// the pivot-based HashMatching routine (Algorithm 3 with the Section
// 4.4.2 two-layer optimization and the Section 4.4.3 S_last
// verification).
//
// A block root whose string is S is indexed under
//   first layer:  fingerprint(hash(S_pre)), S_pre = longest prefix of S
//                 with length a multiple of w;
//   second layer: S_rem = S after S_pre (|S_rem| = |S| mod w), in a
//                 SecondLayerIndex (sorted padded keys + validity
//                 vectors, space modelled as the paper's y-fast trie);
// and carries S_last (the last min(w,|S|) bits) for verification.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/bitstring.hpp"
#include "fasttrie/second_layer.hpp"
#include "hash/poly_hash.hpp"
#include "pimtrie/block.hpp"
#include "pimtrie/types.hpp"

namespace ptrie::pimtrie {

// One meta-tree node: the metadata of one data-trie block.
struct MetaEntry {
  BlockId block = kNone;
  std::uint32_t module = 0;       // module holding the data block
  hash::HashVal root_hash = 0;    // full hash of the root string S
  std::uint64_t root_depth = 0;   // |S| in bits
  BlockId parent_block = kNone;   // meta-tree parent
  hash::HashVal spre_hash = 0;    // hash(S_pre)
  core::BitString srem;           // |S| mod w bits
  core::BitString slast;          // last min(w, |S|) bits of S

  void serialize(pim::Buffer& out) const;
  static MetaEntry deserialize(BufReader& r);
};

// Reference to a child piece in the meta-block tree, replicated in the
// parent piece (the "critical information" of Section 5.2): enough to
// hash-match the child's root without visiting the child.
struct ChildPieceRef {
  PieceId piece = kNone;
  std::uint32_t module = 0;
  MetaEntry root;  // the child piece's root meta entry (replicated)

  void serialize(pim::Buffer& out) const;
  static ChildPieceRef deserialize(BufReader& r);
};

// Payload tag for two-layer hits: is the hit one of this index's own
// entries or a replicated child-piece root?
struct IndexPayload {
  enum Kind : std::uint64_t { kEntry = 0, kChild = 1 };
  Kind kind = kEntry;
  std::uint32_t idx = 0;
  std::uint64_t encode() const { return (static_cast<std::uint64_t>(kind) << 32) | idx; }
  static IndexPayload decode(std::uint64_t v) {
    return {static_cast<Kind>(v >> 32), static_cast<std::uint32_t>(v)};
  }
};

// The two-layer index over a set of block-root metadata records.
class TwoLayerIndex {
 public:
  explicit TwoLayerIndex(unsigned w = 64) : w_(w) {}

  void insert(const hash::PolyHasher& hasher, const MetaEntry& root, IndexPayload payload);
  void erase(const hash::PolyHasher& hasher, const MetaEntry& root);
  // Is root's (fingerprint(S_pre), S_rem) key indexed?
  bool contains(const hash::PolyHasher& hasher, const MetaEntry& root) const;
  // Strings in the second layer under this first-layer fingerprint.
  std::size_t bucket_size(std::uint64_t spre_fp) const;
  void clear() { first_.clear(); }
  std::size_t size() const;

  // First-layer membership: is some root anchored at this pivot hash?
  bool has_pivot(std::uint64_t spre_fp) const { return first_.contains(spre_fp); }
  // Second-layer query: the payload of the best stored S_rem for the
  // path window below the pivot (paper's "find it or one of its direct
  // children"). The window is the first `len` (<= w) bits of `bits`,
  // most significant first.
  std::optional<std::uint64_t> locate(std::uint64_t spre_fp, std::uint64_t bits,
                                      std::size_t len) const;

  std::size_t space_words() const;

  // Deep structural check of every second-layer index (validity vectors,
  // sorted arrays, replayed y-fast buckets). "" when healthy.
  std::string debug_check() const;

 private:
  unsigned w_;
  std::unordered_map<std::uint64_t, fasttrie::SecondLayerIndex> first_;
};

// One meta-block piece as stored on a module.
struct Piece {
  PieceId id = kNone;
  PieceId parent_piece = kNone;
  BlockId root_block = kNone;  // meta entry rooting this piece
  std::vector<MetaEntry> entries;
  std::vector<ChildPieceRef> children;

  void serialize(pim::Buffer& out) const;
  static Piece deserialize(BufReader& r);
  std::size_t wire_words() const;

  // Rebuilds the two-layer index over entries + child roots.
  void build_index(const hash::PolyHasher& hasher, unsigned w);
  // Appends entries and indexes only them; existing payloads keep their
  // indices. The result equals build_index(): when appending could
  // differ from the rebuild's insertion order, it rebuilds instead.
  // Returns true when the index was extended rather than rebuilt.
  bool append_entries(const hash::PolyHasher& hasher, unsigned w,
                      std::vector<MetaEntry> added);
  const TwoLayerIndex& index() const { return index_; }
  const MetaEntry* entry_of(BlockId b) const;
  MetaEntry* entry_of(BlockId b);

 private:
  TwoLayerIndex index_{64};
  std::unordered_map<std::uint64_t, std::uint32_t> by_block_;
};

// A verified hash-match point found on a query piece.
struct MatchPoint {
  trie::NodeId qnode = trie::kNil;  // piece-local node whose edge hosts the point
  trie::NodeId origin = trie::kNil; // query-trie global id of qnode
  std::uint64_t abs_depth = 0;      // absolute depth of the matched root
  bool at_node_end = false;         // point coincides with qnode's end
  IndexPayload payload;             // what it matched in the index
};

struct HashMatchStats {
  std::uint64_t pivot_lookups = 0;
  std::uint64_t second_layer_queries = 0;
  std::uint64_t verifications = 0;
  std::uint64_t rejected_collisions = 0;
};

// The entries an index's payloads name: kEntry payloads index `entries`,
// kChild payloads index `children`. A rejected candidate's meta-tree
// parent (the Section 4.4.2 "direct child" case) is looked up through
// `piece` when set, else by scanning `entries`.
struct EntryResolver {
  std::span<const MetaEntry> entries;
  std::span<const ChildPieceRef> children;
  const Piece* piece = nullptr;

  static EntryResolver of(const Piece& p) { return {p.entries, p.children, &p}; }
  const MetaEntry* entry(IndexPayload pl) const {
    return pl.kind == IndexPayload::kEntry ? &entries[pl.idx] : &children[pl.idx].root;
  }
  const MetaEntry* parent(BlockId b) const;
};

// Pivot-based HashMatching of a query piece against a two-layer index.
// Returns at most one (the deepest verified) match point per piece edge.
struct ResolvedMatch {
  MatchPoint point;
  const MetaEntry* entry = nullptr;
};
std::vector<ResolvedMatch> hash_match(const QueryPiece& q, const TwoLayerIndex& idx,
                                      const hash::PolyHasher& hasher, unsigned w,
                                      const EntryResolver& resolve, HashMatchStats* stats,
                                      std::uint64_t* work);

}  // namespace ptrie::pimtrie
