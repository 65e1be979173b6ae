// Unit tests for the PIM-trie internals: block wire formats and local
// operations (match / insert / erase / get / slice), meta-entry and
// piece serialization, the two-layer index, and hash_match properties.

#include <gtest/gtest.h>

#include <random>

#include "hash/poly_hash.hpp"
#include "pimtrie/block.hpp"
#include "pimtrie/meta_index.hpp"
#include "trie/query_trie.hpp"
#include "workload/generators.hpp"

namespace {

using ptrie::core::BitString;
using ptrie::hash::PolyHasher;
using ptrie::trie::kNil;
using ptrie::trie::NodeId;
using ptrie::trie::Patricia;
using namespace ptrie::pimtrie;

Block make_block(const std::vector<BitString>& keys, std::uint64_t root_depth,
                 const PolyHasher& h, const BitString& root_str) {
  Block b;
  b.id = 1;
  b.root_depth = root_depth;
  b.root_hash = h.hash(root_str);
  for (std::size_t i = 0; i < keys.size(); ++i) b.trie.insert(keys[i], 100 + i);
  return b;
}

QueryPiece make_query(const std::vector<BitString>& keys, std::uint64_t root_depth,
                      const PolyHasher& h, const BitString& root_str) {
  QueryPiece q;
  q.root_depth = root_depth;
  q.root_hash = h.hash(root_str);
  std::uint64_t pivot = (root_depth / 64) * 64;
  q.root_pivot_hash = h.hash_prefix(root_str, pivot);
  std::uint64_t tail = std::min<std::uint64_t>(64, root_depth);
  q.root_tail = root_str.suffix(root_str.size() - tail);
  for (std::size_t i = 0; i < keys.size(); ++i) q.trie.insert(keys[i], i);
  // Assign origins = node ids for test visibility.
  q.trie.preorder([&](NodeId id) { q.trie.mutable_node(id).origin = id; });
  return q;
}

TEST(BlockWire, SerializeRoundTripWithMirrors) {
  PolyHasher h(1);
  auto keys = ptrie::workload::uniform_keys(30, 40, 1);
  Block b = make_block(keys, 0, h, BitString());
  // Mark two leaves as mirrors.
  auto leaves = b.trie.leaves();
  b.mirrors.emplace(leaves[0], 77);
  b.mirrors.emplace(leaves[1], 88);

  ptrie::pim::Buffer wire;
  b.serialize(wire);
  BufReader r{wire};
  Block c = Block::deserialize(r);
  EXPECT_EQ(c.id, b.id);
  EXPECT_EQ(c.root_hash, b.root_hash);
  EXPECT_EQ(c.trie.key_count(), b.trie.key_count());
  ASSERT_EQ(c.mirrors.size(), 2u);
  // The mirrored nodes must represent the same strings after the id
  // remap.
  std::vector<std::string> want, got;
  for (auto [n, cb] : b.mirrors) want.push_back(b.trie.node_string(n).to_binary());
  for (auto [n, cb] : c.mirrors) got.push_back(c.trie.node_string(n).to_binary());
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  // Round-trip again (id layouts may differ after deserialize).
  ptrie::pim::Buffer wire2;
  c.serialize(wire2);
  BufReader r2{wire2};
  Block d = Block::deserialize(r2);
  EXPECT_EQ(d.mirrors.size(), 2u);
  EXPECT_EQ(d.trie.key_count(), b.trie.key_count());
}

TEST(BlockLocal, MatchReportsDepthsAndBoundaries) {
  PolyHasher h(2);
  // Data block at depth 0 storing two keys; one leaf is a mirror.
  std::vector<BitString> dk = {BitString::from_binary("0011"), BitString::from_binary("0101")};
  Block b = make_block(dk, 0, h, BitString());
  NodeId mirror_leaf = kNil;
  b.trie.preorder([&](NodeId id) {
    if (b.trie.node_string(id).to_binary() == "0101") mirror_leaf = id;
  });
  ASSERT_NE(mirror_leaf, kNil);
  b.mirrors.emplace(mirror_leaf, 9);

  // Query: one exact hit, one divergence, one passing through the mirror.
  std::vector<BitString> qk = {BitString::from_binary("0011"),
                               BitString::from_binary("0111"),
                               BitString::from_binary("010111")};
  QueryPiece q = make_query(qk, 0, h, BitString());
  std::uint64_t work = 0;
  auto lens = match_block(q, b, &work);
  EXPECT_GT(work, 0u);
  bool saw_exact = false, saw_diverge = false, saw_boundary = false;
  for (const auto& ml : lens) {
    BitString s = q.trie.node_string(ml.origin);
    if (s.to_binary() == "0011") {
      EXPECT_TRUE(ml.full);
      EXPECT_EQ(ml.match_len, 4u);
      saw_exact = true;
    }
    if (s.to_binary() == "0111") {
      EXPECT_FALSE(ml.full);
      EXPECT_EQ(ml.match_len, 2u);  // diverges after "01"
      saw_diverge = true;
    }
    if (s.to_binary() == "010111") {
      // Stops at the mirror boundary at depth 4.
      EXPECT_TRUE(ml.boundary);
      EXPECT_EQ(ml.match_len, 4u);
      saw_boundary = true;
    }
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_diverge);
  EXPECT_TRUE(saw_boundary);
}

TEST(BlockLocal, InsertGraftsAndIsIdempotent) {
  PolyHasher h(3);
  std::vector<BitString> dk = {BitString::from_binary("110011")};
  Block b = make_block(dk, 0, h, BitString());
  std::vector<BitString> qk = {BitString::from_binary("110100"),  // diverges mid-edge
                               BitString::from_binary("1100")};   // prefix key (hidden node)
  QueryPiece q = make_query(qk, 0, h, BitString());
  std::uint64_t work = 0;
  auto s1 = insert_into_block(q, b, &work);
  EXPECT_EQ(s1.new_keys, 2u);
  EXPECT_EQ(b.trie.key_count(), 3u);
  EXPECT_EQ(b.trie.find(qk[0]), std::optional<std::uint64_t>(0));
  EXPECT_EQ(b.trie.find(qk[1]), std::optional<std::uint64_t>(1));
  EXPECT_EQ(b.trie.find(dk[0]), std::optional<std::uint64_t>(100));
  // Idempotent re-apply: only value overwrites.
  auto s2 = insert_into_block(q, b, &work);
  EXPECT_EQ(s2.new_keys, 0u);
  EXPECT_EQ(s2.updated_keys, 2u);
  EXPECT_EQ(b.trie.key_count(), 3u);
}

TEST(BlockLocal, InsertSkipsMirrorBoundary) {
  PolyHasher h(4);
  std::vector<BitString> dk = {BitString::from_binary("0011")};
  Block b = make_block(dk, 0, h, BitString());
  NodeId leaf = b.trie.leaves()[0];
  b.mirrors.emplace(leaf, 5);  // the "0011" leaf is a child block root
  std::vector<BitString> qk = {BitString::from_binary("001101")};  // continues below mirror
  QueryPiece q = make_query(qk, 0, h, BitString());
  std::uint64_t work = 0;
  auto s = insert_into_block(q, b, &work);
  EXPECT_EQ(s.new_keys, 0u);  // the child block's own span must graft this
  EXPECT_EQ(b.trie.key_count(), 1u);
}

TEST(BlockLocal, EraseCompressesButKeepsMirrors) {
  PolyHasher h(5);
  std::vector<BitString> dk = {BitString::from_binary("0000"), BitString::from_binary("0001"),
                               BitString::from_binary("01")};
  Block b = make_block(dk, 0, h, BitString());
  NodeId m = kNil;
  b.trie.preorder([&](NodeId id) {
    if (b.trie.node_string(id).to_binary() == "01") m = id;
  });
  b.mirrors.emplace(m, 6);
  b.trie.clear_value(m);  // mirror stubs carry no local value

  std::vector<BitString> qk = {BitString::from_binary("0000"), BitString::from_binary("0001")};
  QueryPiece q = make_query(qk, 0, h, BitString());
  std::uint64_t work = 0;
  std::size_t removed = erase_from_block(q, b, &work);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(b.trie.key_count(), 0u);
  // The mirror stub must survive path compression.
  ASSERT_TRUE(b.trie.alive(m));
  EXPECT_TRUE(b.is_mirror(m));
}

TEST(BlockLocal, GetReadsExactValuesOnly) {
  PolyHasher h(6);
  std::vector<BitString> dk = {BitString::from_binary("1010"), BitString::from_binary("10")};
  Block b = make_block(dk, 0, h, BitString());
  std::vector<BitString> qk = {BitString::from_binary("1010"), BitString::from_binary("10"),
                               BitString::from_binary("101"),   // hidden position: no value
                               BitString::from_binary("1111")};  // miss
  QueryPiece q = make_query(qk, 0, h, BitString());
  std::uint64_t work = 0;
  auto hits = get_from_block(q, b, &work);
  ASSERT_EQ(hits.size(), 2u);
  std::vector<std::string> got;
  for (auto [origin, v] : hits) got.push_back(q.trie.node_string(origin).to_binary());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got[0], "10");
  EXPECT_EQ(got[1], "1010");
}

TEST(BlockLocal, SliceAtHiddenPosition) {
  PolyHasher h(7);
  std::vector<BitString> dk = {BitString::from_binary("110000"), BitString::from_binary("110011")};
  Block b = make_block(dk, 0, h, BitString());
  // Slice at "1100" — a hidden position on the shared edge... actually
  // "1100" is the branch node here; slice mid-edge at "110".
  auto [len, pos] = b.trie.lcp(BitString::from_binary("110"));
  ASSERT_EQ(len, 3u);
  std::uint64_t work = 0;
  SubtreeSlice s = slice_block(b, pos, 3, &work);
  EXPECT_EQ(s.root_depth, 3u);
  EXPECT_EQ(s.trie.key_count(), 2u);
  // Keys relative to the slice root: "000" + tails.
  auto sub = s.trie.subtree(BitString());
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].first.to_binary(), "000");
  EXPECT_EQ(sub[1].first.to_binary(), "011");
}

TEST(MetaWire, EntryAndPieceRoundTrip) {
  PolyHasher h(8);
  MetaEntry e;
  e.block = 42;
  e.module = 3;
  e.root_hash = 12345;
  e.root_depth = 77;
  e.parent_block = 41;
  e.spre_hash = 999;
  e.srem = BitString::from_binary("1011001110111");
  e.slast = BitString::from_binary("0101110110100");
  ptrie::pim::Buffer wire;
  e.serialize(wire);
  BufReader r{wire};
  MetaEntry f = MetaEntry::deserialize(r);
  EXPECT_EQ(f.block, e.block);
  EXPECT_EQ(f.srem, e.srem);
  EXPECT_EQ(f.slast, e.slast);
  EXPECT_EQ(f.parent_block, e.parent_block);

  Piece p;
  p.id = 7;
  p.parent_piece = 6;
  p.root_block = 42;
  p.entries.push_back(e);
  ChildPieceRef c;
  c.piece = 8;
  c.module = 1;
  c.root = e;
  p.children.push_back(c);
  ptrie::pim::Buffer wire2;
  p.serialize(wire2);
  BufReader r2{wire2};
  Piece q = Piece::deserialize(r2);
  EXPECT_EQ(q.id, 7u);
  ASSERT_EQ(q.entries.size(), 1u);
  ASSERT_EQ(q.children.size(), 1u);
  EXPECT_EQ(q.children[0].piece, 8u);
  q.build_index(h, 64);
  EXPECT_NE(q.entry_of(42), nullptr);
  EXPECT_EQ(q.entry_of(43), nullptr);
}

TEST(TwoLayer, InsertLocateErase) {
  PolyHasher h(9);
  TwoLayerIndex idx(64);
  MetaEntry e;
  e.block = 1;
  BitString s = BitString::from_binary("10110");
  e.root_depth = 5;
  e.spre_hash = h.hash_prefix(s, 0);
  e.srem = s;
  e.slast = s;
  e.root_hash = h.hash(s);
  idx.insert(h, e, {IndexPayload::kEntry, 0});
  EXPECT_TRUE(idx.has_pivot(h.fingerprint(e.spre_hash)));
  BitString window = BitString::from_binary("1011011");
  auto res = idx.locate(h.fingerprint(e.spre_hash), window.word(0), window.size());
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, (IndexPayload{IndexPayload::kEntry, 0}).encode());
  idx.erase(h, e);
  EXPECT_FALSE(idx.has_pivot(h.fingerprint(e.spre_hash)));
}

// Meta entry for a block rooted at string `s` (Section 4.4 keying).
MetaEntry root_entry(const PolyHasher& h, unsigned w, const BitString& s, BlockId block) {
  MetaEntry e;
  e.block = block;
  e.root_depth = s.size();
  e.root_hash = h.hash(s);
  std::size_t pivot = (s.size() / w) * w;
  e.spre_hash = h.hash_prefix(s, pivot);
  e.srem = s.suffix(pivot);
  e.slast = s.suffix(s.size() - std::min<std::size_t>(w, s.size()));
  return e;
}

BitString random_bits(std::mt19937_64& rng, std::size_t n) {
  BitString s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(rng() & 1);
  return s;
}

// Both pieces must answer every lookup the same way and account the
// same space.
void expect_same_index(const Piece& a, const Piece& b, const PolyHasher& h, unsigned w,
                       std::mt19937_64& rng) {
  ASSERT_EQ(a.index().size(), b.index().size());
  EXPECT_EQ(a.index().space_words(), b.index().space_words());
  EXPECT_EQ(a.index().debug_check(), "");
  EXPECT_EQ(b.index().debug_check(), "");
  std::vector<const MetaEntry*> probes;
  for (const auto& e : b.entries) probes.push_back(&e);
  for (const auto& c : b.children) probes.push_back(&c.root);
  for (const MetaEntry* e : probes) {
    std::uint64_t fp = h.fingerprint(e->spre_hash);
    ASSERT_EQ(a.index().has_pivot(fp), b.index().has_pivot(fp));
    for (int k = 0; k < 3; ++k) {
      BitString window = e->srem;
      window.append(random_bits(rng, rng() % (w - window.size() + 1)));
      EXPECT_EQ(a.index().locate(fp, window.word(0), window.size()),
                b.index().locate(fp, window.word(0), window.size()));
    }
    const MetaEntry* ea = a.entry_of(e->block);
    const MetaEntry* eb = b.entry_of(e->block);
    ASSERT_EQ(ea == nullptr, eb == nullptr);
    if (ea != nullptr) {
      EXPECT_EQ(ea - a.entries.data(), eb - b.entries.data());
    }
  }
}

// Piece::append_entries must leave the same index as a full rebuild:
// the same last-wins payloads (a repeated key falls back to the rebuild)
// and the same y-fast bucket shapes (w = 8 splits buckets early).
TEST(PieceIndex, AppendEntriesEqualsRebuild) {
  struct Case {
    unsigned w;
    unsigned fingerprint_bits;
    std::size_t max_len;  // root string lengths in [0, max_len)
  };
  const Case cases[] = {{64, 61, 200}, {8, 61, 20}, {64, 12, 70}, {8, 4, 12}};
  for (const Case& c : cases) {
    PolyHasher h(17, c.fingerprint_bits);
    std::mt19937_64 rng(c.w * 131 + c.fingerprint_bits);
    std::size_t appended = 0, rebuilt = 0;
    for (int trial = 0; trial < 60; ++trial) {
      BlockId next = 1;
      auto entry = [&] { return root_entry(h, c.w, random_bits(rng, rng() % c.max_len), next++); };
      Piece base;
      base.id = 1;
      for (std::size_t i = rng() % 40; i > 0; --i) base.entries.push_back(entry());
      for (std::size_t i = rng() % 12; i > 0; --i) {
        ChildPieceRef ref;
        ref.piece = 100 + i;
        ref.root = entry();
        base.children.push_back(ref);
      }
      base.build_index(h, c.w);
      std::vector<MetaEntry> added;
      for (std::size_t i = 1 + rng() % 30; i > 0; --i) added.push_back(entry());

      Piece inc = base;
      inc.build_index(h, c.w);  // a stored piece starts from a rebuild
      Piece full = base;
      for (const auto& e : added) full.entries.push_back(e);
      full.build_index(h, c.w);
      (inc.append_entries(h, c.w, added) ? appended : rebuilt) += 1;
      ASSERT_EQ(inc.entries.size(), full.entries.size());
      expect_same_index(inc, full, h, c.w, rng);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(appended, 0u) << "w=" << c.w << " fp_bits=" << c.fingerprint_bits;
    if (c.fingerprint_bits <= 12) {
      EXPECT_GT(rebuilt, 0u) << "forced collisions must take the rebuild fallback";
    }
  }
}

TEST(HashMatch, DeepestPerEdgeOnly) {
  PolyHasher h(10);
  unsigned w = 64;
  // Chain of three on-path roots at depths 10 < 20 < 30; a single query
  // edge covering (0, 40] must report only the deepest (30).
  BitString query = ptrie::workload::uniform_keys(1, 40, 11)[0];
  std::vector<MetaEntry> entries;
  BlockId prev = kNone;
  for (std::uint64_t d : {10u, 20u, 30u}) {
    MetaEntry e;
    e.block = d;
    e.root_depth = d;
    BitString s = query.prefix(d);
    e.root_hash = h.hash(s);
    e.parent_block = prev;
    e.spre_hash = h.hash_prefix(s, 0);
    e.srem = s;
    e.slast = s;
    entries.push_back(e);
    prev = d;
  }
  TwoLayerIndex idx(w);
  for (std::uint32_t i = 0; i < entries.size(); ++i)
    idx.insert(h, entries[i], {IndexPayload::kEntry, i});

  ptrie::trie::QueryTrie qt = ptrie::trie::build_query_trie({query}, h);
  QueryPiece piece;
  piece.root_depth = 0;
  piece.root_hash = h.empty();
  piece.root_pivot_hash = h.empty();
  piece.trie = qt.trie.extract(qt.trie.root(), /*is_cut=*/{});

  auto ms = hash_match(piece, idx, h, w, {entries}, nullptr, nullptr);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].point.abs_depth, 30u);
}

TEST(HashMatch, SlastRejectsForgedEntry) {
  PolyHasher h(12);
  unsigned w = 64;
  BitString query = ptrie::workload::uniform_keys(1, 40, 13)[0];
  // Forged entry: correct spre hash (pivot 0) but srem/slast from a
  // different string — verification must reject it.
  BitString other = ptrie::workload::uniform_keys(1, 20, 14)[0];
  MetaEntry e;
  e.block = 1;
  e.root_depth = 20;
  e.root_hash = h.hash(other);
  e.parent_block = kNone;
  e.spre_hash = h.empty();
  e.srem = other;
  e.slast = other;
  TwoLayerIndex idx(w);
  idx.insert(h, e, {IndexPayload::kEntry, 0});

  ptrie::trie::QueryTrie qt = ptrie::trie::build_query_trie({query}, h);
  QueryPiece piece;
  piece.root_depth = 0;
  piece.root_hash = h.empty();
  piece.root_pivot_hash = h.empty();
  piece.trie = qt.trie.extract(qt.trie.root(), /*is_cut=*/{});
  HashMatchStats stats;
  auto ms = hash_match(piece, idx, h, w, {std::span<const MetaEntry>(&e, 1)}, &stats, nullptr);
  EXPECT_TRUE(ms.empty());
  EXPECT_GE(stats.rejected_collisions, 0u);
}

}  // namespace
