// Executable reproductions of the paper's worked examples (Figures 1-5).
// Each test constructs exactly the structures a figure depicts and
// asserts the behavior the figure illustrates.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/rng.hpp"
#include "fasttrie/second_layer.hpp"
#include "hash/poly_hash.hpp"
#include "pim/system.hpp"
#include "pimtrie/block.hpp"
#include "pimtrie/decompose.hpp"
#include "pimtrie/meta_index.hpp"
#include "pimtrie/pim_trie.hpp"
#include "trie/patricia.hpp"
#include "trie/query_trie.hpp"
#include "workload/generators.hpp"

namespace {

using ptrie::core::BitString;
using ptrie::trie::kNil;
using ptrie::trie::NodeId;
using ptrie::trie::Patricia;

// ---------------------------------------------------------------------
// Figure 1: the data trie stores {000010000, 00001101, 00001111,
// 101000, 1010110, 1010111} (paths: "00001" then "0000"/"101"/"111";
// "101" then "0" -> values, etc.) and the query strings are
// {00001001, 101001, 101011}. We build both tries and check:
//  * compressed nodes 1,3,4 of the query trie match compressed data
//    nodes; node 2 matches a *hidden* data node;
//  * the common prefix "10100" ends on hidden nodes in both tries.
//
// We realize the figure's data trie from its edge labels:
//   root -"00001"-> A (-"0000"->, -"101"->, ... values), root -"101"-> ...
// Concretely we store keys spelling those paths.
// ---------------------------------------------------------------------
struct Figure1 {
  std::vector<BitString> data_keys = {
      BitString::from_binary("000010000"),  // "00001" + "0000"
      BitString::from_binary("00001101"),   // "00001" + "101"
      BitString::from_binary("1010"),       // "101" + "0" (value on node)
      BitString::from_binary("101011"),     // "101" + "0" + "11"
      BitString::from_binary("10111"),      // "101" + "11"
  };
  std::vector<BitString> query_keys = {
      BitString::from_binary("00001001"),
      BitString::from_binary("101001"),
      BitString::from_binary("101011"),
  };
};

TEST(Figure1, MatchedTrieDepths) {
  Figure1 fig;
  Patricia data;
  for (std::size_t i = 0; i < fig.data_keys.size(); ++i) data.insert(fig.data_keys[i], i);

  // Query 1: "00001001" runs "00001" (compressed node) then "00" into
  // the "0000" edge => LCP 7, ending on a hidden data node (the paper's
  // dashed-arrow case).
  auto [l1, p1] = data.lcp(fig.query_keys[0]);
  EXPECT_EQ(l1, 7u);
  EXPECT_FALSE(p1.is_compressed());

  // Query 2: "101001" shares "1010" (compressed, has value) + "0"? The
  // data continues "10101..."/"10111"; "10100" diverges after "1010".
  auto [l2, p2] = data.lcp(fig.query_keys[1]);
  EXPECT_EQ(l2, 4u);

  // Query 3: exact stored key.
  auto [l3, p3] = data.lcp(fig.query_keys[2]);
  EXPECT_EQ(l3, 6u);
  EXPECT_TRUE(p3.is_compressed());
  EXPECT_EQ(data.node(p3.node).value, 3u);
}

TEST(Figure1, QueryTrieSharesPrefixes) {
  Figure1 fig;
  ptrie::hash::PolyHasher h(1);
  auto qt = ptrie::trie::build_query_trie(fig.query_keys, h);
  // 3 distinct keys; the two "1010.." queries share a branch node.
  EXPECT_EQ(qt.trie.key_count(), 3u);
  auto [lcp01, pos01] = qt.trie.lcp(BitString::from_binary("10100"));
  EXPECT_EQ(lcp01, 5u);  // "10100" is a common prefix inside the query trie
}

TEST(Figure1, EndToEndOnPim) {
  Figure1 fig;
  ptrie::pim::System sys(4, 1);
  ptrie::pimtrie::Config cfg;
  cfg.seed = 2;
  ptrie::pimtrie::PimTrie pt(sys, cfg);
  std::vector<std::uint64_t> vals(fig.data_keys.size());
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = i;
  pt.build(fig.data_keys, vals);
  auto got = pt.batch_lcp(fig.query_keys);
  Patricia ref;
  for (std::size_t i = 0; i < fig.data_keys.size(); ++i) ref.insert(fig.data_keys[i], i);
  for (std::size_t i = 0; i < fig.query_keys.size(); ++i)
    EXPECT_EQ(got[i], ref.lcp(fig.query_keys[i]).first);
}

// ---------------------------------------------------------------------
// Figure 2: the data trie decomposed into blocks distributed across
// modules, with block roots replicated as mirror leaf stubs in the
// parent block; critical vs non-critical query blocks.
// ---------------------------------------------------------------------
TEST(Figure2, BlocksHaveMirrorStubsAndRootMetadata) {
  Figure1 fig;
  ptrie::pim::System sys(4, 3);
  ptrie::pimtrie::Config cfg;
  cfg.seed = 4;
  cfg.kb = 16;  // force several small blocks
  ptrie::pimtrie::PimTrie pt(sys, cfg);
  std::vector<std::uint64_t> vals(fig.data_keys.size(), 0);
  pt.build(fig.data_keys, vals);
  EXPECT_GE(pt.block_count(), 2u);  // actually decomposed
  EXPECT_EQ(pt.debug_check(), "");
  // All keys reachable by stitching mirrors (the decomposition is lossless).
  auto all = pt.debug_collect();
  EXPECT_EQ(all.size(), fig.data_keys.size());
}

// ---------------------------------------------------------------------
// Figure 3 + 4: meta-tree decomposition into meta-blocks / recursive
// cut-node decomposition (Lemma 4.5: the cut node's removal leaves
// components of at most (n+1)/2 nodes; Lemma 4.6: bounded height).
// We reproduce Figure 4's parameters: K_MB = 7, K_SMB = 3.
// ---------------------------------------------------------------------
TEST(Figure4, CutNodeHalvesFigureTree) {
  // Figure 3's 12-node meta-tree:
  //   1 -> {2, 3}; 2 -> {4}; 4 -> {8, 12}; 3 -> {5, 6, 7};
  //   5 -> {9}; 6 -> {10, 11}  (nodes 0-indexed here as 0..11)
  std::vector<std::vector<int>> children(12);
  auto link = [&](int p, int c) { children[p].push_back(c); };
  link(0, 1);
  link(0, 2);
  link(1, 3);
  link(3, 7);
  link(3, 11);
  link(2, 4);
  link(2, 5);
  link(2, 6);
  link(4, 8);
  link(5, 9);
  link(5, 10);

  // Lemma 4.5 brute-force check: some node's out-edge removal leaves
  // every component <= (12+1)/2 = 6.
  auto subtree_size = [&](int v, auto&& self) -> int {
    int n = 1;
    for (int c : children[v]) n += self(c, self);
    return n;
  };
  bool exists = false;
  for (int v = 0; v < 12 && !exists; ++v) {
    int biggest = 12 - (subtree_size(v, subtree_size) - 1) * 0;
    // components: each child subtree, and the rest (12 - sum(child subtrees)).
    int sum = 0, mx = 0;
    for (int c : children[v]) {
      int s = subtree_size(c, subtree_size);
      sum += s;
      mx = std::max(mx, s);
    }
    int rest = 12 - sum;
    mx = std::max(mx, rest);
    (void)biggest;
    if (mx <= (12 + 1) / 2) exists = true;
  }
  EXPECT_TRUE(exists);
}

// Shared checker for the Lemma 4.5 / 4.6 guarantees of a decomposition:
// exact partition, per-piece size bound, connectivity (a node's tree
// parent is in the same piece unless the node roots its piece, in which
// case the parent lives in the parent piece), and piece-tree height.
void check_decomposition(const std::vector<std::vector<int>>& children, int root,
                         std::size_t bound,
                         const ptrie::pimtrie::internal::TreePieces& ps) {
  int n = static_cast<int>(children.size());
  std::vector<int> parent(n, -1);
  for (int v = 0; v < n; ++v)
    for (int c : children[v]) parent[c] = v;

  // Exact partition, consistent with piece_of.
  ASSERT_EQ(ps.piece_of.size(), children.size());
  std::vector<int> seen(n, 0);
  for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
    const auto& p = ps.pieces[pi];
    EXPECT_LE(p.nodes.size(), bound) << "piece " << pi << " over bound";
    EXPECT_FALSE(p.nodes.empty());
    EXPECT_EQ(p.nodes.front(), p.root) << "piece root must lead its node list";
    for (int v : p.nodes) {
      ++seen[v];
      EXPECT_EQ(ps.piece_of[v], static_cast<int>(pi));
    }
  }
  for (int v = 0; v < n; ++v) EXPECT_EQ(seen[v], 1) << "node " << v;

  // Connectivity and parent-piece links.
  for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
    const auto& p = ps.pieces[pi];
    for (int v : p.nodes) {
      if (v == p.root) {
        if (v == root) {
          EXPECT_EQ(p.parent_piece, -1);
        } else {
          ASSERT_GE(parent[v], 0);
          EXPECT_EQ(p.parent_piece, ps.piece_of[parent[v]]);
        }
      } else {
        ASSERT_GE(parent[v], 0) << "non-root piece node without tree parent";
        EXPECT_EQ(ps.piece_of[parent[v]], static_cast<int>(pi))
            << "piece " << pi << " is not connected at node " << v;
      }
    }
  }

  // Lemma 4.6: piece-tree height is O(log n). The recursive cut-node
  // construction halves the remaining component each level, so height
  // <= 2*ceil(log2 n) + 2 is a safe envelope.
  int height = 0;
  for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
    int d = 0, at = static_cast<int>(pi);
    while (ps.pieces[at].parent_piece != -1) {
      at = ps.pieces[at].parent_piece;
      ++d;
      ASSERT_LE(d, n) << "parent_piece cycle";
    }
    height = std::max(height, d);
  }
  int lg = 0;
  while ((1 << lg) < n) ++lg;
  EXPECT_LE(height, 2 * lg + 2) << "piece tree too tall for n=" << n;
}

// Figure 4's worked example: the Figure 3 meta-tree cut with K_SMB = 3.
// Golden structural facts asserted directly on decompose_tree's output.
TEST(Figure4, DecomposeFigureTreeGolden) {
  std::vector<std::vector<int>> children(12);
  auto link = [&](int p, int c) { children[p].push_back(c); };
  link(0, 1);
  link(0, 2);
  link(1, 3);
  link(3, 7);
  link(3, 11);
  link(2, 4);
  link(2, 5);
  link(2, 6);
  link(4, 8);
  link(5, 9);
  link(5, 10);

  auto ps = ptrie::pimtrie::internal::decompose_tree(children, 0, /*bound=*/3);
  check_decomposition(children, 0, 3, ps);
  // 12 nodes, pieces of <= 3: at least ceil(12/3) = 4 pieces, and the
  // cut-node recursion never needs more than one piece per node.
  EXPECT_GE(ps.pieces.size(), 4u);
  EXPECT_LE(ps.pieces.size(), 12u);
  // The root's piece roots the piece tree.
  EXPECT_EQ(ps.pieces[ps.piece_of[0]].parent_piece, -1);
}

// Property sweep backing the same lemmas: random trees, several bounds.
TEST(Figure4, DecomposeRandomTrees) {
  ptrie::core::Rng rng(404);
  for (int n : {1, 2, 5, 13, 40, 100}) {
    std::vector<std::vector<int>> children(n);
    for (int v = 1; v < n; ++v)
      children[rng.below(static_cast<std::uint64_t>(v))].push_back(v);
    for (std::size_t bound : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      auto ps = ptrie::pimtrie::internal::decompose_tree(children, 0, bound);
      check_decomposition(children, 0, bound, ps);
    }
  }
}

TEST(Figure4, PieceBoundAndHeight) {
  // Random trees of several sizes: decompose with K_SMB = 3 (Figure 4's
  // lower bound) and check size bounds + O(log n) piece-tree height.
  // Uses the library's decomposition through PimTrie's public behavior:
  // we emulate by building a caterpillar data trie whose meta-tree is a
  // path, with tiny piece bound, and checking the structure is healthy
  // and matching still works (the height bound shows up as bounded
  // phase-B rounds).
  ptrie::pim::System sys(4, 5);
  ptrie::pimtrie::Config cfg;
  cfg.seed = 6;
  cfg.kb = 16;
  cfg.kmb = 7;   // Figure 4's K_MB
  cfg.ksmb = 3;  // Figure 4's K_SMB
  ptrie::pimtrie::PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::caterpillar_keys(48, 7, 7);
  std::vector<std::uint64_t> vals(keys.size(), 0);
  pt.build(keys, vals);
  EXPECT_EQ(pt.debug_check(), "");
  sys.metrics().reset();
  auto got = pt.batch_lcp({keys[40]});
  EXPECT_EQ(got[0], keys[40].size());
  // Rounds bounded: phase B descends a piece tree of height O(log K_MB)
  // per meta-block; generous cap.
  EXPECT_LE(sys.metrics().io_rounds(), 24u);
}

// ---------------------------------------------------------------------
// Figure 5: pivot-based HashMatching through the two-layer index (the
// exact w=3 example is covered in test_fasttrie's SecondLayer.Figure5
// Example; here we exercise the same mechanism end-to-end inside
// hash_match with w = 8 and a root whose S_rem is reachable only via
// the direct-child resolution).
// ---------------------------------------------------------------------
TEST(Figure5, PivotMatchingFindsRootViaChild) {
  using namespace ptrie::pimtrie;
  ptrie::hash::PolyHasher hasher(8);
  unsigned w = 8;

  // Data-side roots: R at depth 10 ("on path"), K at depth 13 = R + "011"
  // diverging from the query after bit 10. Query contains R's string as
  // a prefix; the second layer may return K first; verification then
  // resolves K -> parent R.
  BitString query = BitString::from_binary("1011001110" "11011");  // 15 bits
  BitString r_str = query.prefix(10);
  BitString k_str = r_str;
  k_str.append(BitString::from_binary("011"));  // diverges at bit 10 ('0' vs query '1')

  auto entry_of = [&](const BitString& s, BlockId id, BlockId parent) {
    MetaEntry e;
    e.block = id;
    e.module = 0;
    e.root_hash = hasher.hash(s);
    e.root_depth = s.size();
    e.parent_block = parent;
    std::uint64_t pivot = (s.size() / w) * w;
    e.spre_hash = hasher.hash_prefix(s, pivot);
    e.srem = s.suffix(pivot);
    std::uint64_t tail = std::min<std::uint64_t>(w, s.size());
    e.slast = s.suffix(s.size() - tail);
    return e;
  };
  MetaEntry r = entry_of(r_str, 1, kNone);
  MetaEntry k = entry_of(k_str, 2, 1);

  TwoLayerIndex idx(w);
  idx.insert(hasher, r, {IndexPayload::kEntry, 0});
  idx.insert(hasher, k, {IndexPayload::kEntry, 1});

  ptrie::trie::QueryTrie qt = ptrie::trie::build_query_trie({query}, hasher);
  QueryPiece piece;
  piece.root_depth = 0;
  piece.root_hash = hasher.empty();
  piece.root_pivot_hash = hasher.empty();
  piece.trie = qt.trie.extract(qt.trie.root(), /*is_cut=*/{});

  HashMatchStats stats;
  const std::vector<MetaEntry> entries = {r, k};  // payload idx 0 -> R, 1 -> K
  auto ms = hash_match(piece, idx, hasher, w, {entries}, &stats, nullptr);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].entry->block, 1u);        // resolved to R
  EXPECT_EQ(ms[0].point.abs_depth, 10u);
  EXPECT_GE(stats.verifications, 1u);
}

// Figure 5's two-layer lookup in isolation: roots sharing one S_pre
// pivot land in the same first-layer bucket; the second layer resolves
// a query window to the stored S_rem with the longest agreement ("the
// root or one of its direct children"), and erasure re-exposes the
// shorter sibling.
TEST(Figure5, TwoLayerGoldenLookup) {
  using namespace ptrie::pimtrie;
  ptrie::hash::PolyHasher hasher(5);
  const unsigned w = 8;

  BitString spre = BitString::from_binary("10110011");  // one full chunk
  auto entry_of = [&](const std::string& rem_bits, BlockId id) {
    BitString s = spre;
    s.append(BitString::from_binary(rem_bits));
    MetaEntry e;
    e.block = id;
    e.module = 0;
    e.root_hash = hasher.hash(s);
    e.root_depth = s.size();
    e.parent_block = kNone;
    e.spre_hash = hasher.hash_prefix(s, spre.size());
    e.srem = s.suffix(spre.size());
    e.slast = s.suffix(s.size() - std::min<std::size_t>(w, s.size()));
    return e;
  };
  MetaEntry shallow = entry_of("01", 1);   // S_rem = "01"
  MetaEntry deep = entry_of("0110", 2);    // S_rem = "0110" (child chunkwise)

  TwoLayerIndex idx(w);
  idx.insert(hasher, shallow, {IndexPayload::kEntry, 0});
  idx.insert(hasher, deep, {IndexPayload::kEntry, 1});
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx.debug_check(), "");

  std::uint64_t fp = hasher.fingerprint(shallow.spre_hash);
  ASSERT_TRUE(idx.has_pivot(fp));
  EXPECT_FALSE(idx.has_pivot(fp ^ 1));

  // Payload idx 0 is the shallow S_rem "01", idx 1 the deep "0110".
  auto locate = [&](std::uint64_t pivot_fp, const char* window) {
    BitString q = BitString::from_binary(window);
    return idx.locate(pivot_fp, q.word(0), q.size());
  };
  // Window continuing past both roots: the deeper S_rem wins.
  auto got = locate(fp, "011010");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(IndexPayload::decode(*got).idx, 1u);

  // Window ending exactly at the shallow root.
  got = locate(fp, "01");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(IndexPayload::decode(*got).idx, 0u);

  // After erasing the deeper root the same long window resolves to the
  // shallow sibling again.
  idx.erase(hasher, deep);
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.debug_check(), "");
  got = locate(fp, "011010");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(IndexPayload::decode(*got).idx, 0u);

  // Unknown pivot: no first-layer bucket, no answer.
  EXPECT_FALSE(locate(fp ^ 1, "01").has_value());
}

}  // namespace
