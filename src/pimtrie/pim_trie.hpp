#pragma once
// PIM-trie (paper Sections 4-5): the batch-parallel, skew-resistant
// radix-based index for the PIM Model. Data lives on the modules as
// randomly-placed blocks; block metadata lives in meta-block pieces
// organized into bounded-height meta-block trees, with the roots
// replicated on every module (master index). Batch operations run as BSP
// rounds over pim::System:
//
//   Phase A (Algorithm 4)  query trie cut into O(P log P) master pieces,
//                          pushed to random modules, HashMatched against
//                          the master replica;
//   Phase B (Algorithm 5)  per matched meta-block: push small query
//                          pieces / pull child root hashes (recursive
//                          meta-block descent) / pull whole leaf pieces,
//                          yielding the critical block roots;
//   Phase C (Algorithm 2)  spanned query blocks matched against data
//                          blocks under Push-Pull, with verification and
//                          redo on detected hash collisions;
//   plus op-specific maintenance (Section 5.2): block re-partitioning,
//   meta-entry insertion/removal, piece splits, bounded-height rebuilds.
//
// Host-side directories (block/piece locations and block-tree adjacency)
// are kept as a simulation convenience; all *data* movement happens
// through metered rounds, so IO rounds / IO time / PIM time match the
// algorithm the paper analyzes.

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/bitstring.hpp"
#include "hash/poly_hash.hpp"
#include "pim/system.hpp"
#include "pimtrie/block.hpp"
#include "pimtrie/config.hpp"
#include "pimtrie/meta_index.hpp"
#include "trie/euler_partition.hpp"
#include "trie/query_trie.hpp"

namespace ptrie::pimtrie {

class PimTrie {
 public:
  PimTrie(pim::System& sys, Config cfg);

  // Bulk load; replaces current contents. Rounds are labeled "build.*".
  void build(const std::vector<core::BitString>& keys,
             const std::vector<trie::Value>& values);

  // Batch LongestCommonPrefix (Section 5.1): out[i] = LCP length in bits
  // of keys[i] against the stored set.
  std::vector<std::size_t> batch_lcp(const std::vector<core::BitString>& keys);

  // Batch Insert / Delete (Section 5.2).
  void batch_insert(const std::vector<core::BitString>& keys,
                    const std::vector<trie::Value>& values);
  void batch_erase(const std::vector<core::BitString>& keys);

  // Batch SubtreeQuery (Section 5.3): all stored (key, value) pairs with
  // prefixes[i] as a prefix, absolute keys, lexicographic order.
  std::vector<std::vector<std::pair<core::BitString, trie::Value>>> batch_subtree(
      const std::vector<core::BitString>& prefixes);

  // Batch point reads: out[i] = value stored at keys[i], if present.
  std::vector<std::optional<trie::Value>> batch_get(const std::vector<core::BitString>& keys);

  // ---- ordered operations (strict bitstring order) ----
  // out[i] = greatest stored pair < keys[i] / least stored pair >
  // keys[i], if any. Decomposed into O(|key|) disjoint cover candidates
  // (trie/ordered_cover.hpp); candidate viability is resolved by one
  // matching pass, then the winning subtree candidate's extremum is
  // found by per-block kSeekBlock descent rounds ("ordered.seek*").
  std::vector<std::optional<std::pair<core::BitString, trie::Value>>> batch_pred(
      const std::vector<core::BitString>& keys);
  std::vector<std::optional<std::pair<core::BitString, trie::Value>>> batch_succ(
      const std::vector<core::BitString>& keys);
  // out[i] = stored pairs in [los[i], his[i]] inclusive, ascending,
  // truncated to limits[i] (lo > hi or limit 0 = empty).
  std::vector<std::vector<std::pair<core::BitString, trie::Value>>> batch_range(
      const std::vector<core::BitString>& los, const std::vector<core::BitString>& his,
      const std::vector<std::size_t>& limits);
  // out[i] = first ks[i] stored pairs under prefixes[i], ascending.
  std::vector<std::vector<std::pair<core::BitString, trie::Value>>> batch_topk(
      const std::vector<core::BitString>& prefixes, const std::vector<std::size_t>& ks);

  // ---- prepared batches (serving pipeline) ----
  // Host-only preparation of a batch (Algorithm 1): sort + dedup +
  // hashed query-trie build. Depends only on the batch keys and this
  // instance's hash family — never on stored contents — so it is safe to
  // run concurrently with another batch's execution; the serving
  // front-end (src/serve) overlaps prepare(batch k+1) with the PIM
  // rounds of batch k. Issues no rounds and touches no metrics.
  trie::QueryTrie prepare_batch(const std::vector<core::BitString>& keys) const;

  // Execute a batch from its prepared query trie. Each call is
  // byte-identical — results, rounds, and metrics — to the plain batch_*
  // call above when `qt` came from prepare_batch on the same keys.
  std::vector<std::size_t> batch_lcp_prepared(const std::vector<core::BitString>& keys,
                                              trie::QueryTrie qt);
  void batch_insert_prepared(const std::vector<core::BitString>& keys,
                             const std::vector<trie::Value>& values, trie::QueryTrie qt);
  void batch_erase_prepared(const std::vector<core::BitString>& keys, trie::QueryTrie qt);
  std::vector<std::vector<std::pair<core::BitString, trie::Value>>> batch_subtree_prepared(
      const std::vector<core::BitString>& prefixes, trie::QueryTrie qt);
  std::vector<std::optional<trie::Value>> batch_get_prepared(
      const std::vector<core::BitString>& keys, trie::QueryTrie qt);

  // Single point read (sugar over batch_get).
  std::optional<trie::Value> find(const core::BitString& key);

  const Config& config() const { return cfg_; }
  // The machine this trie issues rounds on (metrics inspection; the
  // serving telemetry reads per-module word deltas at batch boundaries).
  pim::System& system() { return *sys_; }
  const pim::System& system() const { return *sys_; }
  std::size_t key_count() const { return n_keys_; }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t piece_count() const { return pieces_.size(); }

  // Space on the PIM side in words (Lemma 4.2 / 4.7 accounting), summed
  // over modules by inspection (not a metered operation).
  std::size_t space_words() const;
  // max/mean per-module resident words — the static balance check.
  double space_imbalance() const;

  struct VerifyStats {
    std::uint64_t rejected_collisions = 0;
    std::uint64_t redo_rounds = 0;
  };
  const VerifyStats& verify_stats() const { return verify_; }

  // Inspection-only (no rounds, not metered): reconstructs every stored
  // (key, value) pair by stitching blocks across modules, and checks
  // structural invariants (mirror links, directory consistency, meta
  // entries present and correctly keyed). Used by tests.
  std::vector<std::pair<core::BitString, trie::Value>> debug_collect() const;
  // Returns a human-readable violation description, or "" if healthy.
  std::string debug_check() const;
  // Occupancy and accounting invariants that only hold when maintenance
  // is enabled (no PTRIE_NO_MAINT / PTRIE_NO_PSPLIT kill switches): piece
  // entry counts within piece_bound, meta-block-tree heights within the
  // scapegoat envelope, and exact host-directory space/key accounting
  // against the resident blocks. "" if healthy.
  std::string debug_check_deep() const;
  // Test-only fault injection for the fuzz harness's mutation tests
  // (src/check): kind 0 flips the host key count, kind 1 flips one bit
  // of a block's recorded root hash. Either must trip debug_check().
  void debug_corrupt(int kind);

 private:
  // ---- host directories ----
  struct HostBlockInfo {
    std::uint32_t module = 0;
    BlockId parent = kNone;
    std::vector<BlockId> children;
    std::uint64_t root_depth = 0;
    hash::HashVal root_hash = 0;
    core::BitString root_tail;  // last min(w, depth) bits of root string
    PieceId piece = kNone;      // piece holding this block's meta entry
    std::size_t space = 0;
    std::size_t keys = 0;
    // Oversized, but its last re-partition found nothing to split (every
    // candidate root was a mirror stub). Partitioning depends only on
    // block content, so the block is skipped until its content changes.
    bool settled = false;
  };
  struct HostPieceInfo {
    std::uint32_t module = 0;
    PieceId parent = kNone;
    std::vector<PieceId> children;
    BlockId root_block = kNone;
    std::size_t entries = 0;
    std::uint32_t depth = 0;  // depth within its meta-block tree
  };
  struct MasterRoot {
    MetaEntry root;
    PieceId piece = kNone;
    std::uint32_t module = 0;
  };

  // ---- matching pipeline ----
  struct CriticalRoot {
    trie::NodeId qnode = trie::kNil;  // materialized query-trie node
    BlockId block = kNone;
  };
  struct MatchOutcome {
    // Per query-trie slot: deepest matched absolute length (and whether
    // the node's full string matched), after merging all block reports.
    std::vector<std::uint64_t> match_len;
    std::vector<bool> reported;
    std::vector<CriticalRoot> spans;  // phase-C span roots (post-redo)
    // Get-operation hits: (query node, stored value).
    std::vector<std::pair<trie::NodeId, trie::Value>> get_hits;
    // span block of each query node (nearest span root at/above it).
    std::vector<std::size_t> span_of;  // index into spans, or npos
  };

  // Piece of the query trie below `root`, cut at `is_cut` nodes (see
  // Patricia::extract).
  QueryPiece make_piece(const trie::QueryTrie& qt, trie::NodeId root,
                        const std::vector<char>& is_cut) const;
  // Ensures a query-trie node exists exactly at abs_depth on the edge
  // into `below`; returns it (splitting the edge if needed).
  trie::NodeId materialize(trie::QueryTrie& qt, trie::NodeId below,
                           std::uint64_t abs_depth) const;

  std::vector<CriticalRoot> match_critical_roots(trie::QueryTrie& qt, const char* label);
  MatchOutcome run_matching(trie::QueryTrie& qt, const char* label, int op_kind);
  // Shared pred/succ engine: dir 0 seeks the first viable candidate's
  // minimum (successor), dir 1 the maximum (predecessor).
  std::vector<std::optional<std::pair<core::BitString, trie::Value>>> batch_seek_extremum(
      const std::vector<core::BitString>& keys, int dir);

  // ---- maintenance ----
  // The per-block re-partition step (Section 5.2): cuts edges longer
  // than the block bound in place, partitions by node weight, and drops
  // mirror stubs from the root set. One root means nothing to split.
  trie::PartitionResult partition_block(Block& blk) const;
  void repartition_oversized_blocks(const std::vector<BlockId>& oversized, const char* label);
  void add_meta_entries(std::vector<MetaEntry> entries, const char* label);
  void split_oversized_pieces(const char* label);
  void rebuild_unbalanced_trees(const char* label);
  void remove_blocks(const std::vector<BlockId>& blocks, const char* label);

  // ---- small helpers ----
  std::uint64_t fresh_block_id() { return next_block_id_++; }
  std::uint64_t fresh_piece_id() { return next_piece_id_++; }
  MetaEntry make_entry(BlockId b) const;  // from host directory info
  void push_master(const char* label);    // broadcast master replica

  pim::System* sys_;
  Config cfg_;
  hash::PolyHasher hasher_;
  std::uint64_t instance_;  // module state slot

  std::unordered_map<BlockId, HostBlockInfo> blocks_;
  std::unordered_map<BlockId, hash::HashVal> spre_of_;  // hash(S_pre) per block
  std::unordered_map<PieceId, HostPieceInfo> pieces_;
  std::vector<MasterRoot> master_roots_;
  BlockId root_block_ = kNone;
  std::size_t n_keys_ = 0;
  std::uint64_t next_block_id_ = 1;
  std::uint64_t next_piece_id_ = 1;
  VerifyStats verify_;
};

}  // namespace ptrie::pimtrie
