// PimTrie updates (paper Section 5.2): batch Insert/Delete reuse the
// matching pipeline with in-block grafting/removal, then run the
// structural maintenance: oversized blocks are re-partitioned and
// redistributed, new meta entries flow into the pieces holding their
// parents, oversized pieces split by cut nodes, and meta-block trees
// whose height drifts past the Lemma 4.6 bound are rebuilt (the
// scapegoat-style protocol).

#include <algorithm>
#include <cassert>
#include <functional>

#include "core/parallel.hpp"
#include "obs/counters.hpp"
#include "obs/env.hpp"
#include "obs/phase.hpp"
#include "pimtrie/decompose.hpp"
#include "pimtrie/detail.hpp"
#include "pimtrie/pim_trie.hpp"
#include "trie/euler_partition.hpp"

namespace ptrie::pimtrie {

using core::BitString;
using trie::kNil;
using trie::NodeId;
using trie::Patricia;

namespace {
// Maintenance kill switches (used by tests to isolate the matching
// pipeline from structural maintenance). Parsed once via the obs::env
// registry so they show up in obs::env::dump().
bool no_maint() {
  static const bool v = obs::env::flag("PTRIE_NO_MAINT", "disable post-update structural maintenance");
  return v;
}
bool no_psplit() {
  static const bool v =
      obs::env::flag("PTRIE_NO_PSPLIT", "disable piece splitting / meta-tree rebuild maintenance");
  return v;
}
}  // namespace

void PimTrie::batch_insert(const std::vector<BitString>& keys,
                           const std::vector<trie::Value>& values) {
  assert(keys.size() == values.size());
  if (keys.empty()) return;
  if (root_block_ == kNone) {
    build(keys, values);
    return;
  }
  batch_insert_prepared(keys, values, prepare_batch(keys));
}

void PimTrie::batch_insert_prepared(const std::vector<BitString>& keys,
                                    const std::vector<trie::Value>& values,
                                    trie::QueryTrie qt) {
  assert(keys.size() == values.size());
  if (keys.empty()) return;
  if (root_block_ == kNone) {
    // First contents: the bulk-load path rebuilds its own partitioning
    // structures, so the prepared query trie is simply dropped.
    build(keys, values);
    return;
  }
  obs::Phase op_phase("Insert");
  sys_->metrics().add_cpu_work(qt.cpu_work);
  // Replace slot indices with the actual values (last write wins).
  {
    std::vector<trie::Value> val_of_slot(qt.sorted_keys.size(), 0);
    // Serial: several inputs can share a slot and the last write must win.
    for (std::size_t i = 0; i < keys.size(); ++i)
      val_of_slot[qt.sorted_slot_of_input[i]] = values[i];
    core::parallel_for(
        0, qt.key_node.size(),
        [&](std::size_t slot) {
          NodeId n = qt.key_node[slot];
          if (n != kNil) qt.trie.mutable_node(n).value = val_of_slot[slot];
        },
        /*grain=*/2048);
  }

  run_matching(qt, "insert", /*op_kind=*/1);

  // ---- maintenance ----
  if (!no_maint()) {
    obs::Phase maint_phase("Rebuild");
    std::size_t kb = cfg_.block_bound();
    std::vector<BlockId> oversized;
    for (const auto& [id, info] : blocks_)
      if (info.space > kb && !info.settled) oversized.push_back(id);
    if (!oversized.empty()) {
      obs::counter("maint/block_reparts").add(oversized.size());
      repartition_oversized_blocks(oversized, "insert.repart");
    }
    if (!no_psplit()) {
      split_oversized_pieces("insert.psplit");
      rebuild_unbalanced_trees("insert.rebuild");
    }
  }

  n_keys_ = 0;
  for (const auto& [id, info] : blocks_) n_keys_ += info.keys;
}

trie::PartitionResult PimTrie::partition_block(Block& blk) const {
  std::size_t kb = cfg_.block_bound();
  // Cut long edges, partition by weight.
  {
    std::size_t max_edge_bits = std::max<std::size_t>(64, (kb > 9 ? kb - 8 : 1) * 64);
    bool again = true;
    while (again) {
      again = false;
      for (NodeId id : blk.trie.preorder_ids())
        if (blk.trie.node(id).edge.size() > max_edge_bits) {
          blk.trie.split_edge(id, blk.trie.node(id).edge.size() - max_edge_bits);
          again = true;
        }
    }
  }
  auto weight = [&](NodeId id) -> std::uint64_t { return 8 + blk.trie.node(id).edge.word_count(); };
  trie::PartitionResult part = trie::euler_partition(blk.trie, weight, kb);
  // Mirror stubs must never root new blocks: the stub is a replica of a
  // child block's root, and making it a root would shadow that child.
  // Dropping a stub from the root set folds it back into its owner block
  // (at most one extra node of slack per stub).
  std::vector<NodeId> filtered;
  for (NodeId rt : part.roots)
    if (rt == blk.trie.root() || !blk.is_mirror(rt)) filtered.push_back(rt);
  if (filtered.size() != part.roots.size()) {
    part.roots = std::move(filtered);
    std::vector<char> keep(blk.trie.slot_count(), 0);
    for (NodeId rt : part.roots) keep[rt] = 1;
    part.owner.assign(blk.trie.slot_count(), trie::kNil);
    for (NodeId id : blk.trie.preorder_ids()) {
      const auto& n = blk.trie.node(id);
      part.owner[id] = keep[id] ? id : part.owner[n.parent];
    }
  }
  return part;
}

void PimTrie::repartition_oversized_blocks(const std::vector<BlockId>& oversized,
                                           const char* label) {
  // Pull the oversized blocks.
  std::vector<pim::Buffer> buffers(sys_->p());
  std::vector<std::pair<BlockId, std::uint32_t>> pend;
  for (BlockId b : oversized) {
    std::uint32_t module = blocks_.at(b).module;
    detail::FrameWriter fw{buffers[module]};
    fw.begin();
    BufWriter bw{buffers[module]};
    bw.u64(detail::kFetchBlock);
    bw.u64(b);
    fw.end();
    pend.emplace_back(b, module);
  }
  std::string lbl = std::string(label) + ".pull";
  auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                   hasher_, cfg_.w);
  std::vector<BufReader> readers;
  for (const auto& buf : results) readers.push_back(BufReader{buf});

  std::vector<pim::Buffer> push(sys_->p());
  std::vector<MetaEntry> new_entries;
  std::unordered_map<std::uint64_t, PieceId> entry_piece;  // new block -> piece
  // Blocks whose meta-tree parent changed (mirror migrated into a new
  // block): their on-module entries/refs need a parent-pointer update.
  std::vector<std::pair<BlockId, BlockId>> reparented;  // (block, new parent)

  // Host-side prep per oversized block (deserialize, edge cutting,
  // partition, per-node hashes) is independent across blocks and is the
  // expensive part — fan it out. Registration below is serial so that id
  // assignment, RNG placement, and directory mutation stay canonical.
  struct Prep {
    Block blk;
    trie::PartitionResult part;
    std::vector<hash::HashVal> node_hash, pivot_hash;
    std::vector<char> is_root;
  };
  std::vector<Prep> preps(pend.size());
  std::vector<std::size_t> frame_pos(pend.size());
  for (std::size_t i = 0; i < pend.size(); ++i) {
    BufReader& r = readers[pend[i].second];
    std::uint64_t frame = r.u64();
    frame_pos[i] = r.pos;
    r.pos += frame;
  }
  core::parallel_for(
      0, pend.size(),
      [&](std::size_t pi) {
        Prep& p = preps[pi];
        BufReader r{results[pend[pi].second], frame_pos[pi]};
        p.blk = Block::deserialize(r);
        Block& blk = p.blk;

        p.part = partition_block(blk);
        trie::PartitionResult& part = p.part;
        if (part.roots.size() <= 1) return;  // stored back unchanged below

        // Per-node hashes within the block (absolute), seeded by the root.
        p.node_hash.assign(blk.trie.slot_count(), 0);
        p.pivot_hash.assign(blk.trie.slot_count(), 0);
        p.node_hash[blk.trie.root()] = blk.root_hash;
        p.pivot_hash[blk.trie.root()] = spre_of_.at(pend[pi].first);
        for (NodeId c : blk.trie.preorder_ids()) {
          const auto& cn = blk.trie.node(c);
          if (cn.parent == kNil) continue;
          std::uint64_t du = blk.root_depth + blk.trie.node(cn.parent).depth;
          std::uint64_t dv = du + cn.edge.size();
          hash::HashVal h = p.node_hash[cn.parent];
          hash::HashVal hp = p.pivot_hash[cn.parent];
          std::uint64_t dcur = du;
          for (std::uint64_t piv = (du / cfg_.w + 1) * cfg_.w; piv <= dv; piv += cfg_.w) {
            h = hasher_.extend(h, cn.edge, dcur - du, piv - dcur);
            hp = h;
            dcur = piv;
          }
          p.node_hash[c] = hasher_.extend(h, cn.edge, dcur - du, dv - dcur);
          p.pivot_hash[c] = hp;
        }
        p.is_root.assign(blk.trie.slot_count(), 0);
        for (NodeId rt : part.roots) p.is_root[rt] = 1;
      },
      /*grain=*/1);

  for (std::size_t prep_i = 0; prep_i < pend.size(); ++prep_i) {
    auto [bid, module] = pend[prep_i];
    Block& blk = preps[prep_i].blk;
    trie::PartitionResult& part = preps[prep_i].part;
    if (part.roots.size() <= 1) {
      // Nothing to split (can happen right at the boundary): store back,
      // and skip the block until its content changes.
      blocks_.at(bid).settled = true;
      detail::FrameWriter fw{push[module]};
      fw.begin();
      BufWriter bw{push[module]};
      bw.u64(detail::kStoreBlock);
      blk.serialize(push[module]);
      fw.end();
      continue;
    }
    const std::vector<hash::HashVal>& node_hash = preps[prep_i].node_hash;
    const std::vector<hash::HashVal>& pivot_hash = preps[prep_i].pivot_hash;
    const std::vector<char>& is_root = preps[prep_i].is_root;
    std::unordered_map<NodeId, BlockId> block_of_root;
    for (NodeId rt : part.roots)
      block_of_root[rt] = rt == blk.trie.root() ? bid : fresh_block_id();

    const HostBlockInfo old_info = blocks_.at(bid);
    for (NodeId rt : part.roots) {
      BlockId id = block_of_root[rt];
      Block piece;
      piece.id = id;
      piece.root_depth = blk.root_depth + blk.trie.node(rt).depth;
      piece.root_hash = node_hash[rt];
      piece.trie = blk.trie.extract(rt, is_root);  // cut at every other root
      // Mirrors: stubs for new partition roots + surviving old mirrors.
      piece.trie.preorder([&](NodeId n) {
        NodeId origin = piece.trie.node(n).origin;
        if (n == piece.trie.root() || origin == kNil) return;
        if (is_root[origin]) {
          piece.mirrors.emplace(n, block_of_root[origin]);
        } else if (auto it = blk.mirrors.find(origin); it != blk.mirrors.end()) {
          piece.mirrors.emplace(n, it->second);
        }
      });
      BlockId parent;
      if (rt == blk.trie.root()) {
        parent = old_info.parent;
      } else {
        parent = block_of_root[part.owner[blk.trie.node(rt).parent]];
      }
      piece.parent = parent;

      std::uint32_t target_module =
          rt == blk.trie.root() ? old_info.module
                                : static_cast<std::uint32_t>(sys_->random_module());
      if (rt == blk.trie.root()) {
        auto& info = blocks_.at(bid);
        info.space = piece.space_words();
        info.keys = piece.trie.key_count();
        // Children list: append new blocks below (done as they register).
      } else {
        HostBlockInfo info;
        info.module = target_module;
        info.parent = parent;
        info.root_depth = piece.root_depth;
        info.root_hash = piece.root_hash;
        {
          BitString s = old_info.root_tail;
          s.append(blk.trie.node_string(rt));
          std::uint64_t tail = std::min<std::uint64_t>(cfg_.w, piece.root_depth);
          info.root_tail = s.suffix(s.size() - std::min<std::size_t>(tail, s.size()));
        }
        info.space = piece.space_words();
        info.keys = piece.trie.key_count();
        info.piece = kNone;  // assigned by add_meta_entries
        blocks_.emplace(id, std::move(info));
        spre_of_[id] = pivot_hash[rt];
        blocks_.at(parent).children.push_back(id);

        MetaEntry e = make_entry(id);
        new_entries.push_back(e);
        entry_piece[id] = old_info.piece;  // paper: parent's meta-block
      }

      // Old mirrors that migrated into a new child block: reparent the
      // child block in the directory and remember to update its meta
      // entry's parent pointer on the PIM side.
      for (const auto& [n, cb] : piece.mirrors) {
        auto bit = blocks_.find(cb);
        if (bit != blocks_.end() && bit->second.parent != id &&
            !is_root[piece.trie.node(n).origin]) {
          auto& old_children = blocks_.at(bit->second.parent).children;
          old_children.erase(std::remove(old_children.begin(), old_children.end(), cb),
                             old_children.end());
          bit->second.parent = id;
          blocks_.at(id).children.push_back(cb);
          reparented.emplace_back(cb, id);
        }
      }

      detail::FrameWriter fw{push[target_module]};
      fw.begin();
      BufWriter bw{push[target_module]};
      bw.u64(detail::kStoreBlock);
      piece.serialize(push[target_module]);
      fw.end();
    }
  }

  std::string lbl2 = std::string(label) + ".push";
  detail::run_round(*sys_, lbl2.c_str(), std::move(push), instance_, hasher_, cfg_.w);

  // Propagate parent-pointer changes to the PIM-side meta structures.
  if (!reparented.empty()) {
    std::vector<pim::Buffer> pbuf(sys_->p());
    bool master_changed = false;
    auto send_set_parent = [&](PieceId piece, BlockId block, BlockId parent) {
      if (piece == kNone || !pieces_.contains(piece)) return;
      std::uint32_t module = pieces_.at(piece).module;
      detail::FrameWriter fw{pbuf[module]};
      fw.begin();
      BufWriter bw{pbuf[module]};
      bw.u64(detail::kPieceSetParent);
      bw.u64(piece);
      bw.u64(block);
      bw.u64(parent);
      fw.end();
    };
    for (auto [cb, parent] : reparented) {
      PieceId px = blocks_.at(cb).piece;
      send_set_parent(px, cb, parent);
      // If cb roots its piece, the replicated ref in the parent piece is
      // stale too.
      if (px != kNone && pieces_.contains(px) && pieces_.at(px).root_block == cb)
        send_set_parent(pieces_.at(px).parent, cb, parent);
      for (const auto& mr : master_roots_)
        if (mr.root.block == cb) master_changed = true;
    }
    std::string lbl4 = std::string(label) + ".reparent";
    detail::run_round(*sys_, lbl4.c_str(), std::move(pbuf), instance_, hasher_, cfg_.w);
    if (master_changed) push_master((std::string(label) + ".master").c_str());
  }

  // Register the new blocks' meta entries in the pieces that hold their
  // (old) parent block's entry.
  if (!new_entries.empty()) {
    // Fix parent pointers in entries whose recorded parent changed during
    // mirror migration above.
    for (auto& e : new_entries) e.parent_block = blocks_.at(e.block).parent;
    std::unordered_map<std::uint64_t, std::vector<MetaEntry>> by_piece;
    for (auto& e : new_entries) by_piece[entry_piece.at(e.block)].push_back(e);
    std::vector<pim::Buffer> buf2(sys_->p());
    for (auto& [piece, entries] : by_piece) {
      std::uint32_t module = pieces_.at(piece).module;
      detail::FrameWriter fw{buf2[module]};
      fw.begin();
      BufWriter bw{buf2[module]};
      bw.u64(detail::kPieceAddEntries);
      bw.u64(piece);
      bw.u64(entries.size());
      for (auto& e : entries) e.serialize(buf2[module]);
      fw.end();
      pieces_.at(piece).entries += entries.size();
      for (auto& e : entries) blocks_.at(e.block).piece = piece;
    }
    std::string lbl3 = std::string(label) + ".meta";
    detail::run_round(*sys_, lbl3.c_str(), std::move(buf2), instance_, hasher_, cfg_.w);
  }
}

void PimTrie::split_oversized_pieces(const char* label) {
  std::vector<PieceId> oversized;
  for (const auto& [id, info] : pieces_)
    if (info.entries > cfg_.piece_bound()) oversized.push_back(id);
  if (oversized.empty()) return;
  obs::counter("maint/piece_splits").add(oversized.size());

  // Pull them.
  std::vector<pim::Buffer> buffers(sys_->p());
  std::vector<std::pair<PieceId, std::uint32_t>> pend;
  for (PieceId id : oversized) {
    std::uint32_t module = pieces_.at(id).module;
    detail::FrameWriter fw{buffers[module]};
    fw.begin();
    BufWriter bw{buffers[module]};
    bw.u64(detail::kFetchPiece);
    bw.u64(id);
    fw.end();
    pend.emplace_back(id, module);
  }
  std::string lbl = std::string(label) + ".pull";
  auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                   hasher_, cfg_.w);
  std::vector<BufReader> readers;
  for (const auto& buf : results) readers.push_back(BufReader{buf});

  std::vector<pim::Buffer> push(sys_->p());
  for (auto [pid0, module0] : pend) {
    BufReader& r = readers[module0];
    std::uint64_t frame = r.u64();
    std::size_t end = r.pos + frame;
    Piece piece = Piece::deserialize(r);
    r.pos = end;

    // Meta-subtree adjacency among this piece's entries.
    std::unordered_map<std::uint64_t, int> idx_of;
    for (std::size_t i = 0; i < piece.entries.size(); ++i)
      idx_of[piece.entries[i].block] = static_cast<int>(i);
    std::vector<std::vector<int>> children(piece.entries.size());
    int root_idx = idx_of.at(piece.root_block);
    for (std::size_t i = 0; i < piece.entries.size(); ++i) {
      auto pit = idx_of.find(piece.entries[i].parent_block);
      if (pit != idx_of.end() && piece.entries[i].block != piece.root_block)
        children[pit->second].push_back(static_cast<int>(i));
    }
    internal::TreePieces ps =
        internal::decompose_tree(children, root_idx, cfg_.piece_bound());
    if (ps.pieces.size() <= 1) continue;

    std::uint32_t old_depth = pieces_.at(pid0).depth;
    PieceId old_parent = pieces_.at(pid0).parent;

    std::vector<PieceId> pid(ps.pieces.size());
    std::vector<std::uint32_t> pmod(ps.pieces.size());
    int top = ps.piece_of[root_idx];
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      pid[i] = static_cast<int>(i) == top ? pid0 : fresh_piece_id();
      pmod[i] = static_cast<int>(i) == top
                    ? module0
                    : static_cast<std::uint32_t>(sys_->random_module());
    }
    std::vector<Piece> built(ps.pieces.size());
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      built[i].id = pid[i];
      built[i].parent_piece = ps.pieces[i].parent_piece < 0
                                  ? old_parent
                                  : pid[ps.pieces[i].parent_piece];
      built[i].root_block = piece.entries[ps.pieces[i].root].block;
      for (int n : ps.pieces[i].nodes) built[i].entries.push_back(piece.entries[n]);
    }
    // Re-home the old child refs: each anchors at some entry's block.
    for (const auto& c : piece.children) {
      auto it = idx_of.find(c.root.parent_block);
      int owner = it == idx_of.end() ? top : ps.piece_of[it->second];
      built[owner].children.push_back(c);
    }
    // New child refs for the new pieces.
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      int pp = ps.pieces[i].parent_piece;
      if (pp < 0) continue;
      ChildPieceRef ref;
      ref.piece = pid[i];
      ref.module = pmod[i];
      ref.root = built[i].entries.front();
      built[pp].children.push_back(ref);
    }

    // Host directory updates.
    {
      auto& info0 = pieces_.at(pid0);
      // Children of the old piece get re-homed below.
      std::vector<PieceId> old_children = std::move(info0.children);
      info0.children.clear();
      info0.entries = built[top].entries.size();
      info0.root_block = built[top].root_block;
      for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
        if (static_cast<int>(i) == top) continue;
        HostPieceInfo ni;
        ni.module = pmod[i];
        ni.parent = built[i].parent_piece;
        ni.root_block = built[i].root_block;
        ni.entries = built[i].entries.size();
        pieces_.emplace(pid[i], ni);
      }
      for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
        for (const auto& c : built[i].children) {
          if (pieces_.contains(c.piece)) {
            pieces_.at(c.piece).parent = pid[i];
            pieces_.at(pid[i]).children.push_back(c.piece);
          }
        }
        for (const auto& e : built[i].entries) blocks_.at(e.block).piece = pid[i];
      }
      // Recompute depths of the split pieces (BFS from the top).
      std::function<void(PieceId, std::uint32_t)> set_depth = [&](PieceId p,
                                                                  std::uint32_t d) {
        pieces_.at(p).depth = d;
        for (PieceId c : pieces_.at(p).children) set_depth(c, d + 1);
      };
      set_depth(pid0, old_depth);
    }

    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      detail::FrameWriter fw{push[pmod[i]]};
      fw.begin();
      BufWriter bw{push[pmod[i]]};
      bw.u64(detail::kStorePiece);
      built[i].serialize(push[pmod[i]]);
      fw.end();
    }
  }
  std::string lbl2 = std::string(label) + ".push";
  detail::run_round(*sys_, lbl2.c_str(), std::move(push), instance_, hasher_, cfg_.w);
}

void PimTrie::rebuild_unbalanced_trees(const char* label) {
  // Scapegoat-style height guard (paper Lemma 4.6 + Section 5.2): when a
  // meta-block tree grows taller than c*log(size), rebuild it wholesale.
  // Piece children lists span master-tree edges too; a meta-block tree
  // walk must stop at pieces that root *other* meta-block trees.
  std::unordered_map<std::uint64_t, bool> is_master_piece;
  for (const auto& mr : master_roots_) is_master_piece[mr.piece] = true;

  for (const auto& mr : master_roots_) {
    PieceId root_piece = mr.piece;
    if (!pieces_.contains(root_piece)) continue;
    // Measure subtree height + gather piece ids.
    std::vector<PieceId> tree;
    std::uint32_t height = 0;
    std::size_t total_entries = 0;
    std::function<void(PieceId, std::uint32_t)> walk = [&](PieceId p, std::uint32_t d) {
      tree.push_back(p);
      height = std::max(height, d);
      total_entries += pieces_.at(p).entries;
      for (PieceId c : pieces_.at(p).children)
        if (!is_master_piece.contains(c)) walk(c, d + 1);
    };
    walk(root_piece, 0);
    std::size_t pieces_in_tree = tree.size();
    std::uint32_t bound = 2 * static_cast<std::uint32_t>(Config::log2_ceil(
                                  std::max<std::size_t>(2, pieces_in_tree))) +
                          4;
    if (height <= bound || tree.size() <= 2) continue;
    obs::counter("maint/tree_rebuilds").add();

    // Fetch every piece of the tree.
    std::vector<pim::Buffer> buffers(sys_->p());
    std::vector<std::pair<PieceId, std::uint32_t>> pend;
    for (PieceId p : tree) {
      std::uint32_t module = pieces_.at(p).module;
      detail::FrameWriter fw{buffers[module]};
      fw.begin();
      BufWriter bw{buffers[module]};
      bw.u64(detail::kFetchPiece);
      bw.u64(p);
      fw.end();
      pend.emplace_back(p, module);
    }
    std::string lbl = std::string(label) + ".pull";
    auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                     hasher_, cfg_.w);
    std::vector<BufReader> readers;
    for (const auto& buf : results) readers.push_back(BufReader{buf});
    std::unordered_map<std::uint64_t, bool> in_tree;
    for (PieceId p : tree) in_tree[p] = true;
    std::vector<MetaEntry> all;
    std::vector<ChildPieceRef> external;  // refs into other meta-block trees
    for (auto [p, module] : pend) {
      BufReader& r = readers[module];
      std::uint64_t frame = r.u64();
      std::size_t end = r.pos + frame;
      Piece piece = Piece::deserialize(r);
      r.pos = end;
      for (auto& e : piece.entries) all.push_back(std::move(e));
      for (auto& c : piece.children)
        if (!in_tree.contains(c.piece)) external.push_back(std::move(c));
    }

    // Delete the old pieces (except the root id, reused), re-decompose.
    std::vector<pim::Buffer> del(sys_->p());
    for (PieceId p : tree) {
      if (p == root_piece) continue;
      std::uint32_t module = pieces_.at(p).module;
      detail::FrameWriter fw{del[module]};
      fw.begin();
      BufWriter bw{del[module]};
      bw.u64(detail::kDeletePiece);
      bw.u64(p);
      fw.end();
      pieces_.erase(p);
    }
    std::string lbl2 = std::string(label) + ".gc";
    detail::run_round(*sys_, lbl2.c_str(), std::move(del), instance_, hasher_, cfg_.w);

    std::unordered_map<std::uint64_t, int> idx_of;
    for (std::size_t i = 0; i < all.size(); ++i) idx_of[all[i].block] = static_cast<int>(i);
    std::vector<std::vector<int>> children(all.size());
    BlockId tree_root_block = pieces_.at(root_piece).root_block;
    int root_idx = idx_of.at(tree_root_block);
    for (std::size_t i = 0; i < all.size(); ++i) {
      auto pit = idx_of.find(all[i].parent_block);
      if (pit != idx_of.end() && all[i].block != tree_root_block)
        children[pit->second].push_back(static_cast<int>(i));
    }
    internal::TreePieces ps = internal::decompose_tree(children, root_idx, cfg_.piece_bound());

    int top = ps.piece_of[root_idx];
    std::uint32_t root_module = pieces_.at(root_piece).module;
    std::vector<PieceId> pid(ps.pieces.size());
    std::vector<std::uint32_t> pmod(ps.pieces.size());
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      pid[i] = static_cast<int>(i) == top ? root_piece : fresh_piece_id();
      pmod[i] = static_cast<int>(i) == top
                    ? root_module
                    : static_cast<std::uint32_t>(sys_->random_module());
    }
    std::vector<Piece> built(ps.pieces.size());
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      built[i].id = pid[i];
      built[i].parent_piece = ps.pieces[i].parent_piece < 0
                                  ? kNone
                                  : pid[ps.pieces[i].parent_piece];
      built[i].root_block = all[ps.pieces[i].root].block;
      for (int n : ps.pieces[i].nodes) built[i].entries.push_back(all[n]);
    }
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      int pp = ps.pieces[i].parent_piece;
      if (pp < 0) continue;
      ChildPieceRef ref;
      ref.piece = pid[i];
      ref.module = pmod[i];
      ref.root = built[i].entries.front();
      built[pp].children.push_back(ref);
    }
    // Re-home refs to other meta-block trees by their anchor entry.
    for (auto& c : external) {
      auto it = idx_of.find(c.root.parent_block);
      int owner = it == idx_of.end() ? top : ps.piece_of[it->second];
      if (pieces_.contains(c.piece)) pieces_.at(c.piece).parent = pid[owner];
      built[owner].children.push_back(std::move(c));
    }
    // Directory.
    pieces_.at(root_piece).children.clear();
    pieces_.at(root_piece).entries = built[top].entries.size();
    pieces_.at(root_piece).depth = 0;
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      if (static_cast<int>(i) == top) continue;
      HostPieceInfo ni;
      ni.module = pmod[i];
      ni.parent = built[i].parent_piece;
      ni.root_block = built[i].root_block;
      ni.entries = built[i].entries.size();
      pieces_.emplace(pid[i], ni);
    }
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      for (const auto& c : built[i].children) {
        pieces_.at(c.piece).parent = pid[i];
        // Foreign master-root pieces root their own trees: depth stays 0.
        if (!is_master_piece.contains(c.piece))
          pieces_.at(c.piece).depth = pieces_.at(pid[i]).depth + 1;
        pieces_.at(pid[i]).children.push_back(c.piece);
      }
      for (const auto& e : built[i].entries) blocks_.at(e.block).piece = pid[i];
    }
    std::vector<pim::Buffer> push(sys_->p());
    for (std::size_t i = 0; i < ps.pieces.size(); ++i) {
      detail::FrameWriter fw{push[pmod[i]]};
      fw.begin();
      BufWriter bw{push[pmod[i]]};
      bw.u64(detail::kStorePiece);
      built[i].serialize(push[pmod[i]]);
      fw.end();
    }
    std::string lbl3 = std::string(label) + ".push";
    detail::run_round(*sys_, lbl3.c_str(), std::move(push), instance_, hasher_, cfg_.w);
  }
}

void PimTrie::batch_erase(const std::vector<BitString>& keys) {
  batch_erase_prepared(keys, prepare_batch(keys));
}

void PimTrie::batch_erase_prepared(const std::vector<BitString>& keys, trie::QueryTrie qt) {
  if (keys.empty() || root_block_ == kNone) return;
  obs::Phase op_phase("Erase");
  sys_->metrics().add_cpu_work(qt.cpu_work);
  run_matching(qt, "erase", /*op_kind=*/2);

  // ---- deletion cascade (leaffix over the block tree, Section 5.2) ----
  // deletable(B) = no keys in B and every child block deletable. A block
  // holding keys is never deletable, so the walk starts only from
  // key-less blocks and stops at the first child that is not deletable.
  std::unordered_map<BlockId, bool> deletable;
  auto mark = [&](auto& self, BlockId b) -> bool {
    auto it = deletable.find(b);
    if (it != deletable.end()) return it->second;
    const auto& info = blocks_.at(b);
    bool ok = info.keys == 0 && b != root_block_;
    for (std::size_t i = 0; ok && i < info.children.size(); ++i) ok = self(self, info.children[i]);
    deletable.emplace(b, ok);
    return ok;
  };
  std::vector<BlockId> victims;
  for (const auto& [id, info] : blocks_)
    if (info.keys == 0 && mark(mark, id)) victims.push_back(id);
  if (!victims.empty()) {
    obs::Phase maint_phase("Rebuild");
    obs::counter("maint/blocks_removed").add(victims.size());
    remove_blocks(victims, "erase.gc");
  }

  n_keys_ = 0;
  for (const auto& [id, info] : blocks_) n_keys_ += info.keys;
}

void PimTrie::remove_blocks(const std::vector<BlockId>& victims, const char* label) {
  std::unordered_map<std::uint64_t, bool> victim_set;
  for (BlockId b : victims) victim_set[b] = true;

  // One round: delete victim blocks; remove mirror stubs in surviving
  // parents of top-most victims; remove meta entries from their pieces.
  // frame_parent mirrors the per-module frame order so the reply walk
  // below can locate kRemoveMirror acks (kNone marks frames to skip).
  std::vector<pim::Buffer> buffers(sys_->p());
  std::vector<std::vector<BlockId>> frame_parent(sys_->p());
  std::unordered_map<std::uint64_t, std::vector<BlockId>> by_piece;
  for (BlockId b : victims) {
    const auto& info = blocks_.at(b);
    {
      detail::FrameWriter fw{buffers[info.module]};
      fw.begin();
      BufWriter bw{buffers[info.module]};
      bw.u64(detail::kDeleteBlock);
      bw.u64(b);
      fw.end();
      frame_parent[info.module].push_back(kNone);
    }
    if (info.parent != kNone && !victim_set.contains(info.parent)) {
      const auto& pinfo = blocks_.at(info.parent);
      detail::FrameWriter fw{buffers[pinfo.module]};
      fw.begin();
      BufWriter bw{buffers[pinfo.module]};
      bw.u64(detail::kRemoveMirror);
      bw.u64(info.parent);
      bw.u64(b);
      fw.end();
      frame_parent[pinfo.module].push_back(info.parent);
    }
    if (info.piece != kNone) by_piece[info.piece].push_back(b);
  }
  for (auto& [piece, ids] : by_piece) {
    if (!pieces_.contains(piece)) continue;
    std::uint32_t module = pieces_.at(piece).module;
    detail::FrameWriter fw{buffers[module]};
    fw.begin();
    BufWriter bw{buffers[module]};
    bw.u64(detail::kPieceRemoveEntries);
    bw.u64(piece);
    bw.u64(ids.size());
    for (BlockId b : ids) bw.u64(b);
    fw.end();
    frame_parent[module].push_back(kNone);
    pieces_.at(piece).entries -= std::min(pieces_.at(piece).entries, ids.size());
  }
  auto results =
      detail::run_round(*sys_, label, std::move(buffers), instance_, hasher_, cfg_.w);
  // Dropping a mirror stub shrinks the surviving parent block on the
  // module; sync the host directory's space figure from the ack.
  for (std::uint32_t m = 0; m < sys_->p(); ++m) {
    BufReader r{results[m]};
    for (BlockId parent : frame_parent[m]) {
      std::uint64_t frame = r.u64();
      std::size_t end = r.pos + frame;
      if (parent != kNone) {
        (void)r.u64();  // key count (unchanged by mirror removal)
        (void)r.u64();  // remaining mirror count
        auto& pinfo = blocks_.at(parent);
        pinfo.space = r.u64();
        pinfo.settled = false;
      }
      r.pos = end;
    }
  }

  // Host directory cleanup.
  for (BlockId b : victims) {
    const auto& info = blocks_.at(b);
    if (info.parent != kNone && blocks_.contains(info.parent)) {
      auto& siblings = blocks_.at(info.parent).children;
      siblings.erase(std::remove(siblings.begin(), siblings.end(), b), siblings.end());
    }
  }
  // Pieces whose root block vanished: their whole subtree of pieces is
  // gone too (all their blocks are descendants of the vanished root).
  std::vector<PieceId> dead_pieces;
  for (const auto& [pid, info] : pieces_)
    if (victim_set.contains(info.root_block)) dead_pieces.push_back(pid);
  if (!dead_pieces.empty()) {
    std::vector<pim::Buffer> del(sys_->p());
    for (PieceId p : dead_pieces) {
      const auto& info = pieces_.at(p);
      detail::FrameWriter fw{del[info.module]};
      fw.begin();
      BufWriter bw{del[info.module]};
      bw.u64(detail::kDeletePiece);
      bw.u64(p);
      fw.end();
      if (info.parent != kNone && pieces_.contains(info.parent)) {
        auto& pc = pieces_.at(info.parent).children;
        pc.erase(std::remove(pc.begin(), pc.end(), p), pc.end());
      }
    }
    std::string lbl = std::string(label) + ".pieces";
    detail::run_round(*sys_, lbl.c_str(), std::move(del), instance_, hasher_, cfg_.w);
    // Drop the ChildPieceRefs held by surviving parent pieces: a stale
    // ref can still hash-verify against query bits (the dead root's
    // string may remain a query prefix) and would route matching into a
    // deleted piece.
    std::unordered_map<std::uint64_t, bool> dead_set;
    for (PieceId p : dead_pieces) dead_set[p] = true;
    std::vector<pim::Buffer> fix(sys_->p());
    bool any_fix = false;
    for (PieceId p : dead_pieces) {
      PieceId parent = pieces_.at(p).parent;
      if (parent == kNone || dead_set.contains(parent) || !pieces_.contains(parent)) continue;
      std::uint32_t module = pieces_.at(parent).module;
      detail::FrameWriter fw{fix[module]};
      fw.begin();
      BufWriter bw{fix[module]};
      bw.u64(detail::kPieceDropChildRef);
      bw.u64(parent);
      bw.u64(p);
      fw.end();
      any_fix = true;
    }
    for (PieceId p : dead_pieces) pieces_.erase(p);
    if (any_fix) {
      std::string lbl2 = std::string(label) + ".refs";
      detail::run_round(*sys_, lbl2.c_str(), std::move(fix), instance_, hasher_, cfg_.w);
    }
  }
  bool master_changed = false;
  std::erase_if(master_roots_, [&](const MasterRoot& mr) {
    bool dead = victim_set.contains(mr.root.block);
    master_changed |= dead;
    return dead;
  });
  for (BlockId b : victims) {
    blocks_.erase(b);
    spre_of_.erase(b);
  }
  if (master_changed) push_master((std::string(label) + ".master").c_str());
}

}  // namespace ptrie::pimtrie
