// PimTrie: construction (bulk load) and shared helpers. The matching
// pipeline lives in pim_trie_match.cpp, updates in pim_trie_update.cpp.

#include "pimtrie/pim_trie.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "core/parallel.hpp"
#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "pimtrie/decompose.hpp"
#include "pimtrie/detail.hpp"
#include "trie/euler_partition.hpp"
#include "trie/treefix.hpp"

namespace ptrie::pimtrie {

using core::BitString;
using trie::kNil;
using trie::NodeId;
using trie::Patricia;

namespace {
std::atomic<std::uint64_t> g_instance{1};
}

namespace internal {

TreePieces decompose_tree(const std::vector<std::vector<int>>& children, int root,
                          std::size_t bound) {
  TreePieces out;
  out.piece_of.assign(children.size(), -1);
  // removed[v]: the edge into v has been cut (v roots another part).
  std::vector<char> removed(children.size(), 0);

  // Effective subtree size below v, skipping removed child edges.
  auto eff_size = [&](int v, auto&& self) -> std::size_t {
    std::size_t n = 1;
    for (int c : children[v])
      if (!removed[c]) n += self(c, self);
    return n;
  };

  auto rec = [&](int r, int parent_piece, auto&& self) -> int {
    std::size_t n = eff_size(r, eff_size);
    if (n <= bound) {
      TreePieces::P p;
      p.parent_piece = parent_piece;
      p.root = r;
      // Preorder collection.
      std::vector<int> stack{r};
      while (!stack.empty()) {
        int v = stack.back();
        stack.pop_back();
        p.nodes.push_back(v);
        for (auto it = children[v].rbegin(); it != children[v].rend(); ++it)
          if (!removed[*it]) stack.push_back(*it);
      }
      int idx = static_cast<int>(out.pieces.size());
      for (int v : p.nodes) out.piece_of[v] = idx;
      out.pieces.push_back(std::move(p));
      return idx;
    }
    // Cut node: deepest node whose effective subtree exceeds (n+1)/2.
    // The descent must be strict — with >= it can run to a leaf when a
    // child subtree is exactly (n+1)/2 (e.g. a 2-chain), where cutting
    // child edges removes nothing and the recursion never shrinks.
    // Strictness keeps the lemma: at the stop node eff(v) > (n+1)/2, so
    // the upper part n - eff(v) + 1 <= (n+1)/2, and every cut child
    // subtree is <= (n+1)/2 by the stop condition.
    int v = r;
    for (;;) {
      int best = -1;
      std::size_t best_sz = 0;
      for (int c : children[v]) {
        if (removed[c]) continue;
        std::size_t sz = eff_size(c, eff_size);
        if (sz > best_sz) {
          best_sz = sz;
          best = c;
        }
      }
      if (best == -1 || best_sz <= (n + 1) / 2) break;
      v = best;
    }
    // Cut all of v's (effective) child edges (Lemma 4.5).
    std::vector<int> cut;
    for (int c : children[v])
      if (!removed[c]) {
        removed[c] = 1;
        cut.push_back(c);
      }
    int idx = self(r, parent_piece, self);  // upper part, halved; recurse
    // Children hang below the piece that actually contains the cut node.
    for (int c : cut) self(c, out.piece_of[v], self);
    return idx;
  };
  rec(root, -1, rec);
  return out;
}

}  // namespace internal

PimTrie::PimTrie(pim::System& sys, Config cfg)
    : sys_(&sys),
      cfg_(cfg),
      hasher_(cfg.seed, cfg.fingerprint_bits),
      instance_(g_instance.fetch_add(1)) {
  cfg_.p = sys.p();
}

MetaEntry PimTrie::make_entry(BlockId b) const {
  const HostBlockInfo& info = blocks_.at(b);
  MetaEntry e;
  e.block = b;
  e.module = info.module;
  e.root_hash = info.root_hash;
  e.root_depth = info.root_depth;
  e.parent_block = info.parent;
  std::uint64_t pivot = (info.root_depth / cfg_.w) * cfg_.w;
  std::uint64_t rem = info.root_depth - pivot;
  // root_tail holds the last min(w, depth) bits; srem is its suffix view.
  assert(rem <= info.root_tail.size());
  e.srem = info.root_tail.suffix(info.root_tail.size() - rem);
  e.slast = info.root_tail;
  // spre hash: hash of prefix of length `pivot` — derivable only at
  // construction; we stash it in the directory via root_hash bookkeeping.
  // Caller paths set spre_hash explicitly when they have it; for
  // directory-driven entries we recompute from stored data:
  e.spre_hash = spre_of_.at(b);
  return e;
}

void PimTrie::push_master(const char* label) {
  // Master entries carry *master-level* parent pointers: the nearest
  // ancestor block that is itself a master root. This is what makes the
  // second layer's "root or direct child" resolution (Section 4.4.2)
  // work inside the master index — the shallowest maximizer's nearest
  // master ancestor is exactly the deepest on-path master root.
  std::unordered_map<std::uint64_t, bool> is_master;
  for (const auto& mr : master_roots_) is_master[mr.root.block] = true;
  auto master_parent = [&](BlockId b) -> BlockId {
    BlockId cur = blocks_.at(b).parent;
    while (cur != kNone && !is_master.contains(cur)) cur = blocks_.at(cur).parent;
    return cur == kNone ? kNone : cur;
  };

  // Master replication is a broadcast store; attribute it to ChunkPush
  // alongside the build-time block/piece pushes.
  obs::Phase push_phase("ChunkPush");
  obs::counter("master/pushes").add();
  pim::Buffer payload;
  detail::FrameWriter fw{payload};
  fw.begin();
  BufWriter bw{payload};
  bw.u64(detail::kStoreMaster);
  bw.u64(master_roots_.size());
  for (const auto& mr : master_roots_) {
    MetaEntry e = mr.root;
    e.parent_block = master_parent(e.block);
    e.serialize(payload);
    bw.u64(mr.piece);
    bw.u64(mr.module);
  }
  fw.end();
  const hash::PolyHasher& hasher = hasher_;
  unsigned w = cfg_.w;
  std::uint64_t inst = instance_;
  sys_->broadcast_round(label, payload, [inst, &hasher, w](pim::Module& m, pim::Buffer in) {
    return detail::kernel(m, std::move(in), inst, hasher, w);
  });
}

QueryPiece PimTrie::make_piece(const trie::QueryTrie& qt, NodeId root,
                               const std::vector<char>& is_cut) const {
  QueryPiece p;
  const Patricia& t = qt.trie;
  p.root_depth = t.node(root).depth;
  p.root_hash = qt.node_hash[root];
  // Root tail: last min(w, depth) bits of the root's string.
  BitString s = t.node_string(root);
  std::uint64_t tail = std::min<std::uint64_t>(cfg_.w, p.root_depth);
  p.root_tail = s.suffix(s.size() - tail);
  // Pivot hash at floor(depth/w)*w.
  std::uint64_t pivot = (p.root_depth / cfg_.w) * cfg_.w;
  p.root_pivot_hash = hasher_.hash_prefix(s, pivot);
  p.trie = t.extract(root, is_cut);
  return p;
}

trie::NodeId PimTrie::materialize(trie::QueryTrie& qt, NodeId below,
                                  std::uint64_t abs_depth) const {
  Patricia& t = qt.trie;
  NodeId cur = below;
  // Walk up until abs_depth lies within cur's edge (or at its end).
  while (t.node(cur).parent != kNil && t.node(t.node(cur).parent).depth >= abs_depth)
    cur = t.node(cur).parent;
  if (t.node(cur).depth == abs_depth) return cur;
  assert(t.node(cur).depth > abs_depth);
  NodeId mid = t.split_edge(cur, t.node(cur).depth - abs_depth);
  // Maintain the node-hash array for the new node.
  if (qt.node_hash.size() < t.slot_count()) qt.node_hash.resize(t.slot_count(), 0);
  const auto& m = t.node(mid);
  qt.node_hash[mid] = hasher_.extend(
      m.parent == kNil ? hasher_.empty() : qt.node_hash[m.parent], m.edge, 0, m.edge.size());
  return mid;
}

void PimTrie::build(const std::vector<BitString>& keys, const std::vector<trie::Value>& values) {
  assert(keys.size() == values.size());
  obs::Phase op_phase("Build");
  blocks_.clear();
  pieces_.clear();
  master_roots_.clear();
  spre_of_.clear();
  n_keys_ = 0;

  // 1. Reference data trie on the host (construction-time only).
  //    Parallel stable sort + run-boundary dedup + scatter: each stage is
  //    worker-count invariant (see core/parallel.hpp).
  std::vector<BitString> sorted(keys.size());
  std::vector<trie::Value> vals(keys.size());
  {
    std::size_t n = keys.size();
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    core::parallel_stable_sort(
        perm.begin(), perm.end(),
        [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    core::parallel_for(
        0, n,
        [&](std::size_t i) {
          sorted[i] = keys[perm[i]];
          vals[i] = values[perm[i]];
        },
        /*grain=*/2048);
    // Dedup, last value wins: a run's slot takes the value of its last
    // element (run end = boundary of the next run).
    std::vector<std::size_t> rank(n, 0);
    core::parallel_for(
        0, n,
        [&](std::size_t i) { rank[i] = (i == 0 || !(sorted[i - 1] == sorted[i])) ? 1 : 0; },
        /*grain=*/2048);
    std::size_t n_uniq = n == 0 ? 0 : core::parallel_inclusive_scan(rank);
    std::vector<BitString> uk(n_uniq);
    std::vector<trie::Value> uv(n_uniq);
    core::parallel_for(
        0, n,
        [&](std::size_t i) {
          if (i == 0 || rank[i] != rank[i - 1]) uk[rank[i] - 1] = std::move(sorted[i]);
          if (i + 1 == n || rank[i + 1] != rank[i]) uv[rank[i] - 1] = vals[i];
        },
        /*grain=*/2048);
    sorted = std::move(uk);
    vals = std::move(uv);
  }
  std::vector<std::size_t> lcp(sorted.size(), 0);
  core::parallel_for(
      1, sorted.size(), [&](std::size_t i) { lcp[i] = sorted[i - 1].lcp(sorted[i]); },
      /*grain=*/1024);
  Patricia data = Patricia::build_sorted(sorted, lcp, &vals);
  n_keys_ = data.key_count();

  std::size_t kb = cfg_.block_bound();

  // 2. Cut long edges so no node outweighs a block (Section 4.2).
  {
    std::size_t max_edge_bits = std::max<std::size_t>(64, (kb - 8) * 64);
    // Collect then split (splitting invalidates iteration order only).
    bool again = true;
    while (again) {
      again = false;
      for (NodeId id : data.preorder_ids()) {
        if (data.node(id).edge.size() > max_edge_bits) {
          data.split_edge(id, data.node(id).edge.size() - max_edge_bits);
          again = true;
        }
      }
    }
  }

  // 3. Weighted Euler-tour partition into blocks of <= K_B words.
  auto weight = [&](NodeId id) -> std::uint64_t {
    return 8 + data.node(id).edge.word_count();
  };
  trie::PartitionResult part = trie::euler_partition(data, weight, kb);

  // 4. Per-node absolute hashes (and per-node pivot hashes) in one
  //    preorder pass; root tails recomputed exactly per partition root.
  std::vector<hash::HashVal> node_hash(data.slot_count(), 0);
  std::vector<hash::HashVal> pivot_hash(data.slot_count(), 0);  // at floor(depth/w)*w
  std::unordered_map<NodeId, BitString> tails;
  std::vector<char> is_root(data.slot_count(), 0);
  for (NodeId r : part.roots) is_root[r] = 1;
  {
    node_hash[data.root()] = hasher_.empty();
    pivot_hash[data.root()] = hasher_.empty();
    for (NodeId c : data.preorder_ids()) {
      const auto& cn = data.node(c);
      if (cn.parent == kNil) continue;
      std::uint64_t du = data.node(cn.parent).depth, dv = cn.depth;
      hash::HashVal h = node_hash[cn.parent];
      hash::HashVal hp = pivot_hash[cn.parent];
      std::uint64_t dcur = du;
      for (std::uint64_t pi = (du / cfg_.w + 1) * cfg_.w; pi <= dv; pi += cfg_.w) {
        h = hasher_.extend(h, cn.edge, dcur - du, pi - dcur);
        hp = h;
        dcur = pi;
      }
      h = hasher_.extend(h, cn.edge, dcur - du, dv - dcur);
      node_hash[c] = h;
      pivot_hash[c] = hp;
    }
    for (NodeId r : part.roots) {
      BitString s = data.node_string(r);
      std::uint64_t tail = std::min<std::uint64_t>(cfg_.w, s.size());
      tails[r] = s.suffix(s.size() - tail);
    }
  }

  // 5. Extract blocks, assign ids and modules.
  std::unordered_map<NodeId, BlockId> block_of_root;
  for (NodeId r : part.roots) block_of_root[r] = fresh_block_id();
  root_block_ = block_of_root[data.root()];

  std::vector<pim::Buffer> buffers(sys_->p());
  std::vector<BlockId> order;  // block creation order = meta preorder
  // Module placement consumes the RNG in root order (serial, so the
  // stream is identical for every worker count), then the expensive
  // extraction of each block runs in parallel; registration and
  // serialization stay serial to keep directory + wire order canonical.
  std::vector<std::uint32_t> module_of_root(part.roots.size());
  for (std::size_t ri = 0; ri < part.roots.size(); ++ri)
    module_of_root[ri] = static_cast<std::uint32_t>(sys_->random_module());
  std::vector<Block> built_blocks(part.roots.size());
  core::parallel_for(
      0, part.roots.size(),
      [&](std::size_t ri) {
        NodeId r = part.roots[ri];
        Block& blk = built_blocks[ri];
        blk.id = block_of_root.at(r);
        blk.root_hash = node_hash[r];
        blk.root_depth = data.node(r).depth;
        blk.trie = data.extract(r, is_root);  // cut at every other root
        // Mirrors: extracted stubs whose origin is another partition root.
        blk.trie.preorder([&](NodeId n) {
          NodeId origin = blk.trie.node(n).origin;
          if (n != blk.trie.root() && origin != kNil && is_root[origin])
            blk.mirrors.emplace(n, block_of_root.at(origin));
        });
        // Meta-tree parent: owner of r's parent in the data trie.
        BlockId parent = kNone;
        if (r != data.root()) parent = block_of_root.at(part.owner[data.node(r).parent]);
        blk.parent = parent;
      },
      /*grain=*/1);
  for (std::size_t ri = 0; ri < part.roots.size(); ++ri) {
    NodeId r = part.roots[ri];
    BlockId id = block_of_root[r];
    std::uint32_t module = module_of_root[ri];
    Block& blk = built_blocks[ri];
    BlockId parent = blk.parent;

    HostBlockInfo info;
    info.module = module;
    info.parent = parent;
    info.root_depth = blk.root_depth;
    info.root_hash = blk.root_hash;
    info.root_tail = tails[r];
    info.space = blk.space_words();
    info.keys = blk.trie.key_count();
    blocks_.emplace(id, std::move(info));
    spre_of_[id] = pivot_hash[r];
    if (parent != kNone) blocks_[parent].children.push_back(id);
    order.push_back(id);

    detail::FrameWriter fw{buffers[module]};
    fw.begin();
    BufWriter bw{buffers[module]};
    bw.u64(detail::kStoreBlock);
    blk.serialize(buffers[module]);
    fw.end();
  }
  {
    obs::Phase push_phase("ChunkPush");
    const hash::PolyHasher& hasher = hasher_;
    unsigned w = cfg_.w;
    std::uint64_t inst = instance_;
    sys_->round("build.blocks", std::move(buffers),
                [inst, &hasher, w](pim::Module& m, pim::Buffer in) {
                  return detail::kernel(m, std::move(in), inst, hasher, w);
                });
  }

  // 6. Meta-tree decomposition: meta-blocks (<= K_MB), then pieces
  //    (<= K_SMB) per meta-block; meta-block roots go to the master.
  {
    // Index the meta-tree: nodes = blocks in `order` (preorder).
    std::unordered_map<std::uint64_t, int> idx_of;
    for (std::size_t i = 0; i < order.size(); ++i) idx_of[order[i]] = static_cast<int>(i);
    std::vector<std::vector<int>> children(order.size());
    int root_idx = idx_of.at(root_block_);
    for (std::size_t i = 0; i < order.size(); ++i) {
      BlockId parent = blocks_[order[i]].parent;
      if (parent != kNone) children[idx_of[parent]].push_back(static_cast<int>(i));
    }
    internal::TreePieces mbs = internal::decompose_tree(children, root_idx,
                                                        cfg_.meta_block_bound());
    // Per meta-block: recursive piece decomposition. Pieces are linked
    // first (including master-tree edges between meta-blocks) and pushed
    // in one round at the end.
    std::vector<Piece> all_built;
    std::vector<std::uint32_t> all_mod;
    for (const auto& mb : mbs.pieces) {
      // Local index remap.
      std::unordered_map<int, int> local;
      std::vector<int> back(mb.nodes.size());
      for (std::size_t i = 0; i < mb.nodes.size(); ++i) {
        local[mb.nodes[i]] = static_cast<int>(i);
        back[i] = mb.nodes[i];
      }
      std::vector<std::vector<int>> lchildren(mb.nodes.size());
      for (std::size_t i = 0; i < mb.nodes.size(); ++i)
        for (int c : children[back[i]])
          if (local.contains(c)) lchildren[i].push_back(local[c]);
      internal::TreePieces ps =
          internal::decompose_tree(lchildren, local.at(mb.root), cfg_.piece_bound());

      // Create pieces, wire parent/child refs, send to random modules.
      std::vector<PieceId> pid(ps.pieces.size());
      std::vector<std::uint32_t> pmod(ps.pieces.size());
      for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
        pid[pi] = fresh_piece_id();
        pmod[pi] = static_cast<std::uint32_t>(sys_->random_module());
      }
      std::vector<Piece> built(ps.pieces.size());
      for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
        Piece& piece = built[pi];
        piece.id = pid[pi];
        piece.parent_piece = ps.pieces[pi].parent_piece < 0
                                 ? kNone
                                 : pid[ps.pieces[pi].parent_piece];
        piece.root_block = order[back[ps.pieces[pi].root]];
        for (int ln : ps.pieces[pi].nodes) {
          BlockId b = order[back[ln]];
          piece.entries.push_back(make_entry(b));
          blocks_[b].piece = pid[pi];
        }
        HostPieceInfo info;
        info.module = pmod[pi];
        info.parent = piece.parent_piece;
        info.root_block = piece.root_block;
        info.entries = piece.entries.size();
        pieces_.emplace(pid[pi], info);
      }
      for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
        int pp = ps.pieces[pi].parent_piece;
        if (pp < 0) continue;
        ChildPieceRef ref;
        ref.piece = pid[pi];
        ref.module = pmod[pi];
        ref.root = make_entry(built[pi].root_block);
        built[pp].children.push_back(ref);
        pieces_[pid[pp]].children.push_back(pid[pi]);
        pieces_[pid[pi]].depth = pieces_[pid[pp]].depth + 1;
      }
      for (std::size_t pi = 0; pi < ps.pieces.size(); ++pi) {
        all_built.push_back(std::move(built[pi]));
        all_mod.push_back(pmod[pi]);
      }
      // Master root for this meta-block = the piece containing its root.
      int root_piece = ps.piece_of[local.at(mb.root)];
      MasterRoot mr;
      mr.root = make_entry(order[back[local.at(mb.root)]]);
      mr.piece = pid[root_piece];
      mr.module = pmod[root_piece];
      master_roots_.push_back(mr);
    }

    // Master-tree edges: link each non-root meta-block's root piece as a
    // child of the piece holding its parent block's entry (paper Section
    // 4.4: the master-tree organizes meta-blocks). This makes the whole
    // meta-tree reachable by piece descent (used by SubtreeQuery).
    {
      std::unordered_map<std::uint64_t, std::size_t> built_of_piece;
      for (std::size_t i = 0; i < all_built.size(); ++i)
        built_of_piece[all_built[i].id] = i;
      for (const auto& mr : master_roots_) {
        if (mr.root.block == root_block_) continue;
        BlockId parent = blocks_.at(mr.root.block).parent;
        PieceId host_piece = blocks_.at(parent).piece;
        ChildPieceRef ref;
        ref.piece = mr.piece;
        ref.module = mr.module;
        ref.root = mr.root;
        all_built[built_of_piece.at(host_piece)].children.push_back(ref);
        pieces_.at(host_piece).children.push_back(mr.piece);
        pieces_.at(mr.piece).parent = host_piece;
      }
    }

    std::vector<pim::Buffer> pbuf(sys_->p());
    for (std::size_t i = 0; i < all_built.size(); ++i) {
      detail::FrameWriter fw{pbuf[all_mod[i]]};
      fw.begin();
      BufWriter bw{pbuf[all_mod[i]]};
      bw.u64(detail::kStorePiece);
      all_built[i].serialize(pbuf[all_mod[i]]);
      fw.end();
    }
    obs::Phase push_phase("ChunkPush");
    const hash::PolyHasher& hasher = hasher_;
    unsigned w = cfg_.w;
    std::uint64_t inst = instance_;
    sys_->round("build.pieces", std::move(pbuf),
                [inst, &hasher, w](pim::Module& m, pim::Buffer in) {
                  return detail::kernel(m, std::move(in), inst, hasher, w);
                });
  }

  // 7. Replicate the master on every module.
  push_master("build.master");
}

std::size_t PimTrie::space_words() const {
  std::size_t words = 0;
  for (std::size_t i = 0; i < sys_->p(); ++i) {
    const auto& mod = const_cast<pim::System*>(sys_)->module(i);
    if (mod.has_state<detail::ModuleState>(instance_))
      words +=
          const_cast<pim::Module&>(mod).state<detail::ModuleState>(instance_).space_words();
  }
  return words;
}

double PimTrie::space_imbalance() const {
  std::vector<std::size_t> per(sys_->p(), 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < sys_->p(); ++i) {
    auto& mod = const_cast<pim::System*>(sys_)->module(i);
    if (mod.has_state<detail::ModuleState>(instance_))
      per[i] = mod.state<detail::ModuleState>(instance_).space_words();
    total += per[i];
  }
  if (total == 0) return 1.0;
  double mean = static_cast<double>(total) / static_cast<double>(per.size());
  return static_cast<double>(*std::max_element(per.begin(), per.end())) / mean;
}

}  // namespace ptrie::pimtrie

namespace ptrie::pimtrie {

std::vector<std::pair<core::BitString, trie::Value>> PimTrie::debug_collect() const {
  std::vector<std::pair<core::BitString, trie::Value>> out;
  if (root_block_ == kNone) return out;
  auto& sys = *const_cast<pim::System*>(sys_);
  auto block_of = [&](BlockId id) -> const Block* {
    auto it = blocks_.find(id);
    if (it == blocks_.end()) return nullptr;
    auto& mod = sys.module(it->second.module);
    auto& st = mod.state<detail::ModuleState>(instance_);
    auto bit = st.blocks.find(id);
    return bit == st.blocks.end() ? nullptr : &bit->second;
  };
  // DFS over blocks, stitching strings at mirror stubs.
  struct Frame {
    BlockId block;
    core::BitString base;
  };
  std::vector<Frame> bstack{{root_block_, core::BitString()}};
  while (!bstack.empty()) {
    Frame f = std::move(bstack.back());
    bstack.pop_back();
    const Block* blk = block_of(f.block);
    if (blk == nullptr) continue;
    std::vector<std::pair<trie::NodeId, core::BitString>> nstack{
        {blk->trie.root(), f.base}};
    while (!nstack.empty()) {
      auto [id, s] = std::move(nstack.back());
      nstack.pop_back();
      if (blk->is_mirror(id)) {
        bstack.push_back({blk->mirrors.at(id), s});
        continue;
      }
      const auto& n = blk->trie.node(id);
      if (n.has_value) out.emplace_back(s, n.value);
      for (int b = 0; b < 2; ++b) {
        trie::NodeId c = n.child[b];
        if (c == kNil) continue;
        core::BitString cs = s;
        cs.append(blk->trie.node(c).edge);
        nstack.emplace_back(c, std::move(cs));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string PimTrie::debug_check() const {
  auto& sys = *const_cast<pim::System*>(sys_);
  std::string problems;
  auto complain = [&](const std::string& s) {
    if (problems.size() < 4000) problems += s + "\n";
  };
  // Every directory block exists on its module with matching metadata,
  // and its meta entry is present in the recorded piece with consistent
  // (spre, srem, slast).
  for (const auto& [id, info] : blocks_) {
    auto& st = sys.module(info.module).state<detail::ModuleState>(instance_);
    auto bit = st.blocks.find(id);
    if (bit == st.blocks.end()) {
      complain("block " + std::to_string(id) + " missing on module");
      continue;
    }
    const Block& blk = bit->second;
    if (blk.root_depth != info.root_depth)
      complain("block " + std::to_string(id) + " depth mismatch");
    if (blk.root_hash != info.root_hash)
      complain("block " + std::to_string(id) + " hash mismatch");
    // Mirror stubs match the directory's children list.
    std::vector<BlockId> kids;
    for (const auto& [n, cb] : blk.mirrors) kids.push_back(cb);
    std::sort(kids.begin(), kids.end());
    std::vector<BlockId> want = info.children;
    std::sort(want.begin(), want.end());
    if (kids != want) {
      std::string msg = "block " + std::to_string(id) + " mirror/children mismatch: mirrors={";
      for (auto k : kids) msg += std::to_string(k) + ",";
      msg += "} children={";
      for (auto k : want) msg += std::to_string(k) + ",";
      msg += "}";
      complain(msg);
    }
    if (id != root_block_) {
      if (info.piece == kNone || !pieces_.contains(info.piece)) {
        complain("block " + std::to_string(id) + " has no piece");
      } else {
        const auto& pinfo = pieces_.at(info.piece);
        auto& pst = sys.module(pinfo.module).state<detail::ModuleState>(instance_);
        auto pit = pst.pieces.find(info.piece);
        if (pit == pst.pieces.end()) {
          complain("piece " + std::to_string(info.piece) + " missing on module");
        } else {
          const MetaEntry* e = pit->second.entry_of(id);
          if (e == nullptr) {
            complain("block " + std::to_string(id) + " entry missing in piece " +
                     std::to_string(info.piece));
          } else {
            if (e->root_depth != info.root_depth)
              complain("entry depth mismatch block " + std::to_string(id));
            if (e->root_hash != info.root_hash)
              complain("entry hash mismatch block " + std::to_string(id));
            std::uint64_t pivot = (info.root_depth / cfg_.w) * cfg_.w;
            if (e->srem.size() != info.root_depth - pivot)
              complain("entry srem size mismatch block " + std::to_string(id));
          }
        }
      }
    }
  }
  // Host piece directory vs resident pieces: linkage, entry counts, the
  // replicated child roots, and the two-layer index over each piece.
  for (const auto& [pid, pinfo] : pieces_) {
    auto& st = sys.module(pinfo.module).state<detail::ModuleState>(instance_);
    auto pit = st.pieces.find(pid);
    if (pit == st.pieces.end()) {
      complain("piece " + std::to_string(pid) + " missing on module");
      continue;
    }
    const Piece& pc = pit->second;
    if (pc.id != pid) complain("piece " + std::to_string(pid) + " id mismatch");
    // (The module-side parent_piece field may go stale when a child piece
    // is re-homed by a split/rebuild; only the host directory is
    // authoritative for piece linkage, so it is not checked here.)
    if (pc.root_block != pinfo.root_block)
      complain("piece " + std::to_string(pid) + " root block mismatch");
    if (pc.entries.size() != pinfo.entries)
      complain("piece " + std::to_string(pid) + " entry count host=" +
               std::to_string(pinfo.entries) + " module=" + std::to_string(pc.entries.size()));
    std::vector<PieceId> kids;
    for (const auto& c : pc.children) kids.push_back(c.piece);
    std::sort(kids.begin(), kids.end());
    std::vector<PieceId> want = pinfo.children;
    std::sort(want.begin(), want.end());
    if (kids != want) complain("piece " + std::to_string(pid) + " child refs mismatch");
    for (const auto& c : pc.children) {
      auto cit = pieces_.find(c.piece);
      if (cit == pieces_.end()) {
        complain("piece " + std::to_string(pid) + " child ref to unknown piece " +
                 std::to_string(c.piece));
      } else {
        if (cit->second.parent != pid)
          complain("piece " + std::to_string(c.piece) + " parent link disagrees");
        if (c.module != cit->second.module)
          complain("piece " + std::to_string(pid) + " stale child module for " +
                   std::to_string(c.piece));
        if (c.root.block != cit->second.root_block)
          complain("piece " + std::to_string(pid) + " stale child root for " +
                   std::to_string(c.piece));
      }
    }
    if (pc.index().size() != pc.entries.size() + pc.children.size())
      complain("piece " + std::to_string(pid) + " index size mismatch");
    std::string ip = pc.index().debug_check();
    if (!ip.empty()) complain("piece " + std::to_string(pid) + " index: " + ip);
    for (const auto& e : pc.entries) {
      auto bit = blocks_.find(e.block);
      if (bit == blocks_.end())
        complain("piece " + std::to_string(pid) + " entry for unknown block " +
                 std::to_string(e.block));
      else if (bit->second.piece != pid)
        complain("block " + std::to_string(e.block) + " directory piece disagrees with " +
                 std::to_string(pid));
    }
  }
  // Master replication: every module holds an identical replica of the
  // host's master roots, with a matching index.
  for (std::uint32_t m = 0; m < sys.p(); ++m) {
    auto& mod = sys.module(m);
    if (!mod.has_state<detail::ModuleState>(instance_)) continue;
    const auto& mr = mod.state<detail::ModuleState>(instance_).master;
    if (mr.roots.size() != master_roots_.size() ||
        mr.piece_of.size() != master_roots_.size() ||
        mr.module_of.size() != master_roots_.size()) {
      complain("module " + std::to_string(m) + " master replica size mismatch");
      continue;
    }
    for (std::size_t i = 0; i < master_roots_.size(); ++i) {
      const MasterRoot& h = master_roots_[i];
      if (mr.roots[i].block != h.root.block || mr.roots[i].root_hash != h.root.root_hash ||
          mr.roots[i].root_depth != h.root.root_depth)
        complain("module " + std::to_string(m) + " master root " + std::to_string(i) +
                 " diverged");
      if (mr.piece_of[i] != h.piece || mr.module_of[i] != h.module)
        complain("module " + std::to_string(m) + " master routing " + std::to_string(i) +
                 " diverged");
    }
    if (mr.index.size() != mr.roots.size())
      complain("module " + std::to_string(m) + " master index size mismatch");
  }
  for (const MasterRoot& h : master_roots_) {
    if (!pieces_.contains(h.piece))
      complain("master root piece " + std::to_string(h.piece) + " not in directory");
  }
  // Key accounting: per-block directory key counts sum to n_keys_.
  std::size_t keysum = 0;
  for (const auto& [id, info] : blocks_) keysum += info.keys;
  if (keysum != n_keys_)
    complain("key count mismatch: directory sum " + std::to_string(keysum) + " vs n_keys " +
             std::to_string(n_keys_));
  return problems;
}

std::string PimTrie::debug_check_deep() const {
  auto& sys = *const_cast<pim::System*>(sys_);
  std::string problems;
  auto complain = [&](const std::string& s) {
    if (problems.size() < 4000) problems += s + "\n";
  };
  // Exact host-directory accounting against the resident blocks; mirror
  // stubs never carry values.
  for (const auto& [id, info] : blocks_) {
    auto& st = sys.module(info.module).state<detail::ModuleState>(instance_);
    auto bit = st.blocks.find(id);
    if (bit == st.blocks.end()) continue;  // debug_check() reports this
    const Block& blk = bit->second;
    if (info.space != blk.space_words())
      complain("block " + std::to_string(id) + " space host=" + std::to_string(info.space) +
               " actual=" + std::to_string(blk.space_words()));
    if (info.keys != blk.trie.key_count())
      complain("block " + std::to_string(id) + " keys host=" + std::to_string(info.keys) +
               " actual=" + std::to_string(blk.trie.key_count()));
    for (const auto& [n, cb] : blk.mirrors) {
      if (blk.trie.node(n).has_value)
        complain("block " + std::to_string(id) + " mirror stub carries a value");
    }
    // Insert maintenance skips settled blocks on the premise that their
    // re-partition would still find nothing to split.
    if (info.settled) {
      Block copy = blk;
      std::size_t roots = partition_block(copy).roots.size();
      if (roots > 1)
        complain("settled block " + std::to_string(id) + " now partitions into " +
                 std::to_string(roots) + " roots");
    }
  }
  // Occupancy: piece entries within the split bound; meta-block-tree
  // heights within the scapegoat envelope (relaxed to the global piece
  // count, which only loosens the log).
  std::size_t height_bound = 2 * Config::log2_ceil(std::max<std::size_t>(pieces_.size(), 2)) + 4;
  for (const auto& [pid, pinfo] : pieces_) {
    if (pinfo.entries > cfg_.piece_bound())
      complain("piece " + std::to_string(pid) + " over bound: " + std::to_string(pinfo.entries) +
               " > " + std::to_string(cfg_.piece_bound()));
    if (pinfo.depth > height_bound)
      complain("piece " + std::to_string(pid) + " depth " + std::to_string(pinfo.depth) +
               " exceeds height bound " + std::to_string(height_bound));
  }
  return problems;
}

void PimTrie::debug_corrupt(int kind) {
  if (kind == 0) {
    n_keys_ ^= 1;
  } else if (!blocks_.empty()) {
    blocks_.begin()->second.root_hash ^= 1;
  }
}

}  // namespace ptrie::pimtrie
