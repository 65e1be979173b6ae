// The on-module half of PimTrie: one kernel dispatching the framed
// message protocol of detail.hpp. Every branch charges PIM work
// proportional to the instructions a real DPU program would execute.

#include "pimtrie/detail.hpp"

#include "core/check.hpp"
#include "obs/counters.hpp"

namespace {
// Kernels execute on pool workers; both the log call (single fwrite)
// and the counters (relaxed atomics) are safe there.
bool kdebug() {
  static const bool on = ptrie::obs::log_enabled(ptrie::obs::LogLevel::kDebug);
  return on;
}
constexpr auto kDebug = ptrie::obs::LogLevel::kDebug;
}  // namespace

namespace ptrie::pimtrie::detail {

using core::BitString;
using trie::kNil;
using trie::NodeId;

namespace {

// Looks up a wire-supplied id in a module-resident map. Ids arrive in host
// messages — across a trust boundary — so a stale or corrupted id must
// surface as a structured error with module context, not release-mode UB.
template <class Map>
typename Map::mapped_type& require(Map& m, std::uint64_t id, const char* what,
                                   std::size_t mod_id) {
  auto it = m.find(id);
  PTRIE_CHECK(it != m.end(), "m%zu: %s %llu not resident", mod_id, what,
              static_cast<unsigned long long>(id));
  return it->second;
}

void write_match_lens(BufWriter& w, const std::vector<MatchLen>& lens) {
  w.u64(lens.size());
  for (const auto& ml : lens) {
    w.u64(ml.origin);
    w.u64(ml.match_len);
    w.u64((ml.full ? 1u : 0u) | (ml.boundary ? 2u : 0u));
  }
}

void write_resolved_matches(BufWriter& w, const std::vector<ResolvedMatch>& ms,
                            const Piece* piece, const MasterReplica* master) {
  w.u64(ms.size());
  for (const auto& m : ms) {
    w.u64(m.point.origin);
    w.u64(m.point.abs_depth);
    w.u64(m.point.at_node_end ? 1 : 0);
    m.entry->serialize(w.out);
    // Descent info: for child-piece hits, where to go next; for master
    // hits, which root piece owns the matched root.
    if (master != nullptr) {
      IndexPayload pl = m.point.payload;
      w.u64(master->piece_of[pl.idx]);
      w.u64(master->module_of[pl.idx]);
    } else if (m.point.payload.kind == IndexPayload::kChild &&
               piece != nullptr && m.entry == &piece->children[m.point.payload.idx].root) {
      const auto& c = piece->children[m.point.payload.idx];
      w.u64(c.piece);
      w.u64(c.module);
    } else {
      w.u64(kNone);  // hit resolved to a local entry: no descent
      w.u64(0);
    }
  }
}

}  // namespace

pim::Buffer kernel(pim::Module& mod, pim::Buffer in, std::uint64_t instance,
                   const hash::PolyHasher& hasher, unsigned w) {
  auto& st = mod.state<ModuleState>(instance);
  pim::Buffer out;
  BufReader r{in};
  std::uint64_t work = 0;

  while (!r.done()) {
    std::uint64_t frame_words = r.u64();
    std::size_t frame_end = r.pos + frame_words;
    Op op = static_cast<Op>(r.u64());
    FrameWriter fw{out};
    fw.begin();
    BufWriter bw{out};

    switch (op) {
      case kStoreBlock: {
        Block b = Block::deserialize(r);
        work += b.space_words() / 4 + 1;
        BlockId id = b.id;
        st.blocks[id] = std::move(b);
        bw.u64(st.blocks[id].space_words());
        break;
      }
      case kDeleteBlock: {
        BlockId id = r.u64();
        st.blocks.erase(id);
        work += 1;
        bw.u64(1);
        break;
      }
      case kFetchBlock: {
        BlockId id = r.u64();
        const Block& blk = require(st.blocks, id, "block", mod.id());
        blk.serialize(out);
        work += blk.space_words() / 4 + 1;
        break;
      }
      case kMatchBlock: {
        BlockId id = r.u64();
        // Host's view of the block root hash: verification hook (Section
        // 4.4.3) — fingerprints must agree or this span is a collision.
        std::uint64_t expect_fp = r.u64();
        QueryPiece q = QueryPiece::deserialize(r);
        const Block& blk = require(st.blocks, id, "block", mod.id());
        bool ok = hasher.fingerprint(blk.root_hash) == expect_fp &&
                  blk.root_depth == q.root_depth;
        // Bit-level check of the root context (S_last style).
        if (ok && !q.root_tail.empty()) {
          // The block's own trie has no tail, but root_hash equality at
          // full 61 bits is checked host-side only when fingerprints are
          // full; with truncated fingerprints rely on depth + tail via
          // the piece metadata (already validated in hash matching).
        }
        bw.u64(ok ? 1 : 0);
        if (ok) {
          auto lens = match_block(q, blk, &work);
          write_match_lens(bw, lens);
        }
        break;
      }
      case kInsertBlock: {
        BlockId id = r.u64();
        std::uint64_t expect_fp = r.u64();
        QueryPiece q = QueryPiece::deserialize(r);
        Block& blk = require(st.blocks, id, "block", mod.id());
        bool ok = hasher.fingerprint(blk.root_hash) == expect_fp &&
                  blk.root_depth == q.root_depth;
        bw.u64(ok ? 1 : 0);
        if (ok) {
          auto lens = match_block(q, blk, &work);
          write_match_lens(bw, lens);
          InsertStats s = insert_into_block(q, blk, &work);
          bw.u64(s.new_keys);
          bw.u64(s.updated_keys);
          bw.u64(blk.space_words());
          bw.u64(blk.trie.key_count());
        }
        break;
      }
      case kEraseBlock: {
        BlockId id = r.u64();
        std::uint64_t expect_fp = r.u64();
        QueryPiece q = QueryPiece::deserialize(r);
        Block& blk = require(st.blocks, id, "block", mod.id());
        bool ok = hasher.fingerprint(blk.root_hash) == expect_fp &&
                  blk.root_depth == q.root_depth;
        bw.u64(ok ? 1 : 0);
        if (ok) {
          auto lens = match_block(q, blk, &work);
          write_match_lens(bw, lens);
          std::size_t removed = erase_from_block(q, blk, &work);
          bw.u64(removed);
          bw.u64(blk.trie.key_count());
          bw.u64(blk.mirrors.size());
          bw.u64(blk.space_words());
        }
        break;
      }
      case kGetBlock: {
        BlockId id = r.u64();
        std::uint64_t expect_fp = r.u64();
        QueryPiece q = QueryPiece::deserialize(r);
        const Block& blk = require(st.blocks, id, "block", mod.id());
        bool ok = hasher.fingerprint(blk.root_hash) == expect_fp &&
                  blk.root_depth == q.root_depth;
        bw.u64(ok ? 1 : 0);
        if (ok) {
          auto lens = match_block(q, blk, &work);
          write_match_lens(bw, lens);
          auto hits = get_from_block(q, blk, &work);
          bw.u64(hits.size());
          for (auto [origin, value] : hits) {
            bw.u64(origin);
            bw.u64(value);
          }
        }
        break;
      }
      case kSliceBlock: {
        BlockId id = r.u64();
        std::uint64_t abs_depth = r.u64();
        BitString suffix = r.bits();
        const Block& blk = require(st.blocks, id, "block", mod.id());
        // Walk the suffix from the block root to locate the position.
        trie::Position pos{blk.trie.root(), 0};
        std::size_t walked;
        std::tie(walked, pos) = blk.trie.lcp(suffix);
        work += suffix.size() / 64 + 2;
        bool found = walked == suffix.size();
        bw.u64(found ? 1 : 0);
        if (found) {
          SubtreeSlice slice = slice_block(blk, pos, abs_depth, &work);
          bw.u64(slice.root_depth);
          // Translate mirror node ids to preorder slots for the wire.
          std::vector<NodeId> order = slice.trie.preorder_ids();
          std::vector<std::uint32_t> slot_of(slice.trie.slot_count(), 0);
          for (std::size_t i = 0; i < order.size(); ++i)
            slot_of[order[i]] = static_cast<std::uint32_t>(i);
          bw.u64(slice.child_blocks.size());
          for (auto [node, cb] : slice.child_blocks) {
            bw.u64(slot_of[node]);
            bw.u64(cb);
          }
          slice.trie.serialize(out);
        }
        break;
      }
      case kSeekBlock: {
        BlockId id = r.u64();
        BitString suffix = r.bits();
        std::uint64_t dir = r.u64();  // 0 = min, 1 = max
        const Block& blk = require(st.blocks, id, "block", mod.id());
        trie::Position pos{blk.trie.root(), 0};
        std::size_t walked;
        std::tie(walked, pos) = blk.trie.lcp(suffix);
        work += suffix.size() / 64 + 2;
        if (walked != suffix.size()) {
          bw.u64(0);  // miss: nothing in this block extends the seek point
          break;
        }
        // Mid-edge match: every key below the seek point runs through
        // pos.node, reached via the unmatched tail of its edge.
        BitString path0;
        if (pos.above > 0) {
          const BitString& edge = blk.trie.node(pos.node).edge;
          path0 = edge.suffix(edge.size() - pos.above);
        }
        struct Item {
          NodeId n;
          std::uint32_t post;  // max order: emit own value after children
          BitString path;      // bits below the seek point
        };
        std::vector<Item> stack{{pos.node, 0, std::move(path0)}};
        std::uint64_t kind = 0;
        while (!stack.empty() && kind == 0) {
          Item it = std::move(stack.back());
          stack.pop_back();
          ++work;
          const auto& n = blk.trie.node(it.n);
          if (it.post) {
            if (n.has_value) {
              bw.u64(kind = 1);
              bw.bits(it.path);
              bw.u64(n.value);
            }
            continue;
          }
          if (blk.is_mirror(it.n)) {
            // A stub's content (its own key included) lives in the child
            // block; the host continues the descent there.
            bw.u64(kind = 2);
            bw.u64(blk.mirrors.at(it.n));
            bw.bits(it.path);
            continue;
          }
          if (dir == 0) {
            // Min order: the node's own key is a prefix of everything
            // below it, then the 0-subtree, then the 1-subtree.
            if (n.has_value) {
              bw.u64(kind = 1);
              bw.bits(it.path);
              bw.u64(n.value);
              continue;
            }
            for (int b = 1; b >= 0; --b) {
              if (n.child[b] == kNil) continue;
              BitString cp = it.path;
              cp.append(blk.trie.node(n.child[b]).edge);
              stack.push_back({n.child[b], 0, std::move(cp)});
            }
          } else {
            // Max order: 1-subtree, then 0-subtree, then the own key.
            stack.push_back({it.n, 1, it.path});
            for (int b = 0; b <= 1; ++b) {
              if (n.child[b] == kNil) continue;
              BitString cp = it.path;
              cp.append(blk.trie.node(n.child[b]).edge);
              stack.push_back({n.child[b], 0, std::move(cp)});
            }
          }
        }
        if (kind == 0) bw.u64(0);  // no stored key under the seek point
        break;
      }
      case kRemoveMirror: {
        BlockId id = r.u64();
        BlockId child = r.u64();
        Block& blk = require(st.blocks, id, "block", mod.id());
        NodeId stub = kNil;
        for (const auto& [node, cb] : blk.mirrors)
          if (cb == child) stub = node;
        if (stub != kNil) {
          blk.mirrors.erase(stub);
          if (blk.trie.node(stub).child[0] == kNil && blk.trie.node(stub).child[1] == kNil &&
              !blk.trie.node(stub).has_value && stub != blk.trie.root()) {
            blk.trie.remove_leaf(stub);
          }
        }
        work += blk.mirrors.size() + 2;
        bw.u64(blk.trie.key_count());
        bw.u64(blk.mirrors.size());
        bw.u64(blk.space_words());
        break;
      }

      case kStorePiece: {
        Piece p = Piece::deserialize(r);
        p.build_index(hasher, w);
        work += (p.entries.size() + p.children.size()) * 4 + 1;
        PieceId id = p.id;
        st.pieces[id] = std::move(p);
        bw.u64(1);
        break;
      }
      case kDeletePiece: {
        PieceId id = r.u64();
        st.pieces.erase(id);
        work += 1;
        bw.u64(1);
        break;
      }
      case kFetchPiece: {
        PieceId id = r.u64();
        const Piece& piece = require(st.pieces, id, "piece", mod.id());
        piece.serialize(out);
        work += piece.wire_words() / 4 + 1;
        break;
      }
      case kMatchPiece: {
        PieceId id = r.u64();
        QueryPiece q = QueryPiece::deserialize(r);
        const Piece& piece = require(st.pieces, id, "piece", mod.id());
        HashMatchStats hms;
        auto matches =
            hash_match(q, piece.index(), hasher, w, EntryResolver::of(piece), &hms, &work);
        obs::counter("kernel/pivot_lookups").add(hms.pivot_lookups);
        obs::counter("kernel/second_layer_queries").add(hms.second_layer_queries);
        obs::counter("kernel/verifications").add(hms.verifications);
        obs::counter("kernel/rejected_collisions").add(hms.rejected_collisions);
        if (kdebug())
          obs::logf(kDebug, "kMatchPiece",
                    "m%zu p%llu entries=%zu kids=%zu matches=%zu piv=%llu sl=%llu ver=%llu rej=%llu qdepth=%llu qsize=%zu",
                    mod.id(), (unsigned long long)id, piece.entries.size(),
                    piece.children.size(), matches.size(),
                    (unsigned long long)hms.pivot_lookups,
                    (unsigned long long)hms.second_layer_queries,
                    (unsigned long long)hms.verifications,
                    (unsigned long long)hms.rejected_collisions,
                    (unsigned long long)q.root_depth, q.trie.node_count());
        write_resolved_matches(bw, matches, &piece, nullptr);
        break;
      }
      case kFetchPieceChildren: {
        PieceId id = r.u64();
        const Piece& piece = require(st.pieces, id, "piece", mod.id());
        bw.u64(piece.children.size());
        for (const auto& c : piece.children) c.serialize(out);
        work += piece.children.size() * 4 + 1;
        break;
      }
      case kPieceAddEntries: {
        PieceId id = r.u64();
        std::uint64_t n = r.u64();
        Piece& piece = require(st.pieces, id, "piece", mod.id());
        std::vector<MetaEntry> added(n);
        for (auto& e : added) e = MetaEntry::deserialize(r);
        bool appended = piece.append_entries(hasher, w, std::move(added));
        work += (appended ? n : piece.entries.size()) * 4 + 1;
        bw.u64(piece.entries.size());
        break;
      }
      case kPieceRemoveEntries: {
        PieceId id = r.u64();
        std::uint64_t n = r.u64();
        Piece& piece = require(st.pieces, id, "piece", mod.id());
        std::vector<BlockId> victims(n);
        for (auto& v : victims) v = r.u64();
        std::erase_if(piece.entries, [&](const MetaEntry& e) {
          for (BlockId v : victims)
            if (e.block == v) return true;
          return false;
        });
        piece.build_index(hasher, w);
        work += piece.entries.size() * 4 + n + 1;
        bw.u64(piece.entries.size());
        break;
      }
      case kPieceSetChildren: {
        PieceId id = r.u64();
        std::uint64_t n = r.u64();
        Piece& piece = require(st.pieces, id, "piece", mod.id());
        piece.children.clear();
        for (std::uint64_t i = 0; i < n; ++i)
          piece.children.push_back(ChildPieceRef::deserialize(r));
        piece.build_index(hasher, w);
        work += piece.children.size() * 4 + 1;
        bw.u64(1);
        break;
      }
      case kPieceSetParent: {
        PieceId id = r.u64();
        BlockId block = r.u64();
        BlockId new_parent = r.u64();
        Piece& piece = require(st.pieces, id, "piece", mod.id());
        for (auto& e : piece.entries)
          if (e.block == block) e.parent_block = new_parent;
        for (auto& c : piece.children)
          if (c.root.block == block) c.root.parent_block = new_parent;
        work += piece.entries.size() + piece.children.size();
        bw.u64(1);
        break;
      }
      case kPieceDropChildRef: {
        PieceId id = r.u64();
        PieceId child = r.u64();
        Piece& piece = require(st.pieces, id, "piece", mod.id());
        auto& kids = piece.children;
        std::erase_if(kids, [&](const ChildPieceRef& c) { return c.piece == child; });
        piece.build_index(hasher, w);
        work += kids.size() + 1;
        bw.u64(1);
        break;
      }
      case kCollectSubtree: {
        PieceId id = r.u64();
        BlockId target = r.u64();
        const Piece& piece = require(st.pieces, id, "piece", mod.id());
        // Entries of this piece whose meta-tree ancestor chain (within
        // the piece) reaches `target`, or the target itself. Incremental
        // inserts append entries in arbitrary order, so close over the
        // parent links by BFS rather than a positional pass.
        std::unordered_multimap<std::uint64_t, const MetaEntry*> by_parent;
        for (const auto& e : piece.entries) {
          by_parent.emplace(e.parent_block, &e);
          work += 1;
        }
        std::unordered_map<std::uint64_t, bool> under;
        under[target] = true;
        std::vector<const MetaEntry*> collected;
        std::vector<BlockId> bfs{target};
        while (!bfs.empty()) {
          BlockId b = bfs.back();
          bfs.pop_back();
          auto [lo, hi] = by_parent.equal_range(b);
          for (auto pe = lo; pe != hi; ++pe) {
            const MetaEntry* e = pe->second;
            if (under.contains(e->block)) continue;
            under[e->block] = true;
            collected.push_back(e);
            bfs.push_back(e->block);
            work += 1;
          }
        }
        bw.u64(collected.size());
        for (const auto* e : collected) e->serialize(out);
        // Child pieces anchored under the target.
        std::vector<const ChildPieceRef*> kids;
        for (const auto& c : piece.children) {
          auto u = under.find(c.root.parent_block);
          if (u != under.end() && u->second) kids.push_back(&c);
          work += 1;
        }
        bw.u64(kids.size());
        for (const auto* c : kids) c->serialize(out);
        break;
      }

      case kStoreMaster: {
        MasterReplica rep;
        std::uint64_t n = r.u64();
        rep.roots.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          rep.roots.push_back(MetaEntry::deserialize(r));
          rep.piece_of.push_back(r.u64());
          rep.module_of.push_back(static_cast<std::uint32_t>(r.u64()));
        }
        rep.rebuild(hasher, w);
        work += n * 4 + 1;
        st.master = std::move(rep);
        bw.u64(1);
        break;
      }
      case kMatchMaster: {
        QueryPiece q = QueryPiece::deserialize(r);
        const MasterReplica& rep = st.master;
        HashMatchStats hms;
        auto matches = hash_match(q, rep.index, hasher, w, {rep.roots}, &hms, &work);
        obs::counter("kernel/pivot_lookups").add(hms.pivot_lookups);
        obs::counter("kernel/second_layer_queries").add(hms.second_layer_queries);
        obs::counter("kernel/verifications").add(hms.verifications);
        obs::counter("kernel/rejected_collisions").add(hms.rejected_collisions);
        if (kdebug())
          obs::logf(kDebug, "kMatchMaster",
                    "m%zu roots=%zu matches=%zu piv=%llu sl=%llu ver=%llu rej=%llu qdepth=%llu qsize=%zu",
                    mod.id(), rep.roots.size(), matches.size(),
                    (unsigned long long)hms.pivot_lookups,
                    (unsigned long long)hms.second_layer_queries,
                    (unsigned long long)hms.verifications,
                    (unsigned long long)hms.rejected_collisions,
                    (unsigned long long)q.root_depth, q.trie.node_count());
        // Re-tag payload idx for piece resolution: the writer needs the
        // master root index; entries resolved via parent keep their
        // original payload, so recover indices by pointer arithmetic.
        for (auto& m : matches) {
          std::size_t idx = static_cast<std::size_t>(m.entry - rep.roots.data());
          m.point.payload = {IndexPayload::kEntry, static_cast<std::uint32_t>(idx)};
        }
        write_resolved_matches(bw, matches, nullptr, &rep);
        break;
      }
    }

    fw.end();
    PTRIE_CHECK(r.pos == frame_end,
                "m%zu: op %d frame over/under-read (pos %zu, frame end %zu)", mod.id(),
                static_cast<int>(op), r.pos, frame_end);
    r.pos = frame_end;
  }

  mod.work(work);
  return out;
}

}  // namespace ptrie::pimtrie::detail
