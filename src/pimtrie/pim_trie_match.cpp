// PimTrie matching pipeline: Phases A (MatchCriticalMetaBlock), B
// (MatchCriticalBlock with recursive meta-block descent) and C (block
// matching under Push-Pull, with verification + redo), plus the read
// operations batch_lcp and batch_subtree built on it.

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

#include "core/parallel.hpp"
#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "pimtrie/detail.hpp"
#include "pimtrie/pim_trie.hpp"
#include "trie/euler_partition.hpp"

namespace {
bool debug_on() {
  static const bool on = ptrie::obs::log_enabled(ptrie::obs::LogLevel::kDebug);
  return on;
}
constexpr auto kDebug = ptrie::obs::LogLevel::kDebug;
}  // namespace

namespace ptrie::pimtrie {

using core::BitString;
using trie::kNil;
using trie::NodeId;
using trie::Patricia;

namespace {

struct WireMatch {
  NodeId origin;
  std::uint64_t abs_depth;
  bool at_node_end;
  MetaEntry entry;
  PieceId descend_piece;  // kNone when the hit is a plain entry
  std::uint32_t descend_module;
};

std::vector<WireMatch> read_resolved_matches(BufReader& r) {
  std::vector<WireMatch> out;
  std::uint64_t n = r.u64();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    WireMatch m;
    m.origin = static_cast<NodeId>(r.u64());
    m.abs_depth = r.u64();
    m.at_node_end = r.u64() != 0;
    m.entry = MetaEntry::deserialize(r);
    m.descend_piece = r.u64();
    m.descend_module = static_cast<std::uint32_t>(r.u64());
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<MatchLen> read_match_lens(BufReader& r) {
  std::vector<MatchLen> out;
  std::uint64_t n = r.u64();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    MatchLen ml;
    ml.origin = static_cast<NodeId>(r.u64());
    ml.match_len = r.u64();
    std::uint64_t flags = r.u64();
    ml.full = flags & 1;
    ml.boundary = flags & 2;
    out.push_back(ml);
  }
  return out;
}

}  // namespace

// Phases A + B: returns the set of critical block roots, materialized as
// query-trie nodes.
std::vector<PimTrie::CriticalRoot> PimTrie::match_critical_roots(trie::QueryTrie& qt,
                                                                 const char* label) {
  std::vector<CriticalRoot> criticals;
  std::unordered_map<NodeId, BlockId> seen;  // qnode -> block (dedup)
  auto add_critical = [&](NodeId qnode, const MetaEntry& e) {
    auto [it, fresh] = seen.try_emplace(qnode, e.block);
    if (!fresh) {
      if (it->second != e.block) ++verify_.rejected_collisions;
      return;
    }
    criticals.push_back({qnode, e.block});
  };

  struct WorkItem {
    PieceId piece;
    std::uint32_t module;
    NodeId span_root;
    bool tried_split = false;
  };
  std::vector<WorkItem> work;

  // The data root block always matches the query root (both represent
  // the empty string); hash_match only reports matches on edges, so this
  // one — and the descent into its meta-block tree — is seeded manually.
  if (root_block_ != kNone) {
    add_critical(qt.trie.root(), make_entry(root_block_));
    for (const auto& mr : master_roots_)
      if (mr.root.block == root_block_)
        work.push_back({mr.piece, mr.module, qt.trie.root(), false});
  }

  // ---- Phase A: master matching (Algorithm 4) ----
  {
    obs::Phase phase_a("MetaQuery");
    obs::Phase phase_l1("HashMatching-L1");
    std::size_t lg = Config::log2_ceil(cfg_.p);
    std::size_t qq = qt.q_words();
    std::size_t bound = std::max<std::size_t>(16, qq / std::max<std::size_t>(1, cfg_.p * lg));
    auto weight = [&](NodeId id) -> std::uint64_t {
      return 8 + qt.trie.node(id).edge.word_count();
    };
    // Long query edges can outweigh the bound; cut them first.
    {
      std::size_t max_edge_bits = std::max<std::size_t>(64, (bound > 9 ? bound - 8 : 1) * 64);
      bool again = true;
      while (again) {
        again = false;
        for (NodeId id : qt.trie.preorder_ids()) {
          if (qt.trie.node(id).edge.size() > max_edge_bits) {
            NodeId mid = qt.trie.split_edge(id, qt.trie.node(id).edge.size() - max_edge_bits);
            if (qt.node_hash.size() < qt.trie.slot_count())
              qt.node_hash.resize(qt.trie.slot_count(), 0);
            const auto& m = qt.trie.node(mid);
            qt.node_hash[mid] = hasher_.extend(qt.node_hash[m.parent], m.edge, 0, m.edge.size());
            again = true;
          }
        }
      }
    }
    trie::PartitionResult part = trie::euler_partition(qt.trie, weight, bound);
    std::vector<pim::Buffer> buffers(sys_->p());
    // Placement consumes the RNG serially (worker-count invariant); the
    // expensive piece extraction runs in parallel; serialization appends
    // in root order so the wire bytes are canonical.
    std::vector<std::size_t> piece_module(part.roots.size());
    for (std::size_t i = 0; i < part.roots.size(); ++i)
      piece_module[i] = sys_->random_module();
    std::vector<char> is_root(qt.trie.slot_count(), 0);
    for (NodeId r : part.roots) is_root[r] = 1;
    std::vector<QueryPiece> master_pieces(part.roots.size());
    core::parallel_for(
        0, part.roots.size(),
        [&](std::size_t i) { master_pieces[i] = make_piece(qt, part.roots[i], is_root); },
        /*grain=*/1);
    for (std::size_t i = 0; i < part.roots.size(); ++i) {
      std::size_t module = piece_module[i];
      detail::FrameWriter fw{buffers[module]};
      fw.begin();
      BufWriter bw{buffers[module]};
      bw.u64(detail::kMatchMaster);
      master_pieces[i].serialize(buffers[module]);
      fw.end();
    }
    std::string lbl = std::string(label) + ".master";
    auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                     hasher_, cfg_.w);
    for (const auto& buf : results) {
      BufReader r{buf};
      while (!r.done()) {
        std::uint64_t frame = r.u64();
        std::size_t end = r.pos + frame;
        auto ms = read_resolved_matches(r);
        for (auto& m : ms) {
          NodeId node = materialize(qt, m.origin, m.abs_depth);
          add_critical(node, m.entry);
          if (m.descend_piece != kNone)
            work.push_back({m.descend_piece, m.descend_module, node, false});
        }
        r.pos = end;
      }
    }
    if (debug_on())
      obs::logf(kDebug, "phaseA", "master_roots=%zu criticals=%zu work=%zu",
                master_roots_.size(), criticals.size(), work.size());
  }

  // ---- Phase B: meta-block descent (Algorithm 5) ----
  obs::Phase phase_b("MetaQuery");
  obs::Phase phase_l2("HashMatching-L2");
  std::size_t push_threshold = cfg_.push_threshold();
  int round_no = 0;
  while (!work.empty()) {
    ++round_no;
    // Span set for extraction: all known critical nodes + work roots.
    std::vector<char> is_span(qt.trie.slot_count(), 0);
    for (const auto& c : criticals) is_span[c.qnode] = 1;
    for (const auto& w : work) is_span[w.span_root] = 1;

    std::vector<pim::Buffer> buffers(sys_->p());
    struct Pending {
      std::size_t work_idx;
      std::uint32_t module;
      enum Kind { kPush, kPullChildren, kPullPiece } kind;
    };
    std::vector<Pending> pending;
    std::vector<QueryPiece> qpieces(work.size());

    // Piece extraction per work item is independent and dominates this
    // loop's host cost; packing below stays serial in work order.
    core::parallel_for(
        0, work.size(),
        [&](std::size_t i) { qpieces[i] = make_piece(qt, work[i].span_root, is_span); },
        /*grain=*/1);
    for (std::size_t i = 0; i < work.size(); ++i) {
      std::size_t sz = qpieces[i].wire_words();
      std::uint32_t module = work[i].module;
      detail::FrameWriter fw{buffers[module]};
      if (sz <= push_threshold) {
        fw.begin();
        BufWriter bw{buffers[module]};
        bw.u64(detail::kMatchPiece);
        bw.u64(work[i].piece);
        qpieces[i].serialize(buffers[module]);
        fw.end();
        pending.push_back({i, module, Pending::kPush});
      } else if (!work[i].tried_split && !pieces_.at(work[i].piece).children.empty()) {
        fw.begin();
        BufWriter bw{buffers[module]};
        bw.u64(detail::kFetchPieceChildren);
        bw.u64(work[i].piece);
        fw.end();
        pending.push_back({i, module, Pending::kPullChildren});
      } else {
        fw.begin();
        BufWriter bw{buffers[module]};
        bw.u64(detail::kFetchPiece);
        bw.u64(work[i].piece);
        fw.end();
        pending.push_back({i, module, Pending::kPullPiece});
      }
    }

    std::string lbl = std::string(label) + ".meta" + std::to_string(round_no);
    auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                     hasher_, cfg_.w);

    // Responses arrive per module in send order; walk them in parallel.
    std::vector<BufReader> readers;
    readers.reserve(results.size());
    for (const auto& buf : results) readers.push_back(BufReader{buf});

    std::vector<WorkItem> next;
    for (const auto& p : pending) {
      BufReader& r = readers[p.module];
      std::uint64_t frame = r.u64();
      std::size_t end = r.pos + frame;
      const WorkItem& item = work[p.work_idx];
      if (p.kind == Pending::kPush) {
        auto ms = read_resolved_matches(r);
        for (auto& m : ms) {
          NodeId node = materialize(qt, m.origin, m.abs_depth);
          add_critical(node, m.entry);
          if (m.descend_piece != kNone)
            next.push_back({m.descend_piece, m.descend_module, node, false});
        }
      } else if (p.kind == Pending::kPullChildren) {
        std::uint64_t n = r.u64();
        std::vector<ChildPieceRef> children;
        children.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i)
          children.push_back(ChildPieceRef::deserialize(r));
        // CPU-side hash match against the child roots only.
        TwoLayerIndex idx(cfg_.w);
        for (std::uint32_t i = 0; i < children.size(); ++i)
          idx.insert(hasher_, children[i].root, {IndexPayload::kChild, i});
        HashMatchStats hms;
        auto ms = hash_match(qpieces[p.work_idx], idx, hasher_, cfg_.w, {{}, children}, &hms,
                             nullptr);
        verify_.rejected_collisions += hms.rejected_collisions;
        for (auto& m : ms) {
          NodeId node = materialize(qt, m.point.origin, m.point.abs_depth);
          add_critical(node, *m.entry);
          // Recover the child ref by block id.
          for (const auto& c : children)
            if (c.root.block == m.entry->block) {
              next.push_back({c.piece, c.module, node, false});
              break;
            }
        }
        // The remaining top part stays matched to the same piece.
        next.push_back({item.piece, item.module, item.span_root, true});
      } else {  // kPullPiece
        Piece piece = Piece::deserialize(r);
        piece.build_index(hasher_, cfg_.w);
        HashMatchStats hms;
        auto ms = hash_match(qpieces[p.work_idx], piece.index(), hasher_, cfg_.w,
                             EntryResolver::of(piece), &hms, nullptr);
        verify_.rejected_collisions += hms.rejected_collisions;
        for (auto& m : ms) {
          NodeId node = materialize(qt, m.point.origin, m.point.abs_depth);
          add_critical(node, *m.entry);
          if (m.point.payload.kind == IndexPayload::kChild &&
              m.entry == &piece.children[m.point.payload.idx].root) {
            const auto& c = piece.children[m.point.payload.idx];
            next.push_back({c.piece, c.module, node, false});
          }
        }
      }
      r.pos = end;
    }
    work = std::move(next);
    if (debug_on())
      obs::logf(kDebug, "phaseB", "round=%d criticals=%zu next_work=%zu", round_no,
                criticals.size(), work.size());
    // Safety valve: descent depth is bounded by the piece-tree height.
    if (round_no > 64) break;
  }
  return criticals;
}

PimTrie::MatchOutcome PimTrie::run_matching(trie::QueryTrie& qt, const char* label,
                                            int op_kind) {
  MatchOutcome out;
  std::vector<std::pair<NodeId, trie::Value>> get_hits;
  std::vector<CriticalRoot> spans = match_critical_roots(qt, label);
  obs::counter("match/spans").add(spans.size());
  if (debug_on())
    for (const auto& s : spans)
      obs::logf(kDebug, "span", "qnode=%u qdepth=%llu block=%llu bdepth=%llu", s.qnode,
                (unsigned long long)qt.trie.node(s.qnode).depth, (unsigned long long)s.block,
                (unsigned long long)blocks_.at(s.block).root_depth);

  // ---- Phase C: block matching with Push-Pull + verification/redo ----
  obs::Phase phase_c("PushPull");
  std::size_t kb = cfg_.block_bound();
  std::vector<char> rejected(spans.size(), 0);
  std::vector<char> active(spans.size(), 1);
  std::vector<std::vector<MatchLen>> reports(spans.size());

  int redo_round = 0;
  for (;;) {
    // Redo iterations re-match under the collision-verification protocol;
    // attribute their rounds to a nested Verify phase.
    std::optional<obs::Phase> verify_phase;
    if (redo_round > 0) verify_phase.emplace("Verify");
    // Span set = non-rejected span nodes.
    std::vector<char> is_span(qt.trie.slot_count(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (!rejected[i]) is_span[spans[i].qnode] = 1;

    std::vector<pim::Buffer> buffers(sys_->p());
    struct Pending {
      std::size_t span_idx;
      std::uint32_t module;
      bool push;
    };
    std::vector<Pending> pending;
    std::vector<QueryPiece> qpieces(spans.size());

    core::parallel_for(
        0, spans.size(),
        [&](std::size_t i) {
          if (rejected[i] || !active[i]) return;
          qpieces[i] = make_piece(qt, spans[i].qnode, is_span);
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (rejected[i] || !active[i]) continue;
      const HostBlockInfo& info = blocks_.at(spans[i].block);
      std::size_t sz = qpieces[i].wire_words();
      std::uint32_t module = info.module;
      detail::FrameWriter fw{buffers[module]};
      fw.begin();
      BufWriter bw{buffers[module]};
      if (sz <= kb) {
        bw.u64(op_kind == 1   ? detail::kInsertBlock
               : op_kind == 2 ? detail::kEraseBlock
               : op_kind == 3 ? detail::kGetBlock
                              : detail::kMatchBlock);
        bw.u64(spans[i].block);
        bw.u64(hasher_.fingerprint(info.root_hash));
        qpieces[i].serialize(buffers[module]);
        pending.push_back({i, module, true});
      } else {
        bw.u64(detail::kFetchBlock);
        bw.u64(spans[i].block);
        pending.push_back({i, module, false});
      }
      fw.end();
    }
    if (pending.empty()) break;

    std::string lbl = std::string(label) + ".blocks" + std::to_string(redo_round);
    auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                     hasher_, cfg_.w);
    std::vector<BufReader> readers;
    readers.reserve(results.size());
    for (const auto& buf : results) readers.push_back(BufReader{buf});

    bool any_reject = false;
    std::vector<std::pair<std::uint32_t, Block>> writeback;  // pulled + modified
    for (const auto& p : pending) {
      BufReader& r = readers[p.module];
      std::uint64_t frame = r.u64();
      std::size_t end = r.pos + frame;
      active[p.span_idx] = 0;
      if (p.push) {
        bool ok = r.u64() != 0;
        if (!ok) {
          obs::counter("verify/span_rejects").add();
          if (debug_on())
            obs::logf(kDebug, "phaseC", "REJECT span qnode=%u block=%llu",
                      spans[p.span_idx].qnode, (unsigned long long)spans[p.span_idx].block);
          rejected[p.span_idx] = 1;
          any_reject = true;
          ++verify_.rejected_collisions;
        } else {
          reports[p.span_idx] = read_match_lens(r);
          if (debug_on())
            for (const auto& ml : reports[p.span_idx])
              obs::logf(kDebug, "report", "span_block=%llu origin=%u len=%llu full=%d bnd=%d",
                        (unsigned long long)spans[p.span_idx].block, ml.origin,
                        (unsigned long long)ml.match_len, ml.full ? 1 : 0,
                        ml.boundary ? 1 : 0);
          if (op_kind == 1) {
            r.u64();  // new_keys (tallied below via key counts)
            r.u64();  // updated
            std::uint64_t space = r.u64();
            std::uint64_t keys = r.u64();
            auto& info = blocks_.at(spans[p.span_idx].block);
            info.space = space;
            info.keys = keys;
            info.settled = false;
          } else if (op_kind == 2) {
            r.u64();  // removed
            std::uint64_t keys = r.u64();
            r.u64();  // mirrors
            std::uint64_t space = r.u64();
            auto& info = blocks_.at(spans[p.span_idx].block);
            info.keys = keys;
            info.space = space;
            info.settled = false;
          } else if (op_kind == 3) {
            std::uint64_t nh = r.u64();
            for (std::uint64_t k = 0; k < nh; ++k) {
              NodeId origin = static_cast<NodeId>(r.u64());
              std::uint64_t value = r.u64();
              get_hits.emplace_back(origin, value);
            }
          }
        }
      } else {
        // Pull: match (and for updates, mutate) on the CPU.
        Block blk = Block::deserialize(r);
        const HostBlockInfo& info = blocks_.at(spans[p.span_idx].block);
        bool ok = hasher_.fingerprint(blk.root_hash) == hasher_.fingerprint(info.root_hash) &&
                  blk.root_depth == qpieces[p.span_idx].root_depth;
        if (!ok) {
          rejected[p.span_idx] = 1;
          any_reject = true;
          ++verify_.rejected_collisions;
        } else {
          std::uint64_t cpu_work = 0;
          reports[p.span_idx] = match_block(qpieces[p.span_idx], blk, &cpu_work);
          if (debug_on())
            for (const auto& ml : reports[p.span_idx])
              obs::logf(kDebug, "report/pull", "span_block=%llu origin=%u len=%llu full=%d bnd=%d",
                        (unsigned long long)spans[p.span_idx].block, ml.origin,
                        (unsigned long long)ml.match_len, ml.full ? 1 : 0,
                        ml.boundary ? 1 : 0);
          if (op_kind == 1) {
            insert_into_block(qpieces[p.span_idx], blk, &cpu_work);
            auto& binfo = blocks_.at(spans[p.span_idx].block);
            binfo.space = blk.space_words();
            binfo.keys = blk.trie.key_count();
            binfo.settled = false;
            writeback.emplace_back(p.module, std::move(blk));
          } else if (op_kind == 2) {
            erase_from_block(qpieces[p.span_idx], blk, &cpu_work);
            auto& binfo = blocks_.at(spans[p.span_idx].block);
            binfo.space = blk.space_words();
            binfo.keys = blk.trie.key_count();
            binfo.settled = false;
            writeback.emplace_back(p.module, std::move(blk));
          } else if (op_kind == 3) {
            for (auto [origin, value] : get_from_block(qpieces[p.span_idx], blk, &cpu_work))
              get_hits.emplace_back(origin, value);
          }
          sys_->metrics().add_cpu_work(cpu_work);
        }
      }
      r.pos = end;
    }

    if (!writeback.empty()) {
      std::vector<pim::Buffer> wb(sys_->p());
      for (auto& [module, blk] : writeback) {
        detail::FrameWriter fw{wb[module]};
        fw.begin();
        BufWriter bw{wb[module]};
        bw.u64(detail::kStoreBlock);
        blk.serialize(wb[module]);
        fw.end();
      }
      std::string lbl2 = std::string(label) + ".writeback" + std::to_string(redo_round);
      detail::run_round(*sys_, lbl2.c_str(), std::move(wb), instance_, hasher_, cfg_.w);
    }

    if (!any_reject) break;
    // Redo: regions under rejected spans fold into the nearest surviving
    // ancestor span, which must re-match with updated cuts.
    ++verify_.redo_rounds;
    ++redo_round;
    obs::counter("verify/redo_rounds").add();
    // Find surviving ancestors of rejected spans and reactivate them.
    std::unordered_map<NodeId, std::size_t> by_node;
    for (std::size_t j = 0; j < spans.size(); ++j)
      if (!rejected[j]) by_node[spans[j].qnode] = j;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (!rejected[i]) continue;
      // Walk up the query trie to the nearest surviving span node.
      NodeId cur = spans[i].qnode;
      while (cur != kNil) {
        auto it = by_node.find(cur);
        if (it != by_node.end()) {
          active[it->second] = 1;
          break;
        }
        cur = qt.trie.node(cur).parent;
      }
    }
    if (redo_round > 16) break;  // collision storm safety valve
  }

  // ---- merge reports into per-node match lengths ----
  out.match_len.assign(qt.trie.slot_count(), 0);
  out.reported.assign(qt.trie.slot_count(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (rejected[i]) continue;
    for (const auto& ml : reports[i]) {
      if (ml.origin == kNil) continue;
      if (!out.reported[ml.origin] || ml.match_len > out.match_len[ml.origin]) {
        out.match_len[ml.origin] = ml.match_len;
        out.reported[ml.origin] = true;
      }
    }
  }
  // Span roots are fully matched by construction.
  std::vector<std::size_t> span_idx_of(qt.trie.slot_count(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (rejected[i]) continue;
    NodeId n = spans[i].qnode;
    out.match_len[n] = std::max(out.match_len[n], qt.trie.node(n).depth);
    out.reported[n] = true;
    span_idx_of[n] = i;
  }
  // Rootfix inheritance: unreported nodes take their parent's value; the
  // span-of map records the owning span for subtree queries.
  out.span_of.assign(qt.trie.slot_count(), static_cast<std::size_t>(-1));
  for (NodeId id : qt.trie.preorder_ids()) {
    const auto& n = qt.trie.node(id);
    if (span_idx_of[id] != static_cast<std::size_t>(-1)) {
      out.span_of[id] = span_idx_of[id];
    } else if (n.parent != kNil) {
      out.span_of[id] = out.span_of[n.parent];
    }
    if (!out.reported[id] && n.parent != kNil) {
      out.match_len[id] = std::min<std::uint64_t>(out.match_len[n.parent], n.depth);
      // A partial parent match caps descendants at the parent's value.
      out.match_len[id] = out.match_len[n.parent];
      out.reported[id] = true;
    }
  }
  // Keep surviving spans for callers.
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (!rejected[i]) out.spans.push_back(spans[i]);
  out.get_hits = std::move(get_hits);
  return out;
}

trie::QueryTrie PimTrie::prepare_batch(const std::vector<BitString>& keys) const {
  if (keys.empty()) return {};
  return trie::build_query_trie(keys, hasher_);
}

std::vector<std::size_t> PimTrie::batch_lcp(const std::vector<BitString>& keys) {
  return batch_lcp_prepared(keys, prepare_batch(keys));
}

std::vector<std::size_t> PimTrie::batch_lcp_prepared(const std::vector<BitString>& keys,
                                                     trie::QueryTrie qt) {
  std::vector<std::size_t> out(keys.size(), 0);
  if (keys.empty() || root_block_ == kNone) return out;
  obs::Phase op_phase("LCP");
  sys_->metrics().add_cpu_work(qt.cpu_work);
  MatchOutcome mo = run_matching(qt, "lcp", /*op_kind=*/0);
  core::parallel_for(
      0, keys.size(),
      [&](std::size_t i) {
        NodeId node = qt.key_node[qt.sorted_slot_of_input[i]];
        out[i] = mo.match_len[node];
      },
      /*grain=*/2048);
  return out;
}

std::vector<std::optional<trie::Value>> PimTrie::batch_get(
    const std::vector<BitString>& keys) {
  return batch_get_prepared(keys, prepare_batch(keys));
}

std::vector<std::optional<trie::Value>> PimTrie::batch_get_prepared(
    const std::vector<BitString>& keys, trie::QueryTrie qt) {
  std::vector<std::optional<trie::Value>> out(keys.size());
  if (keys.empty() || root_block_ == kNone) return out;
  obs::Phase op_phase("Get");
  sys_->metrics().add_cpu_work(qt.cpu_work);
  MatchOutcome mo = run_matching(qt, "get", /*op_kind=*/3);
  std::unordered_map<NodeId, trie::Value> by_origin;
  for (auto [origin, value] : mo.get_hits) by_origin[origin] = value;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    NodeId node = qt.key_node[qt.sorted_slot_of_input[i]];
    auto it = by_origin.find(node);
    if (it != by_origin.end()) out[i] = it->second;
  }
  return out;
}

std::vector<std::vector<std::pair<BitString, trie::Value>>> PimTrie::batch_subtree(
    const std::vector<BitString>& prefixes) {
  return batch_subtree_prepared(prefixes, prepare_batch(prefixes));
}

std::vector<std::vector<std::pair<BitString, trie::Value>>> PimTrie::batch_subtree_prepared(
    const std::vector<BitString>& prefixes, trie::QueryTrie qt) {
  std::vector<std::vector<std::pair<BitString, trie::Value>>> out(prefixes.size());
  if (prefixes.empty() || root_block_ == kNone) return out;
  obs::Phase op_phase("Subtree");
  sys_->metrics().add_cpu_work(qt.cpu_work);
  MatchOutcome mo = run_matching(qt, "subtree", /*op_kind=*/0);

  // For fully-matched prefixes: slice the owning block at the prefix end,
  // then descend the meta-block tree to collect every block underneath
  // (Section 5.3), and finally fetch those blocks in one round.
  struct Target {
    std::size_t query;          // index into prefixes (deduped rep)
    BlockId block;
    std::uint64_t abs_depth;
    BitString suffix;           // prefix bits below the block root
  };
  std::vector<Target> targets;
  std::unordered_map<std::size_t, std::size_t> target_of_slot;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    std::size_t slot = qt.sorted_slot_of_input[i];
    if (target_of_slot.contains(slot)) continue;
    NodeId node = qt.key_node[slot];
    if (mo.match_len[node] < prefixes[i].size()) continue;  // no such prefix
    std::size_t si = mo.span_of[node];
    if (si == static_cast<std::size_t>(-1)) continue;
    const CriticalRoot& span = mo.spans[si];
    const HostBlockInfo& info = blocks_.at(span.block);
    Target t;
    t.query = i;
    t.block = span.block;
    t.abs_depth = prefixes[i].size();
    t.suffix = prefixes[i].suffix(info.root_depth);
    target_of_slot[slot] = targets.size();
    targets.push_back(std::move(t));
  }

  // The slice / collect / fetch rounds below are all block traffic;
  // group them under the Push-Pull phase like run_matching's Phase C.
  obs::Phase pushpull_phase("PushPull");

  // Round 1: slices.
  struct SliceResult {
    bool found = false;
    Patricia trie;
    std::uint64_t root_depth = 0;
    std::vector<std::pair<NodeId, BlockId>> child_blocks;
  };
  std::vector<SliceResult> slices(targets.size());
  {
    std::vector<pim::Buffer> buffers(sys_->p());
    std::vector<std::pair<std::size_t, std::uint32_t>> pend;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      std::uint32_t module = blocks_.at(targets[i].block).module;
      detail::FrameWriter fw{buffers[module]};
      fw.begin();
      BufWriter bw{buffers[module]};
      bw.u64(detail::kSliceBlock);
      bw.u64(targets[i].block);
      bw.u64(targets[i].abs_depth);
      bw.bits(targets[i].suffix);
      fw.end();
      pend.emplace_back(i, module);
    }
    auto results = detail::run_round(*sys_, "subtree.slice", std::move(buffers), instance_,
                                     hasher_, cfg_.w);
    std::vector<BufReader> readers;
    for (const auto& buf : results) readers.push_back(BufReader{buf});
    for (auto [i, module] : pend) {
      BufReader& r = readers[module];
      std::uint64_t frame = r.u64();
      std::size_t end = r.pos + frame;
      bool found = r.u64() != 0;
      slices[i].found = found;
      if (found) {
        slices[i].root_depth = r.u64();
        std::uint64_t nc = r.u64();
        for (std::uint64_t k = 0; k < nc; ++k) {
          std::uint64_t slot = r.u64();
          std::uint64_t cb = r.u64();
          slices[i].child_blocks.emplace_back(static_cast<NodeId>(slot), cb);
        }
        std::size_t used = 0;
        slices[i].trie = Patricia::deserialize(r.in.data() + r.pos, r.in.size() - r.pos, &used);
        r.pos += used;
      }
      r.pos = end;
    }
  }

  // Rounds 2..h: meta-block-tree descent collecting descendant blocks.
  // Seed: the direct child blocks of every slice; we must close over the
  // whole block subtree below them.
  std::vector<BlockId> frontier_blocks;
  for (const auto& s : slices)
    for (auto [node, cb] : s.child_blocks) frontier_blocks.push_back(cb);
  std::vector<BlockId> all_blocks = frontier_blocks;
  {
    struct Visit {
      PieceId piece;
      BlockId block;
    };
    std::vector<Visit> frontier;
    std::unordered_map<std::uint64_t, bool> seen_piece_block;
    for (BlockId b : frontier_blocks) frontier.push_back({blocks_.at(b).piece, b});
    int depth = 0;
    while (!frontier.empty() && depth < 64) {
      ++depth;
      std::vector<pim::Buffer> buffers(sys_->p());
      std::vector<std::pair<std::size_t, std::uint32_t>> pend;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        std::uint32_t module = pieces_.at(frontier[i].piece).module;
        detail::FrameWriter fw{buffers[module]};
        fw.begin();
        BufWriter bw{buffers[module]};
        bw.u64(detail::kCollectSubtree);
        bw.u64(frontier[i].piece);
        bw.u64(frontier[i].block);
        fw.end();
        pend.emplace_back(i, module);
      }
      std::string lbl = "subtree.collect" + std::to_string(depth);
      auto results = detail::run_round(*sys_, lbl.c_str(), std::move(buffers), instance_,
                                       hasher_, cfg_.w);
      std::vector<BufReader> readers;
      for (const auto& buf : results) readers.push_back(BufReader{buf});
      std::vector<Visit> next;
      for (auto [i, module] : pend) {
        BufReader& r = readers[module];
        std::uint64_t frame = r.u64();
        std::size_t end = r.pos + frame;
        std::uint64_t ne = r.u64();
        for (std::uint64_t k = 0; k < ne; ++k) {
          MetaEntry e = MetaEntry::deserialize(r);
          all_blocks.push_back(e.block);
        }
        std::uint64_t nc = r.u64();
        for (std::uint64_t k = 0; k < nc; ++k) {
          ChildPieceRef c = ChildPieceRef::deserialize(r);
          // The child piece's root block is under the target; collect
          // everything below it inside the child piece next round.
          next.push_back({c.piece, c.root.block});
          all_blocks.push_back(c.root.block);
        }
        r.pos = end;
      }
      frontier = std::move(next);
    }
  }
  std::sort(all_blocks.begin(), all_blocks.end());
  all_blocks.erase(std::unique(all_blocks.begin(), all_blocks.end()), all_blocks.end());
  if (debug_on()) {
    std::size_t nslices = 0, nstubs = 0;
    for (const auto& s : slices) {
      nslices += s.found ? 1 : 0;
      nstubs += s.child_blocks.size();
    }
    obs::logf(kDebug, "subtree", "targets=%zu slices=%zu stubs=%zu all_blocks=%zu",
              targets.size(), nslices, nstubs, all_blocks.size());
  }

  // Final round: fetch all collected blocks.
  std::unordered_map<std::uint64_t, Block> fetched;
  if (!all_blocks.empty()) {
    std::vector<pim::Buffer> buffers(sys_->p());
    std::vector<std::pair<BlockId, std::uint32_t>> pend;
    for (BlockId b : all_blocks) {
      std::uint32_t module = blocks_.at(b).module;
      detail::FrameWriter fw{buffers[module]};
      fw.begin();
      BufWriter bw{buffers[module]};
      bw.u64(detail::kFetchBlock);
      bw.u64(b);
      fw.end();
      pend.emplace_back(b, module);
    }
    auto results = detail::run_round(*sys_, "subtree.fetch", std::move(buffers), instance_,
                                     hasher_, cfg_.w);
    std::vector<BufReader> readers;
    for (const auto& buf : results) readers.push_back(BufReader{buf});
    // Frames arrive per module in send order; a cheap serial pass slices
    // the frame spans, then the heavy block deserialization runs in
    // parallel over independent spans.
    std::vector<std::pair<std::uint32_t, std::size_t>> span_at(pend.size());  // module, pos
    for (std::size_t i = 0; i < pend.size(); ++i) {
      BufReader& r = readers[pend[i].second];
      std::uint64_t frame = r.u64();
      span_at[i] = {pend[i].second, r.pos};
      r.pos += frame;
    }
    std::vector<Block> parsed(pend.size());
    core::parallel_for(
        0, pend.size(),
        [&](std::size_t i) {
          BufReader r{results[span_at[i].first], span_at[i].second};
          parsed[i] = Block::deserialize(r);
        },
        /*grain=*/1);
    for (std::size_t i = 0; i < pend.size(); ++i)
      fetched.emplace(pend[i].first, std::move(parsed[i]));
  }

  // Assemble: DFS each slice, appending keys; recurse into fetched
  // blocks at mirror stubs.
  std::function<void(const Patricia&, NodeId, const BitString&,
                     const std::unordered_map<NodeId, BlockId>&,
                     std::vector<std::pair<BitString, trie::Value>>&)>
      emit = [&](const Patricia& t, NodeId root, const BitString& base,
                 const std::unordered_map<NodeId, BlockId>& stubs,
                 std::vector<std::pair<BitString, trie::Value>>& sink) {
        std::vector<std::pair<NodeId, BitString>> stack{{root, base}};
        while (!stack.empty()) {
          auto [id, s] = std::move(stack.back());
          stack.pop_back();
          auto stub = stubs.find(id);
          if (stub != stubs.end()) {
            auto fit = fetched.find(stub->second);
            if (fit != fetched.end()) {
              const Block& cb = fit->second;
              std::unordered_map<NodeId, BlockId> cstubs(cb.mirrors.begin(), cb.mirrors.end());
              emit(cb.trie, cb.trie.root(), s, cstubs, sink);
            }
            continue;
          }
          const auto& n = t.node(id);
          if (n.has_value) sink.emplace_back(s, n.value);
          for (int b = 1; b >= 0; --b) {
            NodeId c = n.child[b];
            if (c == kNil) continue;
            BitString cs = s;
            cs.append(t.node(c).edge);
            stack.emplace_back(c, std::move(cs));
          }
        }
      };

  // Each target assembles + sorts independently (emit only reads the
  // fetched block map), so the unpack fans out across targets.
  std::vector<std::vector<std::pair<BitString, trie::Value>>> per_target(targets.size());
  core::parallel_for(
      0, targets.size(),
      [&](std::size_t i) {
        if (!slices[i].found) return;
        std::unordered_map<NodeId, BlockId> stubs(slices[i].child_blocks.begin(),
                                                  slices[i].child_blocks.end());
        emit(slices[i].trie, slices[i].trie.root(), prefixes[targets[i].query], stubs,
             per_target[i]);
        std::sort(per_target[i].begin(), per_target[i].end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
      },
      /*grain=*/1);
  core::parallel_for(
      0, prefixes.size(),
      [&](std::size_t i) {
        std::size_t slot = qt.sorted_slot_of_input[i];
        auto it = target_of_slot.find(slot);
        if (it != target_of_slot.end()) out[i] = per_target[it->second];
      },
      /*grain=*/256);
  return out;
}

std::optional<trie::Value> PimTrie::find(const BitString& key) {
  return batch_get({key})[0];
}

}  // namespace ptrie::pimtrie
