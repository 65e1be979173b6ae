#include "pimtrie/meta_index.hpp"

#include <algorithm>
#include <cassert>

#include "obs/counters.hpp"

namespace {
bool mdebug() {
  static const bool on = ptrie::obs::log_enabled(ptrie::obs::LogLevel::kDebug);
  return on;
}
constexpr auto kDebug = ptrie::obs::LogLevel::kDebug;
}  // namespace

namespace ptrie::pimtrie {

using core::BitString;
using trie::kNil;
using trie::NodeId;

void MetaEntry::serialize(pim::Buffer& out) const {
  BufWriter w{out};
  w.u64(block);
  w.u64(module);
  w.u64(root_hash);
  w.u64(root_depth);
  w.u64(parent_block);
  w.u64(spre_hash);
  w.bits(srem);
  w.bits(slast);
}

MetaEntry MetaEntry::deserialize(BufReader& r) {
  MetaEntry e;
  e.block = r.u64();
  e.module = static_cast<std::uint32_t>(r.u64());
  e.root_hash = r.u64();
  e.root_depth = r.u64();
  e.parent_block = r.u64();
  e.spre_hash = r.u64();
  e.srem = r.bits();
  e.slast = r.bits();
  return e;
}

void ChildPieceRef::serialize(pim::Buffer& out) const {
  BufWriter w{out};
  w.u64(piece);
  w.u64(module);
  root.serialize(out);
}

ChildPieceRef ChildPieceRef::deserialize(BufReader& r) {
  ChildPieceRef c;
  c.piece = r.u64();
  c.module = static_cast<std::uint32_t>(r.u64());
  c.root = MetaEntry::deserialize(r);
  return c;
}

void TwoLayerIndex::insert(const hash::PolyHasher& hasher, const MetaEntry& root,
                           IndexPayload payload) {
  std::uint64_t fp = hasher.fingerprint(root.spre_hash);
  auto it = first_.find(fp);
  if (it == first_.end()) it = first_.emplace(fp, fasttrie::SecondLayerIndex(w_)).first;
  it->second.insert(root.srem, payload.encode());
}

bool TwoLayerIndex::contains(const hash::PolyHasher& hasher, const MetaEntry& root) const {
  auto it = first_.find(hasher.fingerprint(root.spre_hash));
  return it != first_.end() && it->second.contains(root.srem);
}

std::size_t TwoLayerIndex::bucket_size(std::uint64_t spre_fp) const {
  auto it = first_.find(spre_fp);
  return it == first_.end() ? 0 : it->second.size();
}

void TwoLayerIndex::erase(const hash::PolyHasher& hasher, const MetaEntry& root) {
  std::uint64_t fp = hasher.fingerprint(root.spre_hash);
  auto it = first_.find(fp);
  if (it == first_.end()) return;
  it->second.erase(root.srem);
  if (it->second.size() == 0) first_.erase(it);
}

std::size_t TwoLayerIndex::size() const {
  std::size_t n = 0;
  for (const auto& [fp, sl] : first_) n += sl.size();
  return n;
}

std::optional<std::uint64_t> TwoLayerIndex::locate(std::uint64_t spre_fp, std::uint64_t bits,
                                                   std::size_t len) const {
  auto it = first_.find(spre_fp);
  if (it == first_.end()) return std::nullopt;
  auto res = it->second.query(bits, len);
  if (!res) return std::nullopt;
  return res->payload;
}

std::size_t TwoLayerIndex::space_words() const {
  std::size_t words = 0;
  for (const auto& [fp, sl] : first_) words += 1 + sl.space_words();
  return words;
}

std::string TwoLayerIndex::debug_check() const {
  std::string problems;
  for (const auto& [fp, sl] : first_) {
    if (sl.size() == 0) problems += "empty second-layer index retained\n";
    std::string p = sl.debug_check();
    if (!p.empty()) problems += p;
    if (problems.size() > 2000) break;
  }
  return problems;
}

void Piece::serialize(pim::Buffer& out) const {
  BufWriter w{out};
  w.u64(id);
  w.u64(parent_piece);
  w.u64(root_block);
  w.u64(entries.size());
  for (const auto& e : entries) e.serialize(out);
  w.u64(children.size());
  for (const auto& c : children) c.serialize(out);
}

Piece Piece::deserialize(BufReader& r) {
  Piece p;
  p.id = r.u64();
  p.parent_piece = r.u64();
  p.root_block = r.u64();
  std::uint64_t ne = r.u64();
  p.entries.reserve(ne);
  for (std::uint64_t i = 0; i < ne; ++i) p.entries.push_back(MetaEntry::deserialize(r));
  std::uint64_t nc = r.u64();
  p.children.reserve(nc);
  for (std::uint64_t i = 0; i < nc; ++i) p.children.push_back(ChildPieceRef::deserialize(r));
  return p;
}

std::size_t Piece::wire_words() const {
  pim::Buffer tmp;
  serialize(tmp);
  return tmp.size();
}

void Piece::build_index(const hash::PolyHasher& hasher, unsigned w) {
  index_ = TwoLayerIndex(w);
  by_block_.clear();
  for (std::uint32_t i = 0; i < entries.size(); ++i) {
    index_.insert(hasher, entries[i], {IndexPayload::kEntry, i});
    by_block_.emplace(entries[i].block, i);
  }
  for (std::uint32_t i = 0; i < children.size(); ++i) {
    index_.insert(hasher, children[i].root, {IndexPayload::kChild, i});
  }
}

bool Piece::append_entries(const hash::PolyHasher& hasher, unsigned w,
                           std::vector<MetaEntry> added) {
  // build_index() inserts entries, then child roots; a repeated key keeps
  // the last payload. Appending after the child roots matches that only
  // while every new key is fresh. Once a second layer holds more than w
  // strings (2w padded keys) its replayed y-fast buckets split, and where
  // they split depends on insertion order (the flat arrays are sorted,
  // but the bucket history they replay is not), so the modelled space of
  // a bucket that also holds a child root is order-independent only while
  // it stays at or below w strings.
  std::size_t first = entries.size();
  entries.reserve(first + added.size());
  for (auto& e : added) entries.push_back(std::move(e));
  bool exact = true;
  for (std::size_t i = first; i < entries.size(); ++i) {
    if (index_.contains(hasher, entries[i])) {
      exact = false;
      break;
    }
    index_.insert(hasher, entries[i], {IndexPayload::kEntry, static_cast<std::uint32_t>(i)});
    by_block_.emplace(entries[i].block, static_cast<std::uint32_t>(i));
  }
  if (exact) {
    std::vector<std::uint64_t> grown;  // fingerprints that took new keys
    for (std::size_t i = first; i < entries.size(); ++i)
      grown.push_back(hasher.fingerprint(entries[i].spre_hash));
    std::sort(grown.begin(), grown.end());
    for (const auto& c : children) {
      std::uint64_t fp = hasher.fingerprint(c.root.spre_hash);
      if (index_.bucket_size(fp) > w && std::binary_search(grown.begin(), grown.end(), fp)) {
        exact = false;
        break;
      }
    }
  }
  if (!exact) build_index(hasher, w);
  return exact;
}

const MetaEntry* Piece::entry_of(BlockId b) const {
  auto it = by_block_.find(b);
  return it == by_block_.end() ? nullptr : &entries[it->second];
}

MetaEntry* Piece::entry_of(BlockId b) {
  auto it = by_block_.find(b);
  return it == by_block_.end() ? nullptr : &entries[it->second];
}

const MetaEntry* EntryResolver::parent(BlockId b) const {
  if (piece != nullptr) return piece->entry_of(b);
  for (const MetaEntry& e : entries)
    if (e.block == b) return &e;
  return nullptr;
}

namespace {

// Checks a candidate root against the path window: the candidate's depth
// must land on (pivot, edge_hi]; its srem must lie along the path; its
// slast must equal the path's trailing bits (Section 4.4.3 verification).
bool verify_candidate(const MetaEntry& e, std::uint64_t pivot, std::uint64_t edge_lo,
                      std::uint64_t edge_hi, const BitString& path, std::uint64_t path_base,
                      unsigned w, HashMatchStats* stats, std::uint64_t* work) {
  if (stats) ++stats->verifications;
  if (work) *work += 2 + e.slast.size() / 64;
  std::uint64_t piv_of_e = (e.root_depth / w) * w;
  if (mdebug())
    obs::logf(kDebug, "verify",
              "e.depth=%llu pivot=%llu piv_of_e=%llu edge=(%llu,%llu] "
              "path_base=%llu |srem|=%zu |slast|=%zu",
              (unsigned long long)e.root_depth, (unsigned long long)pivot,
              (unsigned long long)piv_of_e, (unsigned long long)edge_lo,
              (unsigned long long)edge_hi, (unsigned long long)path_base, e.srem.size(),
              e.slast.size());
  if (piv_of_e != pivot) return false;
  if (e.root_depth <= edge_lo || e.root_depth > edge_hi) return false;
  // srem on path: path bits [pivot, e.root_depth) == e.srem.
  if (pivot < path_base) return false;
  std::size_t off = static_cast<std::size_t>(pivot - path_base);
  if (off + e.srem.size() > path.size()) return false;
  if (path.lcp_range(off, e.srem, 0) != e.srem.size()) {
    if (mdebug()) obs::logf(kDebug, "verify", "srem mismatch");
    return false;
  }
  // slast: path bits [e.root_depth - |slast|, e.root_depth).
  std::uint64_t sl_begin = e.root_depth - e.slast.size();
  if (sl_begin < path_base) {
    // Not enough path context retained; verify only the visible suffix.
    std::size_t visible = static_cast<std::size_t>(e.slast.size() - (path_base - sl_begin));
    std::size_t sl_off = e.slast.size() - visible;
    return path.lcp_range(0 + (0), e.slast, sl_off) >= visible;
  }
  std::size_t sl_path_off = static_cast<std::size_t>(sl_begin - path_base);
  return path.lcp_range(sl_path_off, e.slast, 0) == e.slast.size();
}

}  // namespace

std::vector<ResolvedMatch> hash_match(const QueryPiece& q, const TwoLayerIndex& idx,
                                      const hash::PolyHasher& hasher, unsigned w,
                                      const EntryResolver& resolve, HashMatchStats* stats,
                                      std::uint64_t* work) {
  std::vector<ResolvedMatch> out;
  const trie::Patricia& t = q.trie;

  const std::uint64_t path_base = q.root_depth - q.root_tail.size();

  struct Frame {
    NodeId node;
    std::uint64_t abs_depth;          // of node
    hash::HashVal h;                  // hash of node's full string
    std::uint64_t last_pivot;         // deepest pivot <= abs_depth
    hash::HashVal h_last_pivot;       // its hash
    int next_child;
    std::size_t parent_path_len;      // |path| before this node's edge was appended
  };

  BitString path = q.root_tail;

  std::vector<Frame> stack;
  stack.push_back({t.root(), q.root_depth, q.root_hash, (q.root_depth / w) * w,
                   q.root_pivot_hash, 0, path.size()});

  while (!stack.empty()) {
    Frame& f = stack.back();
    int b = f.next_child++;
    if (b >= 2) {
      path.truncate(f.parent_path_len);
      stack.pop_back();
      continue;
    }
    NodeId child = t.node(f.node).child[b];
    if (child == kNil) continue;
    const auto& cn = t.node(child);
    const BitString& edge = cn.edge;
    std::uint64_t du = f.abs_depth, dv = du + edge.size();

    std::size_t parent_len = path.size();
    path.append(edge);
    if (work) *work += edge.size() / 64 + 2;

    // Pivot hashes along this edge. Candidate pivots for roots on this
    // edge are the multiples of w in (du - w, dv]: the frame's last pivot
    // plus every pivot crossed by the edge.
    struct Piv {
      std::uint64_t depth;
      hash::HashVal h;
    };
    std::vector<Piv> pivots;
    pivots.push_back({f.last_pivot, f.h_last_pivot});
    hash::HashVal hcur = f.h;
    std::uint64_t dcur = du;
    for (std::uint64_t pi = (du / w + 1) * w; pi <= dv; pi += w) {
      hcur = hasher.extend(hcur, edge, dcur - du, pi - dcur);
      if (work) *work += (pi - dcur) / 64 + 1;
      dcur = pi;
      pivots.push_back({pi, hcur});
    }
    hash::HashVal h_child = hasher.extend(hcur, edge, dcur - du, dv - dcur);
    if (work) *work += (dv - dcur) / 64 + 1;

    // Scan pivots bottom-up; the first verified match is the deepest.
    bool found = false;
    for (auto it = pivots.rbegin(); it != pivots.rend() && !found; ++it) {
      std::uint64_t fp = hasher.fingerprint(it->h);
      if (stats) ++stats->pivot_lookups;
      if (work) *work += 1;
      if (!idx.has_pivot(fp)) continue;
      // Window: path bits (pivot, min(pivot + w, dv)].
      if (it->depth < path_base) continue;
      std::size_t off = static_cast<std::size_t>(it->depth - path_base);
      std::size_t wlen = static_cast<std::size_t>(std::min<std::uint64_t>(it->depth + w, dv) -
                                                  it->depth);
      if (stats) ++stats->second_layer_queries;
      if (work) *work += 4;  // O(log w) whp lookup stand-in
      auto res = idx.locate(fp, path.word_at(off), std::min(wlen, path.size() - off));
      if (!res) continue;
      IndexPayload payload = IndexPayload::decode(*res);
      const MetaEntry* cand = resolve.entry(payload);
      // Try the returned candidate, then its meta-tree parent (the
      // Section 4.4.2 "root or one of its direct children" case).
      for (int attempt = 0; attempt < 2 && cand != nullptr; ++attempt) {
        if (verify_candidate(*cand, it->depth, du, dv, path, path_base, w, stats, work)) {
          ResolvedMatch rm;
          rm.point.qnode = child;
          rm.point.origin = cn.origin;
          rm.point.abs_depth = cand->root_depth;
          rm.point.at_node_end = cand->root_depth == dv;
          rm.point.payload = payload;
          rm.entry = cand;
          out.push_back(rm);
          found = true;
          break;
        }
        if (stats) ++stats->rejected_collisions;
        cand = attempt == 0 && cand->parent_block != kNone ? resolve.parent(cand->parent_block)
                                                           : nullptr;
      }
    }

    stack.push_back({child, dv, h_child, pivots.back().depth, pivots.back().h, 0, parent_len});
  }
  return out;
}

}  // namespace ptrie::pimtrie
