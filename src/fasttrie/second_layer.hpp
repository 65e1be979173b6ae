#pragma once
// The two-layer index's *second layer* (paper Section 4.4.2, "Efficient
// HashMatching", and the worked example of Figure 5): an ordered
// dictionary over bit-strings shorter than w bits.
//
// Contract (verbatim from the paper): it maintains a set K of strings all
// shorter than w bits; for a query string Q it returns the K_i whose LCP
// with Q is longest among all of K, and such that no K_j with the same
// LCP is a proper prefix of K_i (so the caller finds the critical block
// root itself or one of its *direct children*, never an arbitrary
// descendant).
//
// Construction (also per the paper): every stored S is padded with 0s and
// with 1s to w bits; both padded integers go into an ordered set; each
// padded integer keeps a w-bit validity vector of the stored lengths that
// pad to it. A query pads Q both ways, takes predecessor and successor of
// each padded form, and binary-searches the validity vectors.
//
// Host layout versus modelled cost. The paper's ordered set is a y-fast
// trie; on the host it is one sorted array of (padded integer, validity
// mask) entries, so predecessor and successor are binary searches, and
// the stored strings live in a second sorted array keyed by (0-padded
// value, length). The y-fast trie survives only as a cost model:
// `buckets_` replays its bucket sizes through every insert and erase
// (split above 2w keys, merge below w/4), and space_words() charges the
// x-fast top over the bucket minima, the buckets, the validity vectors
// and the strings in closed form — the same words a pointer-based y-fast
// trie over the same history would hold.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bitstring.hpp"

namespace ptrie::fasttrie {

class SecondLayerIndex {
 public:
  explicit SecondLayerIndex(unsigned w);

  unsigned w() const { return w_; }
  std::size_t size() const { return strings_.size(); }

  // |s| < w required. `payload` is returned on query hits (PIM-trie stores
  // the meta-tree node address here).
  void insert(const core::BitString& s, std::uint64_t payload);
  bool erase(const core::BitString& s);
  bool contains(const core::BitString& s) const;

  struct Result {
    std::uint64_t bits = 0;  // the stored string, in the low `len` bits
    unsigned len = 0;
    std::uint64_t payload = 0;
    std::size_t lcp = 0;  // LCP(str, Q) in bits
    core::BitString str() const { return core::BitString::from_uint(bits, len); }
  };
  // Q is the first `len` (<= w) bits of `bits`, most significant first;
  // bits past `len` are ignored. Empty result only when the index is
  // empty.
  std::optional<Result> query(std::uint64_t bits, std::size_t len) const;
  std::optional<Result> query(const core::BitString& q) const {
    return query(q.word(0), q.size());
  }

  std::size_t space_words() const;

  // Structural invariants: every stored string owns validity bits at both
  // paddings, every validity bit reconstructs to a stored string, the
  // arrays are sorted, and the replayed buckets tile the padded keys
  // within the y-fast size bounds. Returns a human-readable violation
  // description, or "" if healthy.
  std::string debug_check() const;

 private:
  struct Padded {
    std::uint64_t key;
    std::uint64_t lengths;  // validity vector: bit l set iff a stored length-l string pads here
  };
  struct Stored {
    std::uint64_t key;  // the string 0-padded to w bits
    std::uint64_t payload;
    std::uint32_t len;
  };

  std::uint64_t pad(std::uint64_t bits, std::size_t len, bool ones) const;
  const Stored* find(std::uint64_t key, unsigned len) const;
  void add_validity(std::uint64_t padded, unsigned len);
  void remove_validity(std::uint64_t padded, unsigned len);
  std::size_t bucket_of(std::size_t i) const;
  void split_if_needed(std::size_t b);

  unsigned w_;
  std::vector<Padded> padded_;          // sorted by key
  std::vector<std::uint32_t> buckets_;  // y-fast bucket sizes, tiling padded_ in order
  std::vector<Stored> strings_;         // sorted by (key, len)
};

// Words an x-fast trie of width w holds for the sorted distinct `keys`:
// 3 per distinct prefix at each level 0..w, plus 3 per leaf.
std::size_t xfast_space_words(std::span<const std::uint64_t> keys, unsigned w);

}  // namespace ptrie::fasttrie
