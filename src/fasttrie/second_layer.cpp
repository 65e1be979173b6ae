#include "fasttrie/second_layer.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ptrie::fasttrie {

using core::BitString;

namespace {
// LCP of two w-bit integers viewed as bit-strings of length w.
unsigned int_lcp(std::uint64_t a, std::uint64_t b, unsigned w) {
  std::uint64_t d = (a ^ b) << (64 - w);
  if (d == 0) return w;
  return static_cast<unsigned>(std::countl_zero(d));
}

// The top `len` bits of a word set (len in [0, 64]).
std::uint64_t high_mask(std::size_t len) {
  return len == 0 ? 0 : ~std::uint64_t{0} << (64 - len);
}

// The first `len` (< w) bits of the w-bit integer `padded`, 0-padded.
std::uint64_t zero_pad(std::uint64_t padded, unsigned len, unsigned w) {
  return len == 0 ? 0 : padded & ~((std::uint64_t{1} << (w - len)) - 1);
}

// Sort orders: padded entries by key, stored strings by (key, length).
constexpr auto key_less = [](const auto& e, std::uint64_t key) { return e.key < key; };
constexpr auto key_len_less = [](const auto& e, std::pair<std::uint64_t, unsigned> k) {
  return e.key != k.first ? e.key < k.first : e.len < k.second;
};
}  // namespace

std::size_t xfast_space_words(std::span<const std::uint64_t> keys, unsigned w) {
  if (keys.empty()) return 0;
  // Level l holds one prefix per run of keys agreeing on their first l
  // bits: the root level and every level of the first key, then for each
  // later key the levels below its LCP with its predecessor.
  std::size_t prefixes = w + 1;
  for (std::size_t i = 1; i < keys.size(); ++i) prefixes += w - int_lcp(keys[i - 1], keys[i], w);
  return 3 * prefixes + 3 * keys.size();
}

SecondLayerIndex::SecondLayerIndex(unsigned w) : w_(w) {
  assert(w_ >= 1 && w_ <= 64);
}

std::uint64_t SecondLayerIndex::pad(std::uint64_t bits, std::size_t len, bool ones) const {
  assert(len <= w_);
  // String bits occupy the high `len` bits of a w_-bit integer: the
  // window is MSB-aligned in 64, so shifting by (64-w_) puts bit 0 of the
  // string at integer bit w_-1. Bits below `len` are zero.
  std::uint64_t v = (bits & high_mask(len)) >> (64 - w_);
  if (ones && len < w_) {
    // w_ - len can be 64 (empty string, full-width index): a plain shift
    // would be UB and silently produce an all-zeros fill on x86.
    std::uint64_t fill = w_ - len >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (w_ - len)) - 1;
    v |= fill;
  }
  return v;
}

const SecondLayerIndex::Stored* SecondLayerIndex::find(std::uint64_t key, unsigned len) const {
  auto it = std::lower_bound(strings_.begin(), strings_.end(), std::pair{key, len}, key_len_less);
  return it != strings_.end() && it->key == key && it->len == len ? &*it : nullptr;
}

bool SecondLayerIndex::contains(const BitString& s) const {
  return s.size() < w_ && find(pad(s.word(0), s.size(), false), s.size()) != nullptr;
}

// Index of the y-fast bucket holding padded_[i].
std::size_t SecondLayerIndex::bucket_of(std::size_t i) const {
  std::size_t b = 0;
  for (std::size_t end = buckets_[0]; end <= i; end += buckets_[++b]) {
  }
  return b;
}

void SecondLayerIndex::split_if_needed(std::size_t b) {
  std::uint32_t n = buckets_[b];
  if (n <= 2 * w_) return;
  // Split at the median: the lower half keeps floor(n/2) keys.
  buckets_[b] = n / 2;
  buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(b) + 1, n - n / 2);
}

void SecondLayerIndex::add_validity(std::uint64_t padded, unsigned len) {
  auto it = std::lower_bound(padded_.begin(), padded_.end(), padded, key_less);
  if (it != padded_.end() && it->key == padded) {
    it->lengths |= std::uint64_t{1} << len;
    return;
  }
  std::size_t pos = static_cast<std::size_t>(it - padded_.begin());
  padded_.insert(it, Padded{padded, std::uint64_t{1} << len});
  // A new key joins its predecessor's bucket, or the first bucket when it
  // precedes every key.
  if (buckets_.empty()) {
    buckets_.push_back(1);
    return;
  }
  std::size_t b = pos == 0 ? 0 : bucket_of(pos - 1);
  ++buckets_[b];
  split_if_needed(b);
}

void SecondLayerIndex::remove_validity(std::uint64_t padded, unsigned len) {
  auto it = std::lower_bound(padded_.begin(), padded_.end(), padded, key_less);
  if (it == padded_.end() || it->key != padded) return;
  it->lengths &= ~(std::uint64_t{1} << len);
  if (it->lengths != 0) return;
  std::size_t b = bucket_of(static_cast<std::size_t>(it - padded_.begin()));
  padded_.erase(it);
  auto at = [&](std::size_t i) { return buckets_.begin() + static_cast<std::ptrdiff_t>(i); };
  if (--buckets_[b] == 0) {
    buckets_.erase(at(b));
    return;
  }
  // An underfull bucket merges into its left neighbor (the right one if
  // it is first), which then splits again if oversized.
  if (buckets_[b] * 4 >= w_ || buckets_.size() <= 1) return;
  std::size_t into = b == 0 ? 0 : b - 1;
  buckets_[b == 0 ? 1 : b - 1] += buckets_[b];
  buckets_.erase(at(b));
  split_if_needed(into);
}

void SecondLayerIndex::insert(const BitString& s, std::uint64_t payload) {
  assert(s.size() < w_);
  unsigned len = static_cast<unsigned>(s.size());
  std::uint64_t key = pad(s.word(0), len, false);
  auto it = std::lower_bound(strings_.begin(), strings_.end(), std::pair{key, len}, key_len_less);
  if (it != strings_.end() && it->key == key && it->len == len) {
    it->payload = payload;
    return;
  }
  strings_.insert(it, Stored{key, payload, len});
  add_validity(key, len);
  add_validity(pad(s.word(0), len, true), len);
}

bool SecondLayerIndex::erase(const BitString& s) {
  if (s.size() >= w_) return false;
  unsigned len = static_cast<unsigned>(s.size());
  std::uint64_t key = pad(s.word(0), len, false);
  const Stored* st = find(key, len);
  if (st == nullptr) return false;
  strings_.erase(strings_.begin() + (st - strings_.data()));
  remove_validity(key, len);
  remove_validity(pad(s.word(0), len, true), len);
  return true;
}

std::optional<SecondLayerIndex::Result> SecondLayerIndex::query(std::uint64_t bits,
                                                                std::size_t qlen) const {
  assert(qlen <= w_);
  if (strings_.empty()) return std::nullopt;

  std::uint64_t q0 = pad(bits, qlen, false), q1 = pad(bits, qlen, true);
  std::uint64_t top = w_ == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w_) - 1);
  std::size_t candidates[16];  // indices into padded_
  std::size_t ncand = 0;
  for (std::uint64_t qq : {q0, q1}) {
    std::size_t succ = static_cast<std::size_t>(
        std::lower_bound(padded_.begin(), padded_.end(), qq, key_less) - padded_.begin());
    bool exact = succ < padded_.size() && padded_[succ].key == qq;
    std::size_t pred = exact ? succ : succ - 1;  // wraps when nothing is <= qq
    if (pred < padded_.size()) {
      candidates[ncand++] = pred;
      // Padding collapse: several short strings can pad onto qq itself
      // (e.g. every "1"-prefix of an all-ones query 1-pads to the same
      // integer). The entry *strictly* below may be the true maximizer,
      // shadowed by the exact occupant — take it as well.
      if (exact && qq != 0 && pred > 0) candidates[ncand++] = pred - 1;
    }
    if (succ < padded_.size()) {
      candidates[ncand++] = succ;
      if (exact && qq != top && succ + 1 < padded_.size()) candidates[ncand++] = succ + 1;
    }
  }

  // The stored string of length `len` that pads to `padded`, if any.
  auto stored_at = [&](std::uint64_t padded, unsigned len) {
    return find(zero_pad(padded, len, w_), len);
  };
  auto prefix_bits = [&](std::uint64_t padded, unsigned len) {
    return len == 0 ? 0 : padded >> (w_ - len);
  };

  bool have = false;
  Result best;
  for (std::size_t c = 0; c < ncand; ++c) {
    std::uint64_t padded = padded_[candidates[c]].key;
    std::uint64_t mask = padded_[candidates[c]].lengths;
    // LCP between the candidate integer and Q as padded strings; against
    // both paddings of Q, take the larger (the true agreement with Q's
    // bits is the same; padding differences only matter past |Q|).
    unsigned raw = std::max(int_lcp(padded, q0, w_), int_lcp(padded, q1, w_));
    std::size_t bound = std::min<std::size_t>(raw, qlen);
    // Shortest valid length >= bound, else longest valid length < bound
    // (the paper's binary search over the validity vector).
    std::uint64_t ge = bound < 64 ? mask & (~std::uint64_t{0} << bound) : 0;
    unsigned len;
    if (ge != 0) {
      len = static_cast<unsigned>(std::countr_zero(ge));
    } else {
      std::uint64_t lt = bound >= 64 ? mask : mask & ((std::uint64_t{1} << bound) - 1);
      if (lt == 0) continue;  // no valid prefix on this candidate
      len = 63 - static_cast<unsigned>(std::countl_zero(lt));
    }
    std::size_t lcp = std::min<std::size_t>(len, bound);
    if (!have || lcp > best.lcp || (lcp == best.lcp && len < best.len)) {
      // Guard: only accept genuinely stored strings (validity guarantees
      // this by construction).
      const Stored* s = stored_at(padded, len);
      if (s == nullptr) continue;
      best = Result{prefix_bits(padded, len), len, s->payload, lcp};
      have = true;
    }
  }
  if (!have) {
    // All candidates lacked valid prefixes under the bound; fall back to
    // the globally shortest stored string reachable via length-0/least
    // mask bits. Scan candidates for any valid length.
    for (std::size_t c = 0; c < ncand; ++c) {
      std::uint64_t padded = padded_[candidates[c]].key;
      unsigned len = static_cast<unsigned>(std::countr_zero(padded_[candidates[c]].lengths));
      const Stored* s = stored_at(padded, len);
      if (s == nullptr) continue;
      std::size_t lcp = std::min(std::min<std::size_t>(len, qlen),
                                 static_cast<std::size_t>(int_lcp(padded, q0, w_)));
      if (!have || lcp > best.lcp) {
        best = Result{prefix_bits(padded, len), len, s->payload, lcp};
        have = true;
      }
    }
  }
  if (!have) return std::nullopt;
  return best;
}

std::string SecondLayerIndex::debug_check() const {
  std::string problems;
  auto complain = [&](const std::string& s) {
    if (problems.size() < 2000) problems += s + "\n";
  };
  auto has_bit = [&](std::uint64_t padded, unsigned len) {
    auto it = std::lower_bound(padded_.begin(), padded_.end(), padded, key_less);
    return it != padded_.end() && it->key == padded && (it->lengths >> len & 1);
  };
  for (std::size_t i = 0; i < strings_.size(); ++i) {
    const Stored& s = strings_[i];
    if (s.len >= w_) {
      complain("stored string as long as w, length " + std::to_string(s.len));
      continue;
    }
    std::string name = BitString::from_uint(s.len == 0 ? 0 : s.key >> (w_ - s.len), s.len).to_binary();
    if (i > 0 && !(strings_[i - 1].key < s.key ||
                   (strings_[i - 1].key == s.key && strings_[i - 1].len < s.len)))
      complain("stored strings out of order at " + name);
    std::uint64_t word = s.key << (64 - w_);
    if (pad(word, s.len, false) != s.key) complain("stored key not 0-padded: " + name);
    for (bool ones : {false, true})
      if (!has_bit(pad(word, s.len, ones), s.len)) complain("missing validity bit for " + name);
  }
  std::size_t bits = 0;
  for (std::size_t i = 0; i < padded_.size(); ++i) {
    const auto& [padded, mask] = padded_[i];
    if (mask == 0) complain("empty validity mask retained");
    if (i > 0 && padded_[i - 1].key >= padded) complain("padded keys out of order");
    for (unsigned len = 0; len < 64; ++len) {
      if (!(mask >> len & 1)) continue;
      ++bits;
      if (len >= w_ || find(zero_pad(padded, len, w_), len) == nullptr)
        complain("validity bit without stored string: length " + std::to_string(len));
    }
  }
  // Each stored string contributes a bit at both paddings; the paddings
  // coincide exactly for full-width strings, which insert() forbids.
  if (bits != 2 * strings_.size())
    complain("validity bit count mismatch: " + std::to_string(bits) + " bits vs " +
             std::to_string(strings_.size()) + " strings, w=" + std::to_string(w_));
  std::size_t tiled = 0;
  for (std::uint32_t n : buckets_) {
    tiled += n;
    if (n == 0 || n > 2 * w_) complain("bucket size out of (0, 2w]: " + std::to_string(n));
    if (buckets_.size() > 1 && n * 4 < w_) complain("unmerged bucket of " + std::to_string(n));
  }
  if (tiled != padded_.size()) complain("buckets do not tile the padded keys");
  return problems;
}

std::size_t SecondLayerIndex::space_words() const {
  // The y-fast trie: an x-fast top over the bucket minima, one word per
  // bucket plus one per key; then a validity vector per padded key and,
  // per stored string, its packed words (one header, one word when
  // nonempty) and its payload.
  std::vector<std::uint64_t> reps;
  reps.reserve(buckets_.size());
  std::size_t first = 0;
  for (std::uint32_t n : buckets_) {
    reps.push_back(padded_[first].key);
    first += n;
  }
  std::size_t words = xfast_space_words(reps, w_) + buckets_.size() + 3 * padded_.size();
  for (const Stored& s : strings_) words += (s.len > 0 ? 2 : 1) + 1;
  return words;
}

}  // namespace ptrie::fasttrie
