#pragma once
// Arbitrary-length bit-strings packed MSB-first into 64-bit words.
//
// Bit i of the string lives in word i/64 at bit position (63 - i%64), so a
// plain word-wise comparison orders bit-strings lexicographically and the
// longest common prefix of two strings can be found one word at a time.
// These are the keys of every trie in this repository (paper Section 4:
// "variable-length bit strings").

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ptrie::core {

class BitString {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  BitString() = default;

  // Builds from a textual pattern of '0'/'1' characters, e.g. "00101".
  static BitString from_binary(std::string_view pattern);
  // Interprets each byte of `bytes` as 8 bits, MSB first.
  static BitString from_bytes(std::string_view bytes);
  // The `nbits` most significant bits of `value` (natural integer order).
  static BitString from_uint(std::uint64_t value, std::size_t nbits);

  std::size_t size() const { return nbits_; }
  bool empty() const { return nbits_ == 0; }
  std::size_t word_count() const { return words_.size(); }
  const Word* words() const { return words_.data(); }
  // Word w holds bits [64w, 64w+64); bits past size() are zero.
  Word word(std::size_t w) const { return w < words_.size() ? words_[w] : 0; }

  // The 64 bits starting at bit `from`, most significant first; bits
  // past size() read as 0.
  Word word_at(std::size_t from) const {
    std::size_t w = from / kWordBits, off = from % kWordBits;
    Word v = word(w) << off;
    return off == 0 ? v : v | word(w + 1) >> (kWordBits - off);
  }

  bool bit(std::size_t i) const {
    return (words_[i / kWordBits] >> (kWordBits - 1 - i % kWordBits)) & 1u;
  }

  void push_back(bool b);
  void pop_back();
  void append(const BitString& other);
  // Appends bits [from, from+len) of `other`.
  void append_slice(const BitString& other, std::size_t from, std::size_t len);
  void clear() { words_.clear(); nbits_ = 0; }
  // Shortens to the first `len` bits (len <= size()).
  void truncate(std::size_t len);

  BitString prefix(std::size_t len) const { return substr(0, len); }
  BitString suffix(std::size_t from) const { return substr(from, nbits_ - from); }
  BitString substr(std::size_t from, std::size_t len) const;

  // Length (in bits) of the longest common prefix with `other`,
  // word-at-a-time: O(lcp/w) time.
  std::size_t lcp(const BitString& other) const;
  // LCP against bits [from, ...) of this with all of `other`.
  std::size_t lcp_at(std::size_t from, const BitString& other) const;
  // LCP between this[from..] and other[other_from..], word-at-a-time.
  std::size_t lcp_range(std::size_t from, const BitString& other, std::size_t other_from) const;

  bool is_prefix_of(const BitString& other) const;
  bool operator==(const BitString& other) const;
  bool operator!=(const BitString& other) const { return !(*this == other); }
  // Lexicographic; a proper prefix sorts before its extensions.
  bool operator<(const BitString& other) const { return compare(other) < 0; }
  int compare(const BitString& other) const;

  std::string to_binary() const;
  // Stable content hash (for use as unordered_map key, not the paper's hashes).
  std::size_t std_hash() const;

  // Space in 64-bit words used by the packed representation.
  std::size_t space_words() const { return words_.size() + 1; }

 private:
  void set_bit(std::size_t i, bool b) {
    Word mask = Word{1} << (kWordBits - 1 - i % kWordBits);
    if (b) words_[i / kWordBits] |= mask;
    else words_[i / kWordBits] &= ~mask;
  }
  void mask_tail();

  std::vector<Word> words_;
  std::size_t nbits_ = 0;
};

struct BitStringHash {
  std::size_t operator()(const BitString& s) const { return s.std_hash(); }
};

}  // namespace ptrie::core
