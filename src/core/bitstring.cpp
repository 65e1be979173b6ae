#include "core/bitstring.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace ptrie::core {

namespace {
constexpr std::size_t kW = BitString::kWordBits;

std::size_t words_for(std::size_t nbits) { return (nbits + kW - 1) / kW; }
}  // namespace

BitString BitString::from_binary(std::string_view pattern) {
  BitString s;
  s.nbits_ = pattern.size();
  s.words_.assign(words_for(s.nbits_), 0);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    char c = pattern[i];
    if (c != '0' && c != '1') throw std::invalid_argument("BitString::from_binary: bad char");
    if (c == '1') s.set_bit(i, true);
  }
  return s;
}

BitString BitString::from_bytes(std::string_view bytes) {
  BitString s;
  s.nbits_ = bytes.size() * 8;
  s.words_.assign(words_for(s.nbits_), 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto b = static_cast<std::uint8_t>(bytes[i]);
    std::size_t w = i / 8, shift = kW - 8 - 8 * (i % 8);
    s.words_[w] |= static_cast<Word>(b) << shift;
  }
  return s;
}

BitString BitString::from_uint(std::uint64_t value, std::size_t nbits) {
  assert(nbits <= kW);
  BitString s;
  s.nbits_ = nbits;
  if (nbits == 0) return s;
  s.words_.assign(1, 0);
  // Keep the low `nbits` of value, placed at the top of the word so that
  // bit 0 of the string is the most significant of those nbits.
  std::uint64_t v = nbits == kW ? value : (value & ((std::uint64_t{1} << nbits) - 1));
  s.words_[0] = v << (kW - nbits);
  return s;
}

void BitString::mask_tail() {
  std::size_t used = nbits_ % kW;
  if (!words_.empty() && used != 0) {
    words_.back() &= ~Word{0} << (kW - used);
  }
}

void BitString::push_back(bool b) {
  if (nbits_ % kW == 0) words_.push_back(0);
  ++nbits_;
  if (b) set_bit(nbits_ - 1, true);
}

void BitString::pop_back() {
  assert(nbits_ > 0);
  set_bit(nbits_ - 1, false);
  --nbits_;
  if (words_.size() > words_for(nbits_)) words_.pop_back();
}

void BitString::truncate(std::size_t len) {
  assert(len <= nbits_);
  nbits_ = len;
  words_.resize(words_for(len));
  mask_tail();
}

void BitString::append(const BitString& other) { append_slice(other, 0, other.nbits_); }

void BitString::append_slice(const BitString& other, std::size_t from, std::size_t len) {
  assert(from + len <= other.nbits_);
  if (len == 0) return;
  words_.resize(words_for(nbits_ + len), 0);
  std::size_t dst = nbits_;
  nbits_ += len;
  // Copy word-at-a-time: read a 64-bit window of `other` starting at bit
  // `from + done`, write it at bit `dst + done`.
  std::size_t done = 0;
  while (done < len) {
    Word window = other.word_at(from + done);
    std::size_t take = std::min<std::size_t>(kW, len - done);
    if (take < kW) window &= ~Word{0} << (kW - take);

    std::size_t dst_bit = dst + done;
    std::size_t dw = dst_bit / kW, doff = dst_bit % kW;
    words_[dw] |= window >> doff;
    if (doff != 0 && dw + 1 < words_.size()) words_[dw + 1] |= window << (kW - doff);
    done += take;
  }
  mask_tail();
}

BitString BitString::substr(std::size_t from, std::size_t len) const {
  assert(from + len <= nbits_);
  BitString out;
  out.append_slice(*this, from, len);
  return out;
}

std::size_t BitString::lcp(const BitString& other) const {
  std::size_t limit = std::min(nbits_, other.nbits_);
  std::size_t nw = words_for(limit);
  for (std::size_t w = 0; w < nw; ++w) {
    Word diff = word(w) ^ other.word(w);
    if (diff != 0) {
      std::size_t p = w * kW + static_cast<std::size_t>(std::countl_zero(diff));
      return std::min(p, limit);
    }
  }
  return limit;
}

std::size_t BitString::lcp_at(std::size_t from, const BitString& other) const {
  assert(from <= nbits_);
  std::size_t limit = std::min(nbits_ - from, other.size());
  std::size_t done = 0;
  while (done < limit) {
    Word diff = word_at(from + done) ^ other.word_at(done);
    if (diff != 0) {
      return std::min(done + static_cast<std::size_t>(std::countl_zero(diff)), limit);
    }
    done += kW;
  }
  return limit;
}

std::size_t BitString::lcp_range(std::size_t from, const BitString& other,
                                 std::size_t other_from) const {
  assert(from <= nbits_ && other_from <= other.nbits_);
  std::size_t limit = std::min(nbits_ - from, other.nbits_ - other_from);
  std::size_t done = 0;
  while (done < limit) {
    Word diff = word_at(from + done) ^ other.word_at(other_from + done);
    if (diff != 0)
      return std::min(done + static_cast<std::size_t>(std::countl_zero(diff)), limit);
    done += kW;
  }
  return limit;
}

bool BitString::is_prefix_of(const BitString& other) const {
  return nbits_ <= other.nbits_ && lcp(other) == nbits_;
}

bool BitString::operator==(const BitString& other) const {
  return nbits_ == other.nbits_ && words_ == other.words_;
}

int BitString::compare(const BitString& other) const {
  std::size_t nw = std::max(words_.size(), other.words_.size());
  for (std::size_t w = 0; w < nw; ++w) {
    Word a = word(w), b = other.word(w);
    if (a != b) return a < b ? -1 : 1;
  }
  if (nbits_ == other.nbits_) return 0;
  return nbits_ < other.nbits_ ? -1 : 1;
}

std::string BitString::to_binary() const {
  std::string out(nbits_, '0');
  for (std::size_t i = 0; i < nbits_; ++i)
    if (bit(i)) out[i] = '1';
  return out;
}

std::size_t BitString::std_hash() const {
  // FNV-1a over the packed words plus the length.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(nbits_);
  for (Word w : words_) mix(w);
  return static_cast<std::size_t>(h);
}

}  // namespace ptrie::core
