// Unit + property tests: z-fast trie and the Section 4.4.2 two-layer
// SecondLayerIndex — against brute-force reference models, and the
// second layer's modelled space against its y-fast trie cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "core/rng.hpp"
#include "fasttrie/second_layer.hpp"
#include "fasttrie/zfast.hpp"
#include "trie/patricia.hpp"
#include "workload/generators.hpp"

namespace {

using ptrie::core::BitString;
using ptrie::core::Rng;
using ptrie::fasttrie::SecondLayerIndex;
using ptrie::fasttrie::two_fattest;
using ptrie::fasttrie::ZFastTrie;

TEST(TwoFattest, Definition) {
  // two_fattest(a, b] = the value in (a, b] divisible by the largest
  // power of two.
  auto brute = [](std::uint64_t a, std::uint64_t b) {
    std::uint64_t best = a + 1;
    auto tz = [](std::uint64_t x) { return x == 0 ? 64 : __builtin_ctzll(x); };
    for (std::uint64_t v = a + 1; v <= b; ++v)
      if (tz(v) > tz(best)) best = v;
    return best;
  };
  Rng rng(28);
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t a = rng.below(500);
    std::uint64_t b = a + 1 + rng.below(500);
    EXPECT_EQ(two_fattest(a, b), brute(a, b)) << a << "," << b;
  }
}

TEST(ZFast, LocateMatchesPatriciaLcp) {
  ptrie::hash::PolyHasher h(3);
  for (int scenario = 0; scenario < 3; ++scenario) {
    auto keys = scenario == 0   ? ptrie::workload::uniform_keys(150, 64, 29)
                : scenario == 1 ? ptrie::workload::caterpillar_keys(80, 6, 30)
                                : ptrie::workload::variable_length_keys(150, 8, 120, 31);
    ptrie::trie::Patricia t;
    for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
    ZFastTrie z(t, h);
    auto queries = keys;
    for (auto& q : ptrie::workload::miss_queries(80, 64, 32)) queries.push_back(q);
    for (const auto& q : queries) {
      auto [want_len, want_pos] = t.lcp(q);
      std::size_t probes = 0;
      auto [got_len, got_pos] = z.locate(q, &probes);
      EXPECT_EQ(got_len, want_len) << q.to_binary();
      EXPECT_EQ(got_pos.node, want_pos.node);
      EXPECT_EQ(got_pos.above, want_pos.above);
    }
  }
}

TEST(ZFast, LogarithmicProbes) {
  ptrie::hash::PolyHasher h(4);
  // Deep caterpillar: height ~ 600 bits; plain walk would touch ~100
  // nodes, fat binary search should need ~O(log height) probes.
  auto keys = ptrie::workload::caterpillar_keys(100, 6, 33);
  ptrie::trie::Patricia t;
  for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
  ZFastTrie z(t, h);
  std::size_t total_probes = 0, n = 0;
  for (std::size_t i = 0; i < keys.size(); i += 5) {
    std::size_t probes = 0;
    z.locate(keys[i], &probes);
    total_probes += probes;
    ++n;
  }
  EXPECT_LE(total_probes, n * 16);  // ~2*log2(600) with slack
}

// ---- SecondLayerIndex: the paper's exact contract ----

struct SLModel {
  std::vector<BitString> strings;
  // Paper semantics: longest LCP with Q; among ties, the one that is not
  // an extension of another tie (i.e., the shortest).
  std::optional<BitString> query(const BitString& q) const {
    std::optional<BitString> best;
    std::size_t best_lcp = 0;
    for (const auto& s : strings) {
      std::size_t l = s.lcp(q);
      if (!best || l > best_lcp || (l == best_lcp && s.size() < best->size())) {
        if (!best || l >= best_lcp) {
          best = s;
          best_lcp = l;
        }
      }
    }
    return best;
  }
};

TEST(SecondLayer, PaperContractSmallW) {
  unsigned w = 8;
  Rng rng(34);
  for (int trial = 0; trial < 40; ++trial) {
    SecondLayerIndex idx(w);
    SLModel model;
    std::set<std::string> used;
    for (int i = 0, n = 1 + rng.below(12); i < n; ++i) {
      std::size_t len = rng.below(w);  // < w
      BitString s;
      for (std::size_t b = 0; b < len; ++b) s.push_back(rng.coin());
      if (!used.insert(s.to_binary()).second) continue;
      idx.insert(s, i);
      model.strings.push_back(s);
    }
    if (model.strings.empty()) continue;
    for (int qi = 0; qi < 30; ++qi) {
      std::size_t qlen = rng.below(w + 1);
      BitString q;
      for (std::size_t b = 0; b < qlen; ++b) q.push_back(rng.coin());
      auto got = idx.query(q);
      auto want = model.query(q);
      ASSERT_TRUE(got.has_value());
      // The paper's guarantee we rely on: the returned string has the
      // maximum LCP with q (ties may resolve to root-or-direct-child;
      // both verify downstream).
      std::size_t want_lcp = want->lcp(q);
      EXPECT_EQ(got->lcp, want_lcp) << "q=" << q.to_binary() << " got=" << got->str().to_binary()
                                    << " want=" << want->to_binary();
    }
  }
}

TEST(SecondLayer, OnPathChainReturnsDeepest) {
  // Stored: nested prefixes of one string (an on-path chain); query = the
  // full string. Must return the deepest (longest) chain member.
  unsigned w = 16;
  SecondLayerIndex idx(w);
  BitString spine = BitString::from_binary("101100111000110");
  for (std::size_t len : {0u, 3u, 7u, 12u})
    idx.insert(spine.prefix(len), len);
  auto got = idx.query(spine);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->str().size(), 12u);
  EXPECT_EQ(got->lcp, 12u);
}

TEST(SecondLayer, EraseRestoresPrevious) {
  unsigned w = 8;
  SecondLayerIndex idx(w);
  idx.insert(BitString::from_binary("101"), 1);
  idx.insert(BitString::from_binary("1011"), 2);
  BitString q = BitString::from_binary("10111111");
  EXPECT_EQ(idx.query(q)->payload, 2u);
  idx.erase(BitString::from_binary("1011"));
  EXPECT_EQ(idx.query(q)->payload, 1u);
  idx.erase(BitString::from_binary("101"));
  EXPECT_FALSE(idx.query(q).has_value());
}

TEST(SecondLayer, EmptyStringStored) {
  SecondLayerIndex idx(8);
  idx.insert(BitString(), 7);
  auto got = idx.query(BitString::from_binary("1010"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, 7u);
  EXPECT_EQ(got->lcp, 0u);
}

TEST(SecondLayer, EmptyStringStoredFullWidth) {
  // w = 64: neither the validity search (an all-zero query agrees with
  // the 0-padded empty string on all 64 bits) nor reconstructing the
  // empty string may shift a word by 64.
  SecondLayerIndex idx(64);
  idx.insert(BitString(), 7);
  BitString q = BitString::from_uint(0xdeadbeefcafef00dull, 64);
  for (const BitString& query : {q, BitString::from_uint(0, 64), BitString()}) {
    auto got = idx.query(query);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->str().size(), 0u);
    EXPECT_EQ(got->payload, 7u);
    EXPECT_EQ(got->lcp, 0u);
  }
}

TEST(SecondLayer, Figure5Example) {
  // Paper Figure 5 (w = 3): padded "0" -> "011"/"000" in the y-fast trie,
  // validity vectors pick S_rem = "01" for the block root's child.
  unsigned w = 3;
  SecondLayerIndex idx(w);
  idx.insert(BitString::from_binary("01"), 42);  // the child's S_rem
  // Query S'_rem = "0" (padded to "000"/"011").
  auto got = idx.query(BitString::from_binary("0"));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->str().to_binary(), "01");
  EXPECT_EQ(got->payload, 42u);
  EXPECT_EQ(got->lcp, 1u);
}

// ---- SecondLayerIndex: modelled space ----

// Seeded insert/erase history over strings shorter than w: grow until
// buckets split, churn, then erase everything so buckets merge and
// vanish. Folds space_words() after every operation into a digest.
struct SpaceTrace {
  std::uint64_t digest = 1469598103934665603ull;
  std::size_t peak = 0;
  std::size_t after_grow = 0;
  std::size_t after_churn = 0;
  std::size_t final_words = 0;
};

SpaceTrace space_trace(unsigned w, std::uint64_t seed, std::size_t grow) {
  SecondLayerIndex idx(w);
  Rng rng(seed);
  std::vector<BitString> live;
  SpaceTrace t;
  auto record = [&] {
    std::size_t words = idx.space_words();
    t.digest = (t.digest ^ words) * 1099511628211ull;
    t.peak = std::max(t.peak, words);
  };
  auto random_string = [&] {
    BitString s;
    for (std::size_t b = 0, len = rng.below(w); b < len; ++b) s.push_back(rng.coin());
    return s;
  };
  auto insert = [&] {
    BitString s = random_string();
    if (!idx.contains(s)) live.push_back(s);
    idx.insert(s, rng());
    record();
  };
  auto erase = [&] {
    if (live.empty()) return;
    std::size_t i = rng.below(live.size());
    EXPECT_TRUE(idx.erase(live[i]));
    live[i] = live.back();
    live.pop_back();
    record();
  };
  for (std::size_t i = 0; i < grow; ++i) insert();
  t.after_grow = idx.space_words();
  EXPECT_EQ(idx.debug_check(), "");
  for (std::size_t i = 0; i < 2 * grow; ++i) rng.coin() ? insert() : erase();
  t.after_churn = idx.space_words();
  EXPECT_EQ(idx.debug_check(), "");
  while (!live.empty()) erase();
  t.final_words = idx.space_words();
  return t;
}

// Golden space_words() traces recorded from the pointer-based y-fast
// implementation (x-fast top of per-level hash maps over std::set
// buckets) that the flat arrays replaced: the modelled space of every
// intermediate state must be unchanged. w = 8 and w = 64 split buckets
// above 2w keys and merge them below w/4 (the w = 64 runs merge the
// first bucket into its right neighbor too); w = 4 only splits.
TEST(SecondLayer, ModelledSpaceMatchesYFast) {
  struct Golden {
    unsigned w;
    std::uint64_t seed;
    std::size_t grow;
    std::uint64_t digest;
    std::size_t peak, after_grow, after_churn, final_words;
  };
  const Golden golden[] = {
      {4, 41, 40, 0xffa311b5effffbafull, 106, 106, 39, 0},
      {8, 42, 400, 0x09bc35b5fecb2aa4ull, 1147, 1147, 40, 0},
      {64, 43, 400, 0xbe24954c4cd7bc1dull, 5029, 4967, 4969, 0},
      {64, 44, 1500, 0xac5a7609a7316b14ull, 18415, 18026, 17200, 0},
  };
  for (const Golden& g : golden) {
    SpaceTrace t = space_trace(g.w, g.seed, g.grow);
    EXPECT_EQ(t.digest, g.digest) << "w=" << g.w << " seed=" << g.seed;
    EXPECT_EQ(t.peak, g.peak) << "w=" << g.w;
    EXPECT_EQ(t.after_grow, g.after_grow) << "w=" << g.w;
    EXPECT_EQ(t.after_churn, g.after_churn) << "w=" << g.w;
    EXPECT_EQ(t.final_words, g.final_words) << "w=" << g.w;
  }
}

// The closed form for the x-fast top equals three words per distinct
// prefix at every level 0..w plus three per leaf.
TEST(SecondLayer, XFastTopClosedForm) {
  Rng rng(45);
  for (unsigned w : {1u, 4u, 8u, 64u}) {
    std::uint64_t mask = w == 64 ? ~0ull : ((1ull << w) - 1);
    for (int trial = 0; trial < 50; ++trial) {
      std::set<std::uint64_t> keys;
      // Clustered keys share long prefixes; uniform ones diverge early.
      std::uint64_t base = rng() & mask;
      for (std::size_t i = 0, n = rng.below(trial < 5 ? 3 : 200); i < n; ++i)
        keys.insert((rng.coin() ? base ^ (rng() & 0xFF) : rng()) & mask);
      std::size_t want = 0;
      if (!keys.empty()) {
        for (unsigned l = 0; l <= w; ++l) {
          std::set<std::uint64_t> prefixes;
          for (std::uint64_t k : keys) prefixes.insert(l == 0 ? 0 : k >> (w - l));
          want += 3 * prefixes.size();
        }
        want += 3 * keys.size();
      }
      std::vector<std::uint64_t> sorted(keys.begin(), keys.end());
      EXPECT_EQ(ptrie::fasttrie::xfast_space_words(sorted, w), want) << "w=" << w;
    }
  }
}

}  // namespace
