// End-to-end PimTrie correctness against a reference Patricia trie:
// batch LCP / Insert / Delete / SubtreeQuery on several workload shapes
// and machine sizes, plus round/communication sanity checks.

#include <gtest/gtest.h>

#include "obs/counters.hpp"
#include "pim/system.hpp"
#include "pimtrie/pim_trie.hpp"
#include "trie/patricia.hpp"
#include "workload/generators.hpp"

namespace {

using ptrie::core::BitString;
using ptrie::pim::System;
using ptrie::pimtrie::Config;
using ptrie::pimtrie::PimTrie;
using ptrie::trie::Patricia;

std::vector<std::uint64_t> iota_values(std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = 1000 + i;
  return v;
}

Patricia reference_of(const std::vector<BitString>& keys,
                      const std::vector<std::uint64_t>& values) {
  Patricia ref;
  for (std::size_t i = 0; i < keys.size(); ++i) ref.insert(keys[i], values[i]);
  return ref;
}

void check_lcp(PimTrie& pt, const Patricia& ref, const std::vector<BitString>& queries) {
  auto got = pt.batch_lcp(queries);
  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto [want, pos] = ref.lcp(queries[i]);
    (void)pos;
    EXPECT_EQ(got[i], want) << "query " << i << " = " << queries[i].to_binary();
  }
}

struct Scenario {
  const char* name;
  std::vector<BitString> keys;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"uniform64", ptrie::workload::uniform_keys(300, 64, 1)});
  out.push_back({"varlen", ptrie::workload::variable_length_keys(300, 24, 200, 2)});
  out.push_back({"shared_prefix", ptrie::workload::shared_prefix_keys(200, 300, 48, 3)});
  out.push_back({"caterpillar", ptrie::workload::caterpillar_keys(120, 9, 4)});
  return out;
}

class PimTrieScenario : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(PimTrieScenario, LcpMatchesReference) {
  auto [p, scen_idx] = GetParam();
  Scenario scen = scenarios()[scen_idx];
  System sys(p, 42);
  Config cfg;
  cfg.seed = 7;
  PimTrie pt(sys, cfg);
  auto values = iota_values(scen.keys.size());
  pt.build(scen.keys, values);
  Patricia ref = reference_of(scen.keys, values);
  ASSERT_EQ(pt.key_count(), ref.key_count());

  // Stored keys: LCP == full length.
  std::vector<BitString> exact(scen.keys.begin(), scen.keys.begin() + scen.keys.size() / 2);
  check_lcp(pt, ref, exact);
  // Random misses.
  check_lcp(pt, ref, ptrie::workload::miss_queries(150, 64, 99));
  // Near hits: stored keys with flipped trailing bits.
  check_lcp(pt, ref, ptrie::workload::hot_spot_queries(scen.keys, 100, 5));
  // Prefixes of stored keys (ends on hidden nodes).
  {
    std::vector<BitString> prefixes;
    for (std::size_t i = 0; i < scen.keys.size(); i += 7)
      prefixes.push_back(scen.keys[i].prefix(scen.keys[i].size() / 2));
    check_lcp(pt, ref, prefixes);
  }
  EXPECT_EQ(pt.verify_stats().redo_rounds, 0u);
}

std::string scenario_name(const ::testing::TestParamInfo<std::tuple<std::size_t, int>>& info) {
  static const char* names[] = {"uniform64", "varlen", "shared_prefix", "caterpillar"};
  return "P" + std::to_string(std::get<0>(info.param)) + "_" + names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Machine, PimTrieScenario,
                         ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4},
                                                              std::size_t{16}),
                                            ::testing::Values(0, 1, 2, 3)),
                         scenario_name);

TEST(PimTrieInsert, InsertThenLcpAndFind) {
  System sys(8, 43);
  Config cfg;
  cfg.seed = 11;
  PimTrie pt(sys, cfg);
  auto base = ptrie::workload::uniform_keys(200, 64, 21);
  auto values = iota_values(base.size());
  pt.build(base, values);
  Patricia ref = reference_of(base, values);

  auto extra = ptrie::workload::uniform_keys(150, 64, 22);
  std::vector<std::uint64_t> evals(extra.size());
  for (std::size_t i = 0; i < extra.size(); ++i) evals[i] = 5000 + i;
  pt.batch_insert(extra, evals);
  for (std::size_t i = 0; i < extra.size(); ++i) ref.insert(extra[i], evals[i]);
  EXPECT_EQ(pt.key_count(), ref.key_count());

  check_lcp(pt, ref, extra);
  check_lcp(pt, ref, base);
  check_lcp(pt, ref, ptrie::workload::miss_queries(100, 64, 23));
}

TEST(PimTrieInsert, OverlappingAndPrefixKeys) {
  System sys(4, 44);
  Config cfg;
  cfg.seed = 12;
  PimTrie pt(sys, cfg);
  auto base = ptrie::workload::caterpillar_keys(60, 7, 31);
  auto values = iota_values(base.size());
  pt.build(base, values);
  Patricia ref = reference_of(base, values);

  // Insert keys that extend and branch off the caterpillar.
  std::vector<BitString> extra;
  for (std::size_t i = 0; i < base.size(); i += 3) {
    BitString k = base[i];
    k.push_back(!k.bit(k.size() - 1));
    k.append(BitString::from_binary("1011"));
    extra.push_back(std::move(k));
  }
  std::vector<std::uint64_t> evals(extra.size(), 777);
  pt.batch_insert(extra, evals);
  for (std::size_t i = 0; i < extra.size(); ++i) ref.insert(extra[i], evals[i]);
  EXPECT_EQ(pt.key_count(), ref.key_count());
  check_lcp(pt, ref, extra);
  check_lcp(pt, ref, base);
}

TEST(PimTrieErase, EraseHalf) {
  System sys(8, 45);
  Config cfg;
  cfg.seed = 13;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(240, 64, 41);
  auto values = iota_values(keys.size());
  pt.build(keys, values);
  Patricia ref = reference_of(keys, values);

  std::vector<BitString> victims;
  for (std::size_t i = 0; i < keys.size(); i += 2) victims.push_back(keys[i]);
  pt.batch_erase(victims);
  for (const auto& k : victims) ref.erase(k);
  EXPECT_EQ(pt.key_count(), ref.key_count());
  check_lcp(pt, ref, keys);
  check_lcp(pt, ref, ptrie::workload::miss_queries(80, 64, 42));
}

TEST(PimTrieErase, EraseAllOfSubtree) {
  System sys(4, 46);
  Config cfg;
  cfg.seed = 14;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::shared_prefix_keys(150, 120, 40, 51);
  auto values = iota_values(keys.size());
  pt.build(keys, values);
  Patricia ref = reference_of(keys, values);
  pt.batch_erase(keys);
  for (const auto& k : keys) ref.erase(k);
  EXPECT_EQ(pt.key_count(), 0u);
  // After erasing everything, all LCPs should be 0 (only root remains).
  auto got = pt.batch_lcp({keys[0], keys[1]});
  EXPECT_EQ(got[0], ref.lcp(keys[0]).first);
}

TEST(PimTrieSubtree, MatchesReference) {
  System sys(8, 47);
  Config cfg;
  cfg.seed = 15;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::variable_length_keys(250, 24, 160, 61);
  auto values = iota_values(keys.size());
  pt.build(keys, values);
  Patricia ref = reference_of(keys, values);

  std::vector<BitString> prefixes;
  prefixes.push_back(BitString());                     // whole set
  prefixes.push_back(keys[3].prefix(6));               // shallow prefix
  prefixes.push_back(keys[10].prefix(keys[10].size()));  // exact key
  prefixes.push_back(keys[20].prefix(keys[20].size() / 2));
  prefixes.push_back(ptrie::workload::miss_queries(1, 64, 62)[0]);  // likely miss

  auto got = pt.batch_subtree(prefixes);
  ASSERT_EQ(got.size(), prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    auto want = ref.subtree(prefixes[i]);
    ASSERT_EQ(got[i].size(), want.size()) << "prefix " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[i][k].first, want[k].first);
      EXPECT_EQ(got[i][k].second, want[k].second);
    }
  }
}

TEST(PimTrieFind, PointReads) {
  System sys(4, 48);
  Config cfg;
  cfg.seed = 16;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(100, 64, 71);
  auto values = iota_values(keys.size());
  pt.build(keys, values);
  for (std::size_t i = 0; i < keys.size(); i += 11) {
    auto v = pt.find(keys[i]);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, values[i]);
  }
  EXPECT_FALSE(pt.find(ptrie::workload::miss_queries(1, 64, 72)[0]).has_value());
}

TEST(PimTrieRounds, LcpRoundsModest) {
  System sys(16, 49);
  Config cfg;
  cfg.seed = 17;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(400, 64, 81);
  pt.build(keys, iota_values(keys.size()));
  sys.metrics().reset();
  auto queries = ptrie::workload::zipf_queries(keys, 300, 0.0, 82);
  pt.batch_lcp(queries);
  // O(log P) rounds: generous constant for the A/B/C phases.
  EXPECT_LE(sys.metrics().io_rounds(), 10u + 4u * Config::log2_ceil(16));
}

// ---- Delete-path edge cases -----------------------------------------

TEST(PimTrieErase, DuplicateKeysInOneEraseBatch) {
  System sys(4, 720);
  Config cfg;
  cfg.seed = 721;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(60, 48, 722);
  pt.build(keys, iota_values(keys.size()));

  // Each victim listed three times: the batch must behave exactly like
  // a single delete of each.
  std::vector<BitString> victims;
  for (int r = 0; r < 3; ++r)
    for (std::size_t i = 0; i < 20; ++i) victims.push_back(keys[i]);
  pt.batch_erase(victims);
  EXPECT_EQ(pt.key_count(), keys.size() - 20);
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");
  for (std::size_t i = 0; i < 20; ++i) EXPECT_FALSE(pt.find(keys[i]).has_value());
  for (std::size_t i = 20; i < keys.size(); ++i)
    EXPECT_TRUE(pt.find(keys[i]).has_value()) << i;
}

TEST(PimTrieErase, AbsentAndMixedDeletes) {
  System sys(4, 730);
  Config cfg;
  cfg.seed = 731;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(50, 48, 732);
  pt.build(keys, iota_values(keys.size()));

  // Absent keys (near-misses and unrelated) interleaved with present
  // ones; absent deletes must be no-ops.
  std::vector<BitString> batch;
  for (std::size_t i = 0; i < 10; ++i) batch.push_back(keys[i]);
  for (auto& m : ptrie::workload::miss_queries(15, 48, 733)) batch.push_back(m);
  for (std::size_t i = 0; i < 5; ++i) batch.push_back(keys[i].prefix(20));  // prefixes
  pt.batch_erase(batch);
  EXPECT_EQ(pt.key_count(), keys.size() - 10);
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");

  // Deleting only absent keys changes nothing.
  pt.batch_erase(ptrie::workload::miss_queries(20, 48, 734));
  EXPECT_EQ(pt.key_count(), keys.size() - 10);
  EXPECT_EQ(pt.debug_check(), "");
}

TEST(PimTrieErase, DeleteToEmptyAndReinsert) {
  System sys(8, 740);
  Config cfg;
  cfg.seed = 741;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::variable_length_keys(200, 16, 100, 742);
  pt.build(keys, iota_values(keys.size()));

  // Erase everything: the cascade collapses the block tree down to the
  // (kept) root block.
  pt.batch_erase(keys);
  EXPECT_EQ(pt.key_count(), 0u);
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");
  EXPECT_TRUE(pt.debug_collect().empty());
  EXPECT_FALSE(pt.find(keys[0]).has_value());
  EXPECT_EQ(pt.batch_lcp({keys[0]})[0], 0u);

  // Re-insert into the emptied structure and verify full content.
  pt.batch_insert(keys, iota_values(keys.size()));
  EXPECT_EQ(pt.key_count(), keys.size());
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");
  auto got = pt.batch_lcp(keys);
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(got[i], keys[i].size()) << i;
}

// Regression: erasing a key whose emptied child block is garbage
// collected must also refresh the surviving parent block's host-side
// space figure (the mirror stub it held is gone). Found by ptrie_fuzz
// seed 1; debug_check_deep flags the stale accounting.
TEST(PimTrieErase, GcRefreshesParentSpaceAccounting) {
  System sys(4, 750);
  Config cfg;
  cfg.seed = 751;
  PimTrie pt(sys, cfg);
  BitString chain = BitString::from_binary("000110001111111100010000111110101101"
                                           "100010001001");
  pt.build({chain}, {7});
  pt.batch_erase({chain});
  EXPECT_EQ(pt.key_count(), 0u);
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");
}

// Regression: subtree collection must close over the piece's meta
// entries by parent links, not storage order — incremental inserts
// append entries out of preorder. Found by ptrie_fuzz seed 1 (cluster):
// a prefix-chain key in a grandchild block vanished from the answer.
TEST(PimTrieSubtree, PrefixChainAfterInsertSplit) {
  System sys(4, 123);
  Config cfg;
  cfg.seed = 999;
  PimTrie pt(sys, cfg);
  pt.build({BitString::from_binary("00"), BitString::from_binary("0011"),
            BitString::from_binary("00111010")},
           {1, 2, 3});
  pt.batch_insert({BitString::from_binary("1")}, {4});
  auto st = pt.batch_subtree({BitString::from_binary("0")});
  ASSERT_EQ(st[0].size(), 3u);
  EXPECT_EQ(st[0][0].first.to_binary(), "00");
  EXPECT_EQ(st[0][1].first.to_binary(), "0011");
  EXPECT_EQ(st[0][2].first.to_binary(), "00111010");
  auto all = pt.batch_subtree({BitString()});
  EXPECT_EQ(all[0].size(), 4u);
}

// Insert maintenance re-partitions a block only when its content
// changed since its last re-partition. An oversized block whose only
// candidate roots are mirror stubs settles, and a batch that updates one
// subtree re-partitions at most the spans it touched.
TEST(PimTrieMaintenance, UpdateBatchRepartitionsOnlyTouchedBlocks) {
  System sys(8, 901);
  Config cfg;
  cfg.kb = 16;
  cfg.seed = 902;
  PimTrie pt(sys, cfg);
  auto keys = ptrie::workload::uniform_keys(2000, 64, 903);
  auto values = iota_values(keys.size());
  pt.build(keys, values);
  // Warm up with value-only batches until one splits nothing. That batch
  // pulled every oversized block with its current content, and none could
  // split, so every oversized block is now settled.
  std::size_t settled_count = 0;
  for (int i = 0; i < 8 && pt.block_count() != settled_count; ++i) {
    settled_count = pt.block_count();
    pt.batch_insert(keys, values);
  }
  ASSERT_EQ(pt.block_count(), settled_count);

  std::vector<BitString> sub;
  std::vector<std::uint64_t> sub_values;
  for (const auto& k : keys)
    if (k.prefix(5) == keys[0].prefix(5)) {
      sub.push_back(k);
      sub_values.push_back(7000 + sub.size());
    }
  ASSERT_GT(sub.size(), 20u);
  auto& reparts = ptrie::obs::counter("maint/block_reparts");
  auto& spans = ptrie::obs::counter("match/spans");
  std::uint64_t reparts0 = reparts.get(), spans0 = spans.get();
  pt.batch_insert(sub, sub_values);
  std::uint64_t touched = spans.get() - spans0;
  EXPECT_GT(touched, 0u);
  EXPECT_LE(reparts.get() - reparts0, touched);
  EXPECT_EQ(pt.block_count(), settled_count);  // value updates split nothing
  EXPECT_EQ(pt.key_count(), keys.size());
  auto got = pt.batch_get(sub);
  for (std::size_t i = 0; i < sub.size(); ++i) EXPECT_EQ(got[i], sub_values[i]);
  EXPECT_EQ(pt.debug_check(), "");
  EXPECT_EQ(pt.debug_check_deep(), "");
}

// The erase cascade drops a block exactly when it and every block below
// it hold no keys: erasing one side of a branch removes that side's
// key-less subtree, keeps the key-holding block above it, and keeps the
// key-less branch block that still has keys below it.
TEST(PimTrieErase, CascadeDropsKeylessSubtreeKeepsKeylessAncestor) {
  System sys(8, 911);
  Config cfg;
  cfg.kb = 16;
  cfg.seed = 912;
  PimTrie pt(sys, cfg);
  BitString common = ptrie::workload::uniform_keys(1, 20, 913)[0];
  BitString left = common, right = common;
  left.push_back(false);
  right.push_back(true);
  std::vector<BitString> a, b;
  for (const auto& tail : ptrie::workload::uniform_keys(150, 43, 914)) {
    a.push_back(left);
    a.back().append(tail);
  }
  for (const auto& tail : ptrie::workload::uniform_keys(150, 43, 915)) {
    b.push_back(right);
    b.back().append(tail);
  }
  std::vector<BitString> keys = a;
  keys.insert(keys.end(), b.begin(), b.end());
  keys.push_back(left);  // holds a key above all of `a`
  auto values = iota_values(keys.size());
  pt.build(keys, values);

  auto& removed = ptrie::obs::counter("maint/blocks_removed");
  auto expect_erase = [&](const std::vector<BitString>& victims, bool removes,
                          std::vector<BitString> remaining) {
    std::uint64_t removed0 = removed.get();
    std::size_t blocks0 = pt.block_count();
    pt.batch_erase(victims);
    std::uint64_t dropped = removed.get() - removed0;
    EXPECT_EQ(dropped, blocks0 - pt.block_count());
    EXPECT_EQ(dropped > 0, removes);
    std::vector<BitString> got;
    for (const auto& [k, v] : pt.debug_collect()) got.push_back(k);
    std::sort(remaining.begin(), remaining.end());
    EXPECT_EQ(got, remaining);
    EXPECT_EQ(pt.debug_check(), "");
    EXPECT_EQ(pt.debug_check_deep(), "");
  };
  std::vector<BitString> b_and_left = b;
  b_and_left.push_back(left);
  expect_erase(a, /*removes=*/true, b_and_left);
  // The cascade is complete: a no-op erase finds nothing left to drop.
  expect_erase(ptrie::workload::miss_queries(4, 64, 916), /*removes=*/false, b_and_left);
  expect_erase({left}, /*removes=*/true, b);
  auto lcp = pt.batch_lcp({a[0], b[0]});
  EXPECT_EQ(lcp[0], common.size());
  EXPECT_EQ(lcp[1], b[0].size());
}

}  // namespace
