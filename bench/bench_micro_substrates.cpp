// Substrate micro-benchmarks (google-benchmark): bitstring kernels,
// polynomial hash, hash table, Patricia ops, the z-fast trie, the
// two-layer index's second layer, and the Euler-tour partition.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/bitstring.hpp"
#include "core/rng.hpp"
#include "fasttrie/second_layer.hpp"
#include "fasttrie/zfast.hpp"
#include "hash/crc64.hpp"
#include "hash/hash_table.hpp"
#include "hash/poly_hash.hpp"
#include "trie/euler_partition.hpp"
#include "trie/patricia.hpp"
#include "workload/generators.hpp"

using namespace ptrie;
using core::BitString;

static void BM_BitStringLcp(benchmark::State& state) {
  auto keys = workload::shared_prefix_keys(2, state.range(0), 32, 201);
  for (auto _ : state) benchmark::DoNotOptimize(keys[0].lcp(keys[1]));
}
BENCHMARK(BM_BitStringLcp)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_BitStringAppend(benchmark::State& state) {
  auto keys = workload::uniform_keys(2, state.range(0), 202);
  for (auto _ : state) {
    BitString s = keys[0];
    s.append(keys[1]);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_BitStringAppend)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_PolyHash(benchmark::State& state) {
  hash::PolyHasher h(203);
  auto keys = workload::uniform_keys(1, state.range(0), 204);
  for (auto _ : state) benchmark::DoNotOptimize(h.hash(keys[0]));
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_PolyHash)->Arg(64)->Arg(1024)->Arg(16384);

static void BM_PolyHashCombine(benchmark::State& state) {
  hash::PolyHasher h(205);
  auto a = h.hash(workload::uniform_keys(1, 500, 206)[0]);
  auto b = h.hash(workload::uniform_keys(1, 700, 207)[0]);
  for (auto _ : state) benchmark::DoNotOptimize(h.combine(a, b, 700));
}
BENCHMARK(BM_PolyHashCombine);

static void BM_Crc64Hash(benchmark::State& state) {
  // The alternative Definition-2/3 hash: bit-serial CRC (a real DPU
  // would use its CRC unit; this shows the software cost profile).
  hash::Crc64 crc;
  auto keys = workload::uniform_keys(1, state.range(0), 220);
  for (auto _ : state) benchmark::DoNotOptimize(crc.hash(keys[0]));
  state.SetBytesProcessed(state.iterations() * state.range(0) / 8);
}
BENCHMARK(BM_Crc64Hash)->Arg(64)->Arg(1024);

static void BM_Crc64Combine(benchmark::State& state) {
  hash::Crc64 crc;
  auto a = crc.hash(workload::uniform_keys(1, 500, 221)[0]);
  auto b = crc.hash(workload::uniform_keys(1, 700, 222)[0]);
  for (auto _ : state) benchmark::DoNotOptimize(crc.combine(a, b, 700));
}
BENCHMARK(BM_Crc64Combine);

static void BM_HashTableLookup(benchmark::State& state) {
  hash::HashTable t;
  core::Rng rng(208);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(rng());
    t.insert(keys.back(), i);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.find(keys[i++ % keys.size()]));
  }
}
BENCHMARK(BM_HashTableLookup);

static void BM_PatriciaInsert(benchmark::State& state) {
  auto keys = workload::uniform_keys(state.range(0), 128, 209);
  for (auto _ : state) {
    trie::Patricia t;
    for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
    benchmark::DoNotOptimize(t.key_count());
  }
}
BENCHMARK(BM_PatriciaInsert)->Arg(256)->Arg(2048);

static void BM_PatriciaBulkBuild(benchmark::State& state) {
  auto keys = workload::uniform_keys(state.range(0), 128, 210);
  std::sort(keys.begin(), keys.end());
  std::vector<std::size_t> lcp(keys.size(), 0);
  for (std::size_t i = 1; i < keys.size(); ++i) lcp[i] = keys[i - 1].lcp(keys[i]);
  for (auto _ : state) {
    auto t = trie::Patricia::build_sorted(keys, lcp);
    benchmark::DoNotOptimize(t.key_count());
  }
}
BENCHMARK(BM_PatriciaBulkBuild)->Arg(256)->Arg(2048);

static void BM_PatriciaLcpQuery(benchmark::State& state) {
  auto keys = workload::uniform_keys(4096, 128, 211);
  trie::Patricia t;
  for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(t.lcp(keys[i++ % keys.size()]).first);
}
BENCHMARK(BM_PatriciaLcpQuery);

static void BM_ZFastLocate(benchmark::State& state) {
  hash::PolyHasher h(216);
  auto keys = workload::caterpillar_keys(state.range(0), 8, 217);
  trie::Patricia t;
  for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
  fasttrie::ZFastTrie z(t, h);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(z.locate(keys[i++ % keys.size()]).first);
  state.counters["height_bits"] = double(keys.size() * 8);
}
BENCHMARK(BM_ZFastLocate)->Arg(64)->Arg(512);

// `n` random strings shorter than w = 64 bits.
static std::vector<BitString> second_layer_strings(std::size_t n, std::uint64_t seed) {
  core::Rng rng(seed);
  std::vector<BitString> out(n);
  for (auto& s : out)
    for (std::size_t b = 0, len = rng.below(63); b < len; ++b) s.push_back(rng.coin());
  return out;
}

// Build cost of one second layer: each insert shifts the sorted arrays,
// so per-string cost grows with the bucket's size.
static void BM_SecondLayerInsert(benchmark::State& state) {
  auto strings = second_layer_strings(static_cast<std::size_t>(state.range(0)), 218);
  for (auto _ : state) {
    fasttrie::SecondLayerIndex idx(64);
    for (std::size_t i = 0; i < strings.size(); ++i) idx.insert(strings[i], i);
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SecondLayerInsert)->Arg(4)->Arg(64)->Arg(1024);

static void BM_SecondLayerQuery(benchmark::State& state) {
  fasttrie::SecondLayerIndex idx(64);
  auto strings = second_layer_strings(500, 218);
  for (std::size_t i = 0; i < strings.size(); ++i) idx.insert(strings[i], i);
  core::Rng rng(218);
  BitString q;
  for (int b = 0; b < 64; ++b) q.push_back(rng.coin());
  for (auto _ : state) benchmark::DoNotOptimize(idx.query(q));
}
BENCHMARK(BM_SecondLayerQuery);

static void BM_EulerPartition(benchmark::State& state) {
  auto keys = workload::uniform_keys(state.range(0), 128, 219);
  trie::Patricia t;
  for (std::size_t i = 0; i < keys.size(); ++i) t.insert(keys[i], i);
  auto weight = [&](trie::NodeId id) -> std::uint64_t {
    return 8 + t.node(id).edge.word_count();
  };
  for (auto _ : state) {
    auto part = trie::euler_partition(t, weight, 64);
    benchmark::DoNotOptimize(part.roots.size());
  }
}
BENCHMARK(BM_EulerPartition)->Arg(1024)->Arg(8192);

BENCHMARK_MAIN();
