// Observability subsystem: phase stack semantics, per-phase rollups that
// reconcile exactly with the Metrics aggregates, distribution summaries,
// counter thread-safety under the pool, trace-JSON well-formedness
// (parsed back with the in-tree parser), and byte-identical traces across
// worker counts (the WorkerSweep determinism contract).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/parallel.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/metrics_window.hpp"
#include "obs/phase.hpp"
#include "obs/spans.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "pim/system.hpp"
#include "pimtrie/pim_trie.hpp"
#include "workload/generators.hpp"

namespace {

using ptrie::core::ThreadPool;
using ptrie::pim::Buffer;
using ptrie::pim::System;
namespace obs = ptrie::obs;
namespace json = ptrie::obs::json;

Buffer echo_kernel(ptrie::pim::Module& m, Buffer in) {
  m.work(in.size());
  return in;
}

// Runs a tiny phased schedule against `sys`: two rounds under A/B, one
// under A, one unphased.
void run_phased_schedule(System& sys) {
  {
    obs::Phase a("A");
    {
      obs::Phase b("B");
      for (int r = 0; r < 2; ++r) {
        std::vector<Buffer> to(sys.p());
        for (std::size_t m = 0; m < sys.p(); ++m) to[m].assign(m + 1, 7);
        sys.round("ab", std::move(to), echo_kernel);
      }
    }
    std::vector<Buffer> to(sys.p());
    to[0].assign(4, 9);
    sys.round("a_only", std::move(to), echo_kernel);
  }
  sys.broadcast_round("plain", Buffer{1, 2, 3}, echo_kernel);
}

TEST(Phase, NestingAndPathRestore) {
  EXPECT_EQ(obs::Phase::current_path(), "");
  {
    obs::Phase outer("Insert");
    EXPECT_EQ(obs::Phase::current_path(), "Insert");
    {
      obs::Phase inner("PushPull");
      EXPECT_EQ(obs::Phase::current_path(), "Insert/PushPull");
      EXPECT_EQ(obs::Phase::depth(), 2u);
    }
    EXPECT_EQ(obs::Phase::current_path(), "Insert");
  }
  EXPECT_EQ(obs::Phase::current_path(), "");
  EXPECT_EQ(obs::Phase::depth(), 0u);
}

TEST(Phase, IsThreadLocal) {
  obs::Phase outer("Main");
  std::string other;
  std::thread t([&] { other = obs::Phase::current_path(); });
  t.join();
  EXPECT_EQ(other, "");  // a fresh thread starts unphased
  EXPECT_EQ(obs::Phase::current_path(), "Main");
}

TEST(Phase, RoundsCarryPhasePathsAndRollupsReconcile) {
  System sys(4);
  sys.metrics().set_round_detail(true);
  run_phased_schedule(sys);

  const auto& rounds = sys.metrics().rounds();
  ASSERT_EQ(rounds.size(), 4u);
  EXPECT_EQ(rounds[0].phase, "A/B");
  EXPECT_EQ(rounds[1].phase, "A/B");
  EXPECT_EQ(rounds[2].phase, "A");
  EXPECT_EQ(rounds[3].phase, "");

  auto rollups = sys.metrics().phase_rollups();
  ASSERT_EQ(rollups.size(), 3u);  // first-seen order: A/B, A, ""
  EXPECT_EQ(rollups[0].phase, "A/B");
  EXPECT_EQ(rollups[0].rounds, 2u);
  EXPECT_EQ(rollups[1].phase, "A");
  EXPECT_EQ(rollups[2].phase, "");

  // Exact reconciliation: phase totals sum to the global aggregates.
  std::size_t rounds_sum = 0;
  std::uint64_t words_sum = 0, io_sum = 0, work_sum = 0, pim_sum = 0;
  for (const auto& r : rollups) {
    rounds_sum += r.rounds;
    words_sum += r.words;
    io_sum += r.io_time;
    work_sum += r.work;
    pim_sum += r.pim_time;
  }
  EXPECT_EQ(rounds_sum, sys.metrics().io_rounds());
  EXPECT_EQ(words_sum, sys.metrics().total_comm_words());
  EXPECT_EQ(io_sum, sys.metrics().io_time());
  EXPECT_EQ(work_sum, sys.metrics().total_pim_work());
  EXPECT_EQ(pim_sum, sys.metrics().pim_time());

  // With detail on, the skewed A/B rounds report their true imbalance:
  // module m gets (m+1) words in and out, so max/mean = 2*4/(2*2.5).
  EXPECT_NEAR(rollups[0].words_dist.imbalance, 8.0 / 5.0, 1e-9);
}

TEST(Stats, PercentilesNearestRank) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 100; ++i) v.push_back(i);
  obs::DistSummary s = obs::summarize(v);
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p95, 95u);
  EXPECT_EQ(s.p99, 99u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_NEAR(s.mean, 50.5, 1e-9);
  EXPECT_NEAR(s.imbalance, 100.0 / 50.5, 1e-9);

  obs::DistSummary one = obs::summarize({42});
  EXPECT_EQ(one.p50, 42u);
  EXPECT_EQ(one.p99, 42u);
  EXPECT_EQ(one.max, 42u);
  EXPECT_NEAR(one.imbalance, 1.0, 1e-9);

  obs::DistSummary empty = obs::summarize({});
  EXPECT_EQ(empty.max, 0u);
  EXPECT_NEAR(empty.imbalance, 1.0, 1e-9);
}

TEST(Counters, RegistryAccumulatesAndResets) {
  obs::Counter& c = obs::counter("test_obs/basic");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.get(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&obs::counter("test_obs/basic"), &c);
  bool found = false;
  for (const auto& [name, value] : obs::counters_snapshot())
    if (name == "test_obs/basic") {
      found = true;
      EXPECT_EQ(value, 42u);
    }
  EXPECT_TRUE(found);
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(Counters, ThreadSafeUnderPool) {
  ThreadPool::instance().set_workers(8);
  obs::Counter& c = obs::counter("test_obs/pool");
  c.reset();
  constexpr std::size_t kN = 200'000;
  // Mix cached-reference adds with registry-lookup adds from pool workers.
  ptrie::core::parallel_for(0, kN, [&](std::size_t i) {
    if (i % 2 == 0)
      c.add();
    else
      obs::counter("test_obs/pool").add();
  });
  EXPECT_EQ(c.get(), kN);
  ThreadPool::instance().set_workers(1);
}

// Concurrent first-use registration: threads race to create (and then
// bump) an overlapping set of fresh counters while another thread
// snapshots the registry the whole time. Exercises the registry's
// insert-vs-iterate locking; TSan-clean is the contract (the WorkerSweep
// prefix keeps it inside the sanitizer CI's gtest filter).
TEST(WorkerSweepCounters, ConcurrentFirstUseRegistrationAndSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  // The registry is process-global and counters persist across runs
  // (--gtest_repeat), so assert on the delta this run adds.
  auto race_sum = [] {
    std::uint64_t sum = 0;
    for (const auto& [name, value] : obs::counters_snapshot())
      if (name.rfind("test_obs/race/", 0) == 0) sum += value;
    return sum;
  };
  const std::uint64_t before = race_sum();
  std::atomic<bool> done{false};
  std::thread snapshotter([&] {
    while (!done.load(std::memory_order_relaxed)) (void)obs::counters_snapshot();
  });
  std::vector<std::thread> bumpers;
  for (int t = 0; t < kThreads; ++t)
    bumpers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        obs::counter("test_obs/race/" + std::to_string((t + i) % kThreads)).add();
    });
  for (auto& th : bumpers) th.join();
  done.store(true);
  snapshotter.join();
  EXPECT_EQ(race_sum() - before, std::uint64_t(kThreads) * kPerThread);
}

obs::RequestSample sample(std::uint32_t tenant, const char* op, std::uint64_t key_hash,
                          double total_us) {
  obs::RequestSample s;
  s.tenant = tenant;
  s.op = op;
  s.queue_us = total_us * 0.4;
  s.coalesce_us = total_us * 0.1;
  s.prep_us = total_us * 0.2;
  s.exec_us = total_us * 0.3;
  s.total_us = total_us;
  s.words = 10;
  s.batch_size = 4;
  s.key_hash = key_hash;
  return s;
}

TEST(MetricsWindow, AggregatesAndRendersJsonLines) {
  obs::MetricsWindow w;
  // Descending arrival order: the rendered max must still be the true
  // max (the percentile/max rendering must not depend on insert order).
  for (int i = 0; i < 3; ++i) w.record(sample(1, "get", 100 + i, 120 - 10 * i));
  for (int i = 0; i < 2; ++i) w.record(sample(2, "lcp", 200, 50));

  obs::WindowGauges g;
  g.in_flight = 2;
  g.queue_depth = 1;
  std::string out;
  auto alerts = w.roll(1000.0, g, &out);
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(w.windows(), 1u);

  std::size_t windows = 0, tenants = 0;
  for (std::size_t pos = 0; pos < out.size();) {
    std::size_t nl = out.find('\n', pos);
    std::string line = out.substr(pos, nl - pos);
    pos = nl + 1;
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse(line, v, err)) << err << "\n" << line;
    const std::string type = v.find("type")->as_string();
    if (type == "window") {
      ++windows;
      EXPECT_EQ(v.find("window")->as_int(), 0);
      EXPECT_EQ(v.find("ops")->as_int(), 5);
      EXPECT_EQ(v.find("in_flight")->as_int(), 2);
      EXPECT_EQ(v.find("queue_depth")->as_int(), 1);
      EXPECT_EQ(v.find("alerts")->as_int(), 0);
    } else if (type == "tenant") {
      ++tenants;
      std::int64_t id = v.find("tenant")->as_int();
      const json::Value* lat = v.find("lat_us");
      ASSERT_NE(lat, nullptr);
      const json::Value* total = lat->find("total");
      ASSERT_NE(total, nullptr);
      EXPECT_LE(total->find("p50")->as_double(), total->find("p95")->as_double());
      EXPECT_LE(total->find("p95")->as_double(), total->find("p99")->as_double());
      EXPECT_LE(total->find("p99")->as_double(), total->find("max")->as_double());
      if (id == 1) EXPECT_NEAR(total->find("max")->as_double(), 120.0, 1e-6);
      // Every stage block must be internally ordered too (p99 <= max
      // regardless of sample arrival order).
      for (const char* st : {"queue", "coalesce", "prep", "exec"}) {
        const json::Value* sv = lat->find(st);
        ASSERT_NE(sv, nullptr);
        EXPECT_LE(sv->find("p99")->as_double(), sv->find("max")->as_double()) << st;
      }
      if (id == 1) {
        EXPECT_EQ(v.find("ops")->as_int(), 3);
        EXPECT_EQ(v.find("by_op")->find("get")->as_int(), 3);
        EXPECT_NEAR(v.find("words_per_op")->as_double(), 10.0, 1e-9);
        EXPECT_NEAR(v.find("mean_batch")->as_double(), 4.0, 1e-9);
        // Three distinct keys: the hottest carries 1/3 of the ops.
        EXPECT_NEAR(v.find("hot_frac")->as_double(), 1.0 / 3.0, 1e-3);
      } else {
        EXPECT_EQ(id, 2);
        EXPECT_EQ(v.find("ops")->as_int(), 2);
        EXPECT_NEAR(v.find("hot_frac")->as_double(), 1.0, 1e-9);
      }
    }
  }
  EXPECT_EQ(windows, 1u);
  EXPECT_EQ(tenants, 2u);

  // Rolling again with nothing recorded: the window swap really cleared
  // the aggregates — a global line with zero ops and no tenant lines.
  std::string out2;
  EXPECT_TRUE(w.roll(1500.0, obs::WindowGauges{}, &out2).empty());
  EXPECT_EQ(w.windows(), 2u);
  EXPECT_NE(out2.find("\"ops\":0"), std::string::npos);
  EXPECT_EQ(out2.find("\"type\":\"tenant\""), std::string::npos);
}

TEST(MetricsWindow, HotKeyAlertRespectsMinOps) {
  obs::AlertConfig cfg;
  cfg.hot_key_frac = 0.5;
  cfg.module_imbalance = 1e9;
  cfg.min_ops = 10;
  obs::MetricsWindow w(cfg);

  for (int i = 0; i < 9; ++i) w.record(sample(3, "get", 777, 10));
  EXPECT_TRUE(w.roll(100.0, obs::WindowGauges{}, nullptr).empty());  // below min_ops

  for (int i = 0; i < 10; ++i) w.record(sample(3, "get", 777, 10));
  auto alerts = w.roll(200.0, obs::WindowGauges{}, nullptr);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "hot_key");
  EXPECT_TRUE(alerts[0].has_tenant);
  EXPECT_EQ(alerts[0].tenant, 3u);
  EXPECT_NEAR(alerts[0].value, 1.0, 1e-9);
  EXPECT_EQ(alerts[0].hot_hash, 777u);
  EXPECT_EQ(alerts[0].window, 1u);
}

TEST(MetricsWindow, ModuleImbalanceAlert) {
  obs::AlertConfig cfg;
  cfg.hot_key_frac = 2.0;  // unreachable: isolate the imbalance detector
  cfg.module_imbalance = 2.0;
  cfg.min_ops = 1;
  obs::MetricsWindow w(cfg);

  w.record(sample(1, "lcp", 1, 10));
  w.record_batch_module_words({100, 0, 0, 0});  // max/mean = 4
  auto alerts = w.roll(100.0, obs::WindowGauges{}, nullptr);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "module_imbalance");
  EXPECT_FALSE(alerts[0].has_tenant);
  EXPECT_NEAR(alerts[0].value, 4.0, 1e-9);

  w.record(sample(1, "lcp", 1, 10));
  w.record_batch_module_words({25, 25, 25, 25});  // max/mean = 1
  EXPECT_TRUE(w.roll(200.0, obs::WindowGauges{}, nullptr).empty());
}

TEST(SpanSamplerTest, DeterministicSubsetWithSaneDensity) {
  obs::SpanSampler a(7, 4), b(7, 4);
  std::size_t hits = 0;
  for (std::uint64_t s = 0; s < 4096; ++s) {
    EXPECT_EQ(a.sampled(s), b.sampled(s)) << s;
    if (a.sampled(s)) ++hits;
  }
  // 1-in-4 through a 64-bit mixer: loosely binomial around 1024.
  EXPECT_GT(hits, 4096u / 8);
  EXPECT_LT(hits, 4096u / 2);

  obs::SpanSampler all(123, 1);
  obs::SpanSampler dflt;  // default: sample everything
  for (std::uint64_t s = 0; s < 64; ++s) {
    EXPECT_TRUE(all.sampled(s));
    EXPECT_TRUE(dflt.sampled(s));
  }

  // Different seed, same rate: a different (but still deterministic) set.
  obs::SpanSampler other(8, 4);
  bool differs = false;
  for (std::uint64_t s = 0; s < 4096 && !differs; ++s)
    differs = a.sampled(s) != other.sampled(s);
  EXPECT_TRUE(differs);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Trace::instance().clear();
    obs::Trace::instance().force_enabled(true);
  }
  void TearDown() override {
    obs::Trace::instance().force_enabled(false);
    obs::Trace::instance().clear();
    ThreadPool::instance().set_workers(1);
  }
};

TEST_F(TraceTest, ChromeJsonParsesAndReconcilesWithMetrics) {
  System sys(4);
  run_phased_schedule(sys);
  ASSERT_EQ(obs::Trace::instance().round_count(), 4u);

  std::string text = obs::Trace::instance().chrome_json();
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::parse(text, root, error)) << error;
  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Phase-track events (tid 0, ph X) reconcile exactly with Metrics.
  std::uint64_t words = 0, io = 0, pim = 0, work = 0;
  std::size_t round_events = 0, module_events = 0;
  for (const auto& ev : events->arr) {
    const json::Value* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() != "X") continue;
    const json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    if (ev.find("tid")->as_int() == 0) {
      ++round_events;
      words += static_cast<std::uint64_t>(args->find("total_words")->as_int());
      io += static_cast<std::uint64_t>(args->find("io_time")->as_int());
      pim += static_cast<std::uint64_t>(args->find("pim_time")->as_int());
      work += static_cast<std::uint64_t>(args->find("total_work")->as_int());
    } else {
      ++module_events;
    }
  }
  EXPECT_EQ(round_events, sys.metrics().io_rounds());
  EXPECT_EQ(words, sys.metrics().total_comm_words());
  EXPECT_EQ(io, sys.metrics().io_time());
  EXPECT_EQ(pim, sys.metrics().pim_time());
  EXPECT_EQ(work, sys.metrics().total_pim_work());
  // Touched modules only: 2*4 for the two ab rounds, 1 for a_only, 4 for
  // the broadcast.
  EXPECT_EQ(module_events, 13u);
}

TEST_F(TraceTest, CsvHasOneLinePerTouchedModule) {
  System sys(2);
  sys.broadcast_round("r", Buffer{5}, echo_kernel);
  std::ostringstream os;
  obs::Trace::instance().write_csv(os);
  std::string csv = os.str();
  // Header + one line per touched module.
  std::size_t lines = 0;
  for (char ch : csv)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(csv.find("system,round,label,phase"), std::string::npos);
  EXPECT_NE(csv.find(",r,"), std::string::npos);
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  obs::Trace::instance().force_enabled(false);
  System sys(2);
  sys.broadcast_round("r", Buffer{5}, echo_kernel);
  EXPECT_EQ(obs::Trace::instance().round_count(), 0u);
  // And metrics round detail stays off -> RoundStats carry no vectors.
  EXPECT_FALSE(sys.metrics().round_detail());
  EXPECT_TRUE(sys.metrics().rounds().back().module_words.empty());
}

// The determinism contract extended to traces: identical bytes for any
// worker count. Runs a real PimTrie workload (build + LCP + insert),
// which exercises every instrumented phase.
class WorkerSweepTrace : public ::testing::Test {
 protected:
  void TearDown() override {
    ThreadPool::instance().set_workers(1);
    obs::Trace::instance().force_enabled(false);
    obs::Trace::instance().clear();
  }
};

TEST_F(WorkerSweepTrace, TraceBytesInvariantAcrossWorkerCounts) {
  auto keys = ptrie::workload::shared_prefix_keys(250, 120, 64, 21);
  auto more = ptrie::workload::uniform_keys(120, 96, 22);
  std::vector<std::uint64_t> values(keys.size(), 1), more_values(more.size(), 2);

  auto run = [&]() -> std::string {
    obs::Trace::instance().clear();
    obs::Trace::instance().force_enabled(true);
    System sys(8);
    ptrie::pimtrie::PimTrie pt(sys, ptrie::pimtrie::Config{});
    pt.build(keys, values);
    pt.batch_lcp(more);
    pt.batch_insert(more, more_values);
    pt.batch_lcp(keys);
    std::string out = obs::Trace::instance().chrome_json();
    obs::Trace::instance().force_enabled(false);
    return out;
  };

  ThreadPool::instance().set_workers(1);
  std::string serial = run();
  EXPECT_GT(serial.size(), 1000u);
  for (std::size_t w : {2u, 8u}) {
    ThreadPool::instance().set_workers(w);
    std::string parallel = run();
    EXPECT_EQ(serial, parallel) << "trace bytes differ at workers=" << w;
  }
}

}  // namespace
