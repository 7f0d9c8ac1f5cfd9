// Sharded-vs-shared equivalence (the `stress` ctest label): enabling the
// shard-per-core layer must be invisible in the results. Two regimes:
//
//  * all-local — with every shard owned by the one running worker, the
//    sharded router feeds the exact same windowed core through an index
//    indirection, so results must stay *bit-identical* to the shared-
//    table golden run for every algorithm, chaos plan or not;
//  * message path — with shard_workers > 1 on a single-threaded pool the
//    runner owns only shard 0 and must ship, drain and flush the rest.
//    Message execution reorders transactions, so the check is exact
//    equality on the order-independent fixpoint algorithms (WCC label
//    minima, SSSP distances) plus full message accounting: every
//    accepted message is executed exactly once, full mailboxes bounce
//    items to local execution, and nothing is ever dropped.
//
// Golden results come from the plain EmulatedHtm TuFast scheduler with
// no failpoints and no sharding — the configuration whose correctness
// the rest of the suite already establishes.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/coloring.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/wcc.h"
#include "graph/generators.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "testing/failpoints.h"
#include "testing/stress_workloads.h"

namespace tufast {
namespace {

struct AlgoResults {
  std::vector<double> pagerank;
  std::vector<TmWord> wcc;
  std::vector<TmWord> sssp;
  std::vector<TmWord> kcore;
  std::vector<TmWord> colors;
};

struct TestGraphs {
  Graph directed;
  Graph reversed;
  Graph undirected;
};

const TestGraphs& SharedGraphs() {
  static const TestGraphs* graphs = [] {
    auto* g = new TestGraphs;
    g->directed = GenerateRmat(/*scale=*/7, /*avg_degree=*/8, /*seed=*/99,
                               {.weighted = true});
    g->reversed = g->directed.Reversed();
    g->undirected = g->directed.Undirected();
    return g;
  }();
  return *graphs;
}

template <typename Scheduler>
AlgoResults RunConvertedAlgorithms(Scheduler& tm, ThreadPool& pool) {
  const TestGraphs& g = SharedGraphs();
  AlgoResults r;
  PageRankOptions pr;
  pr.max_iterations = 12;
  pr.tolerance = 1e-12;
  r.pagerank = PageRankTm(tm, pool, g.directed, g.reversed, pr).ranks;
  r.wcc = WccTm(tm, pool, g.undirected);
  r.sssp = SsspTm(tm, pool, g.directed, /*source=*/0);
  r.kcore = KCoreTm(tm, pool, g.undirected);
  r.colors = GreedyColoringTm(tm, pool, g.undirected);
  return r;
}

const AlgoResults& GoldenResults() {
  static const AlgoResults* golden = [] {
    EmulatedHtm htm;
    TuFast tm(htm, SharedGraphs().directed.NumVertices());
    ThreadPool pool(1);
    return new AlgoResults(RunConvertedAlgorithms(tm, pool));
  }();
  return *golden;
}

void ExpectBitIdentical(const AlgoResults& got, const std::string& label) {
  const AlgoResults& want = GoldenResults();
  EXPECT_EQ(got.pagerank, want.pagerank) << label << ": PageRank diverged";
  EXPECT_EQ(got.wcc, want.wcc) << label << ": WCC diverged";
  EXPECT_EQ(got.sssp, want.sssp) << label << ": SSSP diverged";
  EXPECT_EQ(got.kcore, want.kcore) << label << ": k-core diverged";
  EXPECT_EQ(got.colors, want.colors) << label << ": coloring diverged";
}

/// Same chaos mix as the batch-equivalence suite, plus the two sharding
/// sites: forced full-mailbox bounces and adversarial drain reordering.
FailpointPlan::Config ShardChaos(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmStore, 0.02, FailAction::kAbortCapacity);
  config.Arm(FailSite::kHtmLoad, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmCommit, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kRouterSkipH, 0.02, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireExclusive, 0.005, FailAction::kFail);
  config.Arm(FailSite::kMailboxFull, 0.05, FailAction::kFail);
  config.Arm(FailSite::kMessageReorder, 0.2, FailAction::kFail);
  return config;
}

/// Detects a scheduler Config with the sharding switch (TuFast only).
template <typename S, typename = void>
struct SchedulerConfigHasSharding : std::false_type {};
template <typename S>
struct SchedulerConfigHasSharding<
    S, std::void_t<decltype(std::declval<typename S::Config&>()
                                .enable_sharding)>> : std::true_type {};

template <typename Scheduler>
class ShardingEquivalenceTest : public ::testing::Test {};

using EquivalenceSchedulers = ::testing::Types<
    TuFastScheduler<FaultyHtm>, TwoPhaseLocking<FaultyHtm>, SiloOcc<FaultyHtm>,
    TimestampOrdering<FaultyHtm>, TinyStm<FaultyHtm>, HsyncHybrid<FaultyHtm>,
    HtmTimestampOrdering<FaultyHtm>>;
TYPED_TEST_SUITE(ShardingEquivalenceTest, EquivalenceSchedulers);

// All-local regime: every scheduler must reproduce the golden results
// bit-for-bit through the home-aware RunBatch entry point. Baselines
// exercise the free-dispatcher fallback (the home mapping is dropped);
// TuFast sweeps sharded configurations in which the single pool worker
// owns every shard, so routing never ships.
TYPED_TEST(ShardingEquivalenceTest, AllLocalShardingIsBitIdentical) {
  using Scheduler = TypeParam;
  const VertexId n = SharedGraphs().directed.NumVertices();
  ThreadPool pool(1);

  if constexpr (!SchedulerConfigHasSharding<Scheduler>::value) {
    FaultyHtm htm;
    auto tm = MakeSchedulerFor<Scheduler>(htm, n, DeadlockPolicy::kDetection);
    FailpointPlan plan(ShardChaos(/*seed=*/11));
    FailpointScope scope(plan);
    ExpectBitIdentical(RunConvertedAlgorithms(*tm, pool), "no sharding knob");
  } else {
    for (const uint32_t shards : {1u, 4u, 7u}) {
      const std::string label = std::to_string(shards) + " shards";
      FaultyHtm htm;
      typename Scheduler::Config config;
      config.enable_sharding = true;
      config.num_shards = shards;
      config.shard_workers = 1;  // Worker 0 owns every shard: all local.
      Scheduler tm(htm, n, config);
      FailpointPlan plan(ShardChaos(/*seed=*/12));
      FailpointScope scope(plan);
      ExpectBitIdentical(RunConvertedAlgorithms(tm, pool), label);
      const SchedulerStats stats = tm.AggregatedStats();
      EXPECT_GT(stats.shard_local_items, 0u) << label;
      EXPECT_EQ(stats.shard_messages_sent, 0u) << label;
      EXPECT_EQ(stats.shard_messages_drained, 0u) << label;
    }
  }
}

/// Runs the message-path regime on TuFast and checks fixpoint results
/// plus lossless message accounting.
void RunMessagePathChecks(const char* label, uint32_t mailbox_capacity,
                          bool with_chaos, uint64_t seed) {
  using Scheduler = TuFastScheduler<FaultyHtm>;
  const TestGraphs& g = SharedGraphs();
  const VertexId n = g.directed.NumVertices();
  ThreadPool pool(1);

  FaultyHtm htm;
  Scheduler::Config config;
  config.enable_sharding = true;
  config.num_shards = 4;
  config.shard_workers = 4;  // Worker 0 owns only shard 0: 3/4 ships.
  config.am_batch = 8;
  config.mailbox_capacity = mailbox_capacity;
  Scheduler tm(htm, n, config);

  FailpointPlan::Config plan_config;
  plan_config.seed = seed;
  if (with_chaos) plan_config = ShardChaos(seed);
  FailpointPlan plan(plan_config);
  FailpointScope scope(plan);

  const std::vector<TmWord> wcc = WccTm(tm, pool, g.undirected);
  const std::vector<TmWord> sssp = SsspTm(tm, pool, g.directed, /*source=*/0);
  EXPECT_EQ(wcc, GoldenResults().wcc) << label << ": WCC diverged";
  EXPECT_EQ(sssp, GoldenResults().sssp) << label << ": SSSP diverged";

  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_GT(stats.shard_messages_sent, 0u) << label;
  // The flush protocol's post-condition: every accepted message was
  // executed exactly once before its sender's batch returned.
  EXPECT_EQ(stats.shard_messages_drained, stats.shard_messages_sent) << label;
  EXPECT_GT(stats.shard_drain_batches, 0u) << label;
  EXPECT_GT(stats.shard_max_mailbox_depth, 0u) << label;
  if (mailbox_capacity <= 16 || with_chaos) {
    // Tiny rings / armed kMailboxFull must actually bounce — and the
    // results above prove the bounced items still executed.
    EXPECT_GT(stats.shard_mailbox_full, 0u) << label;
  } else {
    EXPECT_EQ(stats.shard_mailbox_full, 0u) << label;
  }
}

TEST(ShardingMessagePathTest, FixpointResultsMatchGolden) {
  RunMessagePathChecks("roomy ring", /*mailbox_capacity=*/1024,
                       /*with_chaos=*/false, /*seed=*/21);
}

TEST(ShardingMessagePathTest, TinyMailboxBouncesLosslessly) {
  RunMessagePathChecks("tiny ring", /*mailbox_capacity=*/16,
                       /*with_chaos=*/false, /*seed=*/22);
}

TEST(ShardingMessagePathTest, SurvivesShardChaosPlan) {
  RunMessagePathChecks("chaos", /*mailbox_capacity=*/64,
                       /*with_chaos=*/true, /*seed=*/23);
}

}  // namespace
}  // namespace tufast
