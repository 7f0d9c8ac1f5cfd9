// Hot-vertex flat-combining (the `stress` ctest label): enabling the
// combining layer must be invisible in the results. The oracle is
// integer exactness: the batched stress workloads precompute their
// per-vertex increment histogram (and the bank-transfer grand total), so
// "combining on" and "combining off" are both required to land on the
// same exact counters — bit-identical in the integer domain, which is
// the only domain where cross-run identity is even well-defined once
// combining reorders commutative-but-float-sensitive work.
//
// Coverage:
//  * ContentionHistory unit behavior: EWMA rise on aborts, decay on
//    clean attempts, enter/exit hysteresis, bucket hashing;
//  * the full scheduler matrix (7 schedulers x applicable deadlock
//    policies) through MakeCombiningSchedulerFor under combiner chaos
//    (forced full-ring bounces + drains released after one message),
//    plain and stacked on sharding;
//  * deterministic single-worker exactness with every ship forced to
//    bounce and with every drain released after one message;
//  * composition with enable_mvcc: combining writers + abort-free
//    snapshot readers.

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testing/failpoints.h"
#include "testing/stress_workloads.h"
#include "tm/contention_history.h"

namespace tufast {
namespace {

// ---------------------------------------------------------------------
// ContentionHistory unit behavior.

TEST(ContentionHistoryTest, AbortsHeatARegionExactlyOnce) {
  ContentionHistory history({/*buckets=*/64, /*hot_threshold=*/0.5});
  EXPECT_FALSE(history.IsHot(7));
  int transitions = 0;
  int attempts = 0;
  while (!history.IsHot(7) && attempts < 64) {
    if (history.RecordAttempt(7, /*aborted=*/true)) ++transitions;
    ++attempts;
  }
  ASSERT_TRUE(history.IsHot(7)) << "64 straight aborts must heat the region";
  EXPECT_EQ(transitions, 1) << "became-hot must be reported exactly once";
  EXPECT_GE(history.ScoreOf(7), 0.5);
  EXPECT_EQ(history.HotCount(), 1u);
}

TEST(ContentionHistoryTest, HysteresisHoldsHotPastTheEnterScore) {
  ContentionHistory history({64, 0.5});
  while (!history.IsHot(7)) history.RecordAttempt(7, true);
  // One clean attempt decays the score below the enter threshold, but
  // the hot bit must persist until the score falls below exit (half).
  history.RecordAttempt(7, false);
  EXPECT_TRUE(history.IsHot(7))
      << "a single clean attempt must not flip a hot region cold";
  int attempts = 0;
  while (history.IsHot(7) && attempts < 256) {
    history.RecordAttempt(7, false);
    ++attempts;
  }
  ASSERT_FALSE(history.IsHot(7)) << "sustained clean traffic must cool";
  EXPECT_GT(attempts, 3) << "exit must lag entry (hysteresis band)";
  EXPECT_LT(history.ScoreOf(7), 0.25);
  EXPECT_EQ(history.HotCount(), 0u);
}

TEST(ContentionHistoryTest, ScoreSaturatesAndDecays) {
  ContentionHistory history({64, 0.5});
  for (int i = 0; i < 512; ++i) history.RecordAttempt(3, true);
  const double saturated = history.ScoreOf(3);
  EXPECT_LE(saturated, 1.0);
  history.RecordAttempt(3, false);
  EXPECT_LT(history.ScoreOf(3), saturated) << "clean attempts must decay";
}

TEST(ContentionHistoryTest, BucketsStayInRangeAndAliasedVerticesShareHeat) {
  ContentionHistory history({16, 0.5});
  EXPECT_EQ(history.num_buckets(), 16u);
  for (VertexId v = 0; v < 4096; ++v) {
    EXPECT_LT(history.BucketOf(v), 16u);
  }
  // Heat one vertex; every vertex hashing to the same bucket reads hot —
  // region granularity is the documented contract, not per-vertex truth.
  while (!history.IsHot(5)) history.RecordAttempt(5, true);
  for (VertexId v = 0; v < 4096; ++v) {
    EXPECT_EQ(history.IsHot(v), history.BucketOf(v) == history.BucketOf(5));
  }
}

TEST(ContentionHistoryTest, DegenerateThresholdsAreClamped) {
  // NaN, zero and huge thresholds must still yield a usable history.
  for (const double t : {0.0, -1.0, 7.0, std::nan("")}) {
    ContentionHistory history({8, t});
    for (int i = 0; i < 256; ++i) history.RecordAttempt(1, true);
    EXPECT_TRUE(history.IsHot(1)) << "threshold " << t;
  }
}

// ---------------------------------------------------------------------
// Scheduler-matrix equivalence under combiner chaos.

FailpointPlan::Config CombineChaos(uint64_t seed) {
  FailpointPlan::Config config;
  config.seed = seed;
  config.Arm(FailSite::kHtmStore, 0.02, FailAction::kAbortCapacity);
  config.Arm(FailSite::kHtmLoad, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kHtmCommit, 0.005, FailAction::kAbortConflict);
  config.Arm(FailSite::kRouterSkipH, 0.02, FailAction::kFail);
  config.Arm(FailSite::kLockAcquireExclusive, 0.005, FailAction::kFail);
  config.Arm(FailSite::kMailboxFull, 0.3, FailAction::kFail);
  config.Arm(FailSite::kOwnerHandoff, 0.3, FailAction::kFail);
  return config;
}

template <typename Scheduler>
class CombiningEquivalenceTest : public ::testing::Test {};

using EquivalenceSchedulers = ::testing::Types<
    TuFastScheduler<FaultyHtm>, TwoPhaseLocking<FaultyHtm>, SiloOcc<FaultyHtm>,
    TimestampOrdering<FaultyHtm>, TinyStm<FaultyHtm>, HsyncHybrid<FaultyHtm>,
    HtmTimestampOrdering<FaultyHtm>>;
TYPED_TEST_SUITE(CombiningEquivalenceTest, EquivalenceSchedulers);

// The batched conservation + exactly-once histogram suite must hold on
// every scheduler x applicable policy with the combining configuration
// (hair-trigger threshold, 4-message hot rings) and combiner failpoints
// armed.
// The workloads' precomputed histograms make "on equals off" exact: both
// must equal the same integer oracle.
TYPED_TEST(CombiningEquivalenceTest, BatchedInvariantsHoldWithCombining) {
  using Scheduler = TypeParam;
  std::vector<DeadlockPolicy> policies;
  if constexpr (kSchedulerUsesPolicy<Scheduler, FaultyHtm>) {
    policies = {DeadlockPolicy::kDetection, DeadlockPolicy::kPrevention,
                DeadlockPolicy::kTimeout};
  } else {
    policies = {DeadlockPolicy::kDetection};
  }
  for (const DeadlockPolicy policy : policies) {
    for (const bool sharded : {false, true}) {
      FaultyHtm htm;
      auto tm = MakeCombiningSchedulerFor<Scheduler>(
          htm, /*vertices=*/48, policy, sharded, /*workers=*/3);
      FailpointPlan plan(CombineChaos(/*seed=*/31 + (sharded ? 1 : 0)));
      FailpointScope scope(plan);
      StressConfig cfg;
      cfg.threads = 3;
      cfg.txns_per_thread = 120;
      cfg.vertices = 48;
      cfg.seed = 31;
      cfg.ordered_for_update = policy == DeadlockPolicy::kPrevention;
      const auto err = RunShardedInvariantSuite(*tm, cfg);
      EXPECT_FALSE(err.has_value())
          << (err ? *err : "") << " (sharded=" << sharded << ")";
    }
  }
}

// ---------------------------------------------------------------------
// Deterministic single-worker exactness on TuFast.

using CombiningTuFast = TuFastScheduler<FaultyHtm>;

CombiningTuFast::Config CombiningConfig() {
  CombiningTuFast::Config config;
  config.enable_combining = true;
  config.hot_threshold = 0.1;
  config.am_batch = 4;
  config.combine_history_buckets = 64;
  return config;
}

/// Runs `items` single-increment batch items over `targets` on one
/// worker and returns the final counters; the contention history is
/// pre-heated for vertices [0, hot_set) so the router ships from the
/// first window (single-worker runs never abort, so heat cannot develop
/// organically).
std::vector<TmWord> RunHistogram(CombiningTuFast& tm, VertexId vertices,
                                 const std::vector<VertexId>& targets,
                                 VertexId hot_set) {
  if (tm.delegation() != nullptr) {
    for (VertexId v = 0; v < hot_set; ++v) {
      for (int k = 0; k < 64; ++k) {
        tm.delegation()->history()->RecordAttempt(v, true);
      }
    }
  }
  std::vector<TmWord> counters(vertices, 0);
  auto hint = [](uint64_t) -> uint64_t { return 2; };
  auto home = [&](uint64_t k) { return targets[k]; };
  auto body = [&](auto& txn, uint64_t k) {
    const VertexId v = targets[k];
    txn.Write(v, &counters[v], txn.Read(v, &counters[v]) + 1);
  };
  constexpr uint64_t kWindow = 32;
  for (uint64_t lo = 0; lo < targets.size(); lo += kWindow) {
    const uint64_t hi =
        lo + kWindow < targets.size() ? lo + kWindow : targets.size();
    tm.RunBatch(0, lo, hi, hint, home, body);
  }
  return counters;
}

std::vector<VertexId> MixedTargets(VertexId vertices, VertexId hot_set,
                                   uint64_t items, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> targets;
  targets.reserve(items);
  for (uint64_t i = 0; i < items; ++i) {
    // 60% hot head, 40% cold tail: both router paths in every window.
    const bool hot = rng.NextBounded(10) < 6;
    targets.push_back(
        hot ? static_cast<VertexId>(rng.NextBounded(hot_set))
            : static_cast<VertexId>(hot_set + rng.NextBounded(vertices -
                                                              hot_set)));
  }
  return targets;
}

std::vector<TmWord> ExpectedHistogram(VertexId vertices,
                                      const std::vector<VertexId>& targets) {
  std::vector<TmWord> expected(vertices, 0);
  for (const VertexId v : targets) ++expected[v];
  return expected;
}

TEST(CombiningExactnessTest, OnAndOffLandOnTheSameHistogram) {
  constexpr VertexId kVertices = 48;
  const std::vector<VertexId> targets =
      MixedTargets(kVertices, /*hot_set=*/4, /*items=*/4096, /*seed=*/41);
  const std::vector<TmWord> expected = ExpectedHistogram(kVertices, targets);

  FaultyHtm htm_off;
  CombiningTuFast off(htm_off, kVertices);  // default: combining disabled
  EXPECT_EQ(RunHistogram(off, kVertices, targets, 0), expected);
  EXPECT_EQ(off.AggregatedStats().combined_ops, 0u);
  EXPECT_EQ(off.AggregatedStats().combine_batches, 0u);

  FaultyHtm htm_on;
  CombiningTuFast on(htm_on, kVertices, CombiningConfig());
  EXPECT_EQ(RunHistogram(on, kVertices, targets, /*hot_set=*/4), expected);
  const SchedulerStats stats = on.AggregatedStats();
  EXPECT_GT(stats.combined_ops, 0u) << "pre-heated head must combine";
  EXPECT_GT(stats.combine_batches, 0u);
  EXPECT_EQ(stats.commits, targets.size())
      << "every item commits exactly once, combined or cold";
}

TEST(CombiningExactnessTest, ForcedSlotFullFallsBackWithoutLoss) {
  constexpr VertexId kVertices = 48;
  const std::vector<VertexId> targets =
      MixedTargets(kVertices, 4, 2048, /*seed=*/42);

  FaultyHtm htm;
  CombiningTuFast tm(htm, kVertices, CombiningConfig());
  FailpointPlan::Config pc;
  pc.seed = 42;
  pc.Arm(FailSite::kMailboxFull, 1.0, FailAction::kFail);
  FailpointPlan plan(pc);
  FailpointScope scope(plan);
  EXPECT_EQ(RunHistogram(tm, kVertices, targets, 4),
            ExpectedHistogram(kVertices, targets));
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.combined_ops, 0u)
      << "every ship was forced to bounce; nothing may combine";
  EXPECT_GT(stats.combine_slot_full, 0u);
  EXPECT_EQ(stats.commits, targets.size());
}

TEST(CombiningExactnessTest, ForcedOwnerHandoffStillAppliesEveryOp) {
  constexpr VertexId kVertices = 48;
  const std::vector<VertexId> targets =
      MixedTargets(kVertices, 4, 2048, /*seed=*/43);

  FaultyHtm htm;
  CombiningTuFast tm(htm, kVertices, CombiningConfig());
  FailpointPlan::Config pc;
  pc.seed = 43;
  pc.Arm(FailSite::kOwnerHandoff, 1.0, FailAction::kFail);
  FailpointPlan plan(pc);
  FailpointScope scope(plan);
  EXPECT_EQ(RunHistogram(tm, kVertices, targets, 4),
            ExpectedHistogram(kVertices, targets));
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_GT(stats.combined_ops, 0u);
  // Handed-off drains take one op at a time, so batches outnumber a
  // clean run's; every op still applies exactly once (histogram above).
  EXPECT_GE(stats.combine_batches, stats.combined_ops)
      << "one-op drains: at least one batch per combined op";
  EXPECT_EQ(stats.commits, targets.size());
}

// ---------------------------------------------------------------------
// Composition with MVCC snapshot reads.

TEST(CombiningMvccTest, SnapshotReadersStayAbortFreeOverCombiningWriters) {
  constexpr VertexId kVertices = 48;
  FaultyHtm htm;
  CombiningTuFast::Config config = CombiningConfig();
  config.enable_mvcc = true;
  CombiningTuFast tm(htm, kVertices, config);
  FailpointPlan plan(CombineChaos(/*seed=*/44));
  FailpointScope scope(plan);

  StressConfig cfg;
  cfg.threads = 3;
  cfg.txns_per_thread = 150;
  cfg.vertices = kVertices;
  cfg.seed = 44;
  auto err = RunShardedBatchExactlyOnce(tm, cfg);
  if (!err) err = RunMvccSnapshotSuite(tm, cfg);
  EXPECT_FALSE(err.has_value()) << (err ? *err : "");
}

}  // namespace
}  // namespace tufast
