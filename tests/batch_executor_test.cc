// Unit tests for the batch execution engine (tm/batch_executor.h +
// TuFastScheduler::RunBatch): group-commit fusion of consecutive small
// H transactions, capacity-aware bisection on abort, degradation to the
// per-item router at width 1, the adaptive fusion-width controller, and
// the fused-commit accounting parity between SchedulerStats counts and
// the telemetry histograms.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "htm/emulated_htm.h"
#include "testing/failpoints.h"
#include "tm/batch_executor.h"
#include "tm/scheduler_2pl.h"
#include "tm/telemetry.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

constexpr VertexId kVertices = 256;

/// Drives `RunBatch` over [0, n) where item i increments values[i] once.
template <typename Scheduler>
void IncrementBatch(Scheduler& tm, std::vector<TmWord>& values, uint64_t n,
                    uint64_t hint = 2) {
  RunBatch(
      tm, /*worker_id=*/0, 0, n, [hint](uint64_t) { return hint; },
      [&](auto& txn, uint64_t i) {
        const VertexId v = static_cast<VertexId>(i);
        txn.Write(v, &values[v], txn.Read(v, &values[v]) + 1);
      });
}

TEST(BatchExecutorTest, FusedBatchCommitsEveryItemExactlyOnce) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);  // One logical commit per item.
  EXPECT_GT(stats.fused_regions, 0u);
  EXPECT_GT(stats.fused_items, 0u);
  EXPECT_EQ(stats.fusion_aborts, 0u);
}

TEST(BatchExecutorTest, NonFusionSchedulerFallsBackToPerItemRun) {
  // The free-function RunBatch must accept any scheduler; ones without a
  // RunBatch member (all six baselines) get per-item Run semantics.
  EmulatedHtm htm;
  TwoPhaseLocking<EmulatedHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
}

TEST(BatchExecutorTest, FusionDisabledRoutesPerItem) {
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 1;
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  for (VertexId v = 0; v < 64; ++v) EXPECT_EQ(values[v], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);
  EXPECT_EQ(stats.fused_regions, 0u);
  EXPECT_EQ(stats.fused_items, 0u);
}

TEST(BatchExecutorTest, FixedWidthPacksExactRegions) {
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 8;
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 64u);
  EXPECT_EQ(stats.fused_regions, 8u);  // 64 items / width 8.
  EXPECT_EQ(stats.fused_items, 64u);
}

TEST(BatchExecutorTest, OversizedHintsAreNotFused) {
  // Items above the H hint threshold route straight to the per-item
  // router (O/L); fusing them would guarantee capacity aborts.
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 16, /*hint=*/tm.h_hint_threshold() + 1);
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(values[v], 1u);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 16u);
  EXPECT_EQ(stats.fused_regions, 0u);
}

TEST(BatchExecutorTest, BudgetCapsFusionWidth) {
  // Cumulative size hints within one fused region must stay inside the
  // H capacity budget: items of hint = threshold/2 can pack at most 2.
  EmulatedHtm htm;
  TuFast::Config config;
  config.fixed_fusion_width = 16;
  TuFast tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 8, /*hint=*/tm.h_hint_threshold() / 2);
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 8u);
  EXPECT_EQ(stats.fused_regions, 4u);  // Pairs, despite fixed width 16.
  EXPECT_EQ(stats.fused_items, 8u);
}

TEST(BatchExecutorTest, StatsAndTelemetryAgreeOnFusedCommits) {
  // The fused path counts in SchedulerStats and histograms in telemetry:
  // one width sample per committed region, one begin per fused item, and
  // no per-transaction latency sample for items that committed fused.
  EmulatedHtm htm;
  TuFastInstrumented tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 64);
  const SchedulerStats stats = tm.AggregatedStats();
  const TelemetrySnapshot snap = tm.AggregatedTelemetry().Snapshot();
  EXPECT_GT(stats.fused_regions, 0u);
  EXPECT_EQ(stats.fusion_aborts, 0u);
  EXPECT_EQ(snap.fusion_width_hist.count(), stats.fused_regions);
  EXPECT_EQ(snap.fusion_width_hist.sum(), stats.fused_items);
  EXPECT_EQ(snap.begins, stats.commits + stats.user_aborts);
  constexpr int kH = static_cast<int>(TxnClass::kH);
  EXPECT_EQ(snap.commit_latency_ns[kH].count() + stats.fused_items,
            stats.class_count[kH]);
}

TEST(BatchExecutorTest, ForcedCapacityAbortBisectsAndCommitsAll) {
  // Force a capacity abort on the 8th transactional store of worker 0 —
  // mid-way through the first 16-wide fused region. The executor must
  // bisect (16 -> 8+8), re-execute, and commit every item exactly once.
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm, EventTelemetry>::Config config;
  config.fixed_fusion_width = 16;
  TuFastScheduler<FaultyHtm, EventTelemetry> tm(htm, kVertices, config);
  std::vector<TmWord> values(kVertices, 0);
  FailpointPlan plan(FailpointPlan::Config{});
  plan.ForceAt(FailSite::kHtmStore, /*slot=*/0, /*hit_index=*/7,
               FailAction::kAbortCapacity);
  {
    FailpointScope scope(plan);
    IncrementBatch(tm, values, 16);
  }
  for (VertexId v = 0; v < 16; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.commits, 16u);
  EXPECT_EQ(stats.fusion_aborts, 1u);
  EXPECT_GE(stats.fusion_bisections, 1u);
  EXPECT_EQ(stats.fused_regions, 2u);  // Two 8-wide halves committed.
  EXPECT_EQ(stats.fused_items, 16u);
  const TelemetrySnapshot snap = tm.AggregatedTelemetry().Snapshot();
  EXPECT_GE(snap.bisection_depth_hist.max(), 1u);  // Committed at depth 1.
}

TEST(BatchExecutorTest, PersistentCapacityAbortsDegradeToPerItemRouter) {
  // A hostile plan that capacity-aborts ~30% of transactional stores:
  // fused attempts keep failing, bisection must bottom out at width 1
  // where the per-item router's own H -> O -> L fallback guarantees
  // progress. The run must terminate (no livelock) with every item
  // committed exactly once.
  FaultyHtm htm;
  TuFastScheduler<FaultyHtm> tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  FailpointPlan::Config plan_config;
  plan_config.seed = 11;
  plan_config.Arm(FailSite::kHtmStore, 0.3, FailAction::kAbortCapacity);
  FailpointPlan plan(plan_config);
  {
    FailpointScope scope(plan);
    IncrementBatch(tm, values, 128);
  }
  for (VertexId v = 0; v < 128; ++v) {
    EXPECT_EQ(values[v], 1u) << "vertex " << v;
  }
  EXPECT_EQ(tm.AggregatedStats().commits, 128u);
  EXPECT_GT(plan.InjectionCount(), 0u);
}

TEST(BatchExecutorTest, AdaptiveWidthShrinksUnderFusedAborts) {
  ContentionMonitor monitor;
  EXPECT_EQ(monitor.CurrentFusionWidth(16), 16u);  // No signal: go wide.
  // Every 2-wide attempt aborts: per-item abort probability 1/2, whose
  // P* = -1/ln(0.5) ~ 1.44 rounds down to width 1 — fuse nothing.
  for (int i = 0; i < 2000; ++i) {
    monitor.RecordFusedAttempt(/*items=*/2, /*aborted=*/true);
  }
  EXPECT_EQ(monitor.CurrentFusionWidth(16), 1u);
  EXPECT_GT(monitor.EstimatedItemP(), 0.05);
  // Wider failing attempts imply a lower per-item p, so the width floor
  // rises with the attempt width (P* of p = 1/8 is ~7): the controller
  // distinguishes "every region dies" from "every item dies".
  ContentionMonitor wide;
  for (int i = 0; i < 2000; ++i) {
    wide.RecordFusedAttempt(/*items=*/8, /*aborted=*/true);
  }
  EXPECT_GT(wide.CurrentFusionWidth(16), 1u);
  EXPECT_LT(wide.CurrentFusionWidth(16), 16u);
}

TEST(BatchExecutorTest, AdaptiveWidthRecoversWhenAbortsStop) {
  ContentionMonitor monitor;
  for (int i = 0; i < 200; ++i) {
    monitor.RecordFusedAttempt(/*items=*/8, /*aborted=*/true);
  }
  const uint32_t hot = monitor.CurrentFusionWidth(16);
  for (int i = 0; i < 5000; ++i) {
    monitor.RecordFusedAttempt(/*items=*/8, /*aborted=*/false);
  }
  EXPECT_GT(monitor.CurrentFusionWidth(16), hot);
  EXPECT_EQ(monitor.CurrentFusionWidth(1), 1u);  // Clamp floor.
}

TEST(BatchExecutorTest, ZeroItemAttemptCountsAsOne) {
  ContentionMonitor monitor;
  monitor.RecordFusedAttempt(0, true);  // Must not divide by zero.
  EXPECT_GE(monitor.EstimatedItemP(), 0.0);
  EXPECT_LE(monitor.EstimatedItemP(), 1.0);
  EXPECT_GE(monitor.CurrentFusionWidth(16), 1u);
}

TEST(BatchExecutorTest, EmptyAndSingleItemBatches) {
  EmulatedHtm htm;
  TuFast tm(htm, kVertices);
  std::vector<TmWord> values(kVertices, 0);
  IncrementBatch(tm, values, 0);  // Empty range: no-op.
  EXPECT_EQ(tm.AggregatedStats().commits, 0u);
  IncrementBatch(tm, values, 1);  // Width 1: per-item semantics.
  EXPECT_EQ(values[0], 1u);
  EXPECT_EQ(tm.AggregatedStats().commits, 1u);
  EXPECT_EQ(tm.AggregatedStats().fused_regions, 0u);
}

}  // namespace
}  // namespace tufast
