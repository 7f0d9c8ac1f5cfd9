#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer metrics read after a traced phase: the scheduler's own
// counters (AggregatedStats / AggregatedHtmStats / AggregatedTelemetry)
// and the tracer's span aggregates.

#include <map>
#include <string>

#include "bench.h"
#include "bench_support/datasets.h"
#include "tm/telemetry.h"
#include "trace.h"

namespace perfbench {

using LayerMap = std::map<std::string, double>;

/// A Table II stand-in (bench_support/datasets.h) at `scale`. Datasets
/// keep their own fixed generator seeds, like the paper's fixed graphs;
/// the workload seed drives the operation streams run against them.
inline tufast::DatasetSpec Dataset(int index, double scale) {
  return tufast::BenchDatasets(scale).at(index);
}

/// htm / sync / tm counters of an EventTelemetry scheduler, quiesced.
template <typename Sched>
void SchedulerLayers(const Sched& tm, LayerMap& m) {
  const tufast::SchedulerStats s = tm.AggregatedStats();
  const tufast::HtmStats h = tm.AggregatedHtmStats();
  const tufast::TelemetrySnapshot t = tm.AggregatedTelemetry().Snapshot();
  const double commits = static_cast<double>(s.commits);

  m["htm.attempts_per_commit"] = Ratio(h.begins, h.commits);
  m["htm.conflict_frac"] = Ratio(h.conflict_aborts, h.begins);
  m["htm.capacity_frac"] = Ratio(h.capacity_aborts, h.begins);

  m["sync.lock_busy_per_commit"] = Ratio(s.lock_busy_aborts, commits);
  m["sync.deadlock_per_commit"] = Ratio(s.deadlock_aborts, commits);
  double mode_ns = 0;
  for (const uint64_t ns : t.time_in_mode_ns) mode_ns += ns;
  m["sync.l_time_frac"] = Ratio(
      t.time_in_mode_ns[static_cast<int>(tufast::SchedMode::kLock)], mode_ns);

  using tufast::TxnClass;
  auto cls = [&](TxnClass c) {
    return static_cast<double>(s.class_count[static_cast<int>(c)]);
  };
  m["tm.share_h"] = Ratio(cls(TxnClass::kH), commits);
  m["tm.share_o"] = Ratio(cls(TxnClass::kO) + cls(TxnClass::kOPlus), commits);
  m["tm.share_l"] = Ratio(cls(TxnClass::kO2L) + cls(TxnClass::kL), commits);
  m["tm.useful_ratio"] =
      Ratio(commits, commits + static_cast<double>(s.TotalFailedAttempts()));
  m["tm.backoff_per_commit"] = Ratio(s.backoff_events, commits);
  m["tm.starvation_tokens"] = static_cast<double>(s.starvation_tokens);
  m["tm.breaker_bypass_frac"] = Ratio(s.breaker_bypass, commits);

  m["tm.fused_width"] = Ratio(s.fused_items, s.fused_regions);
  m["tm.fusion_abort_ratio"] =
      Ratio(s.fusion_aborts, s.fused_regions + s.fusion_aborts);

  m["tm.combine_batch_ops"] = Ratio(s.combined_ops, s.combine_batches);
  m["tm.combine_slot_full"] = static_cast<double>(s.combine_slot_full);
  m["mvcc.snapshot_ops_per_read"] = Ratio(s.snapshot_ops, s.snapshot_commits);
}

/// Span-derived metrics. `threads` TM workers ran for `wall_s` seconds;
/// `combined_ops` is the scheduler's combined-operation count (batch
/// items applied by a combiner).
inline void TracerLayers(int threads, double wall_s, uint64_t combined_ops,
                         LayerMap& m) {
  const std::vector<SpanAggregate> agg = Tracer::Get().Aggregate();
  auto at = [&](SpanName n) -> const SpanAggregate& {
    return agg[static_cast<int>(n)];
  };
  const SpanAggregate& run = at(SpanName::kTmRun);
  const SpanAggregate& ro = at(SpanName::kTmRunReadOnly);
  const SpanAggregate& batch = at(SpanName::kTmRunBatch);
  m["tm.run_p50_ns"] = run.duration.Quantile(0.50);
  m["tm.run_p99_ns"] = run.duration.Quantile(0.99);
  m["tm.batch_item_ns"] = Ratio(batch.total_ns, batch.items);
  m["tm.combined_frac"] = Ratio(combined_ops, batch.items);
  m["mvcc.snapshot_read_p50_ns"] = ro.duration.Quantile(0.50);
  const double in_tm = static_cast<double>(run.total_ns + ro.total_ns +
                                           batch.total_ns);
  m["runtime.busy_frac"] = Ratio(in_tm, threads * wall_s * 1e9);

  const SpanAggregate& commit = at(SpanName::kDurabilityCommit);
  const SpanAggregate& publish = at(SpanName::kDurabilityPublish);
  m["durability.commit_wait_p50_ns"] = commit.duration.Quantile(0.50);
  m["durability.commit_wait_p99_ns"] = commit.duration.Quantile(0.99);
  m["durability.publish_p99_ns"] = publish.duration.Quantile(0.99);

  for (const auto& [k, v] : SelfTimeShares(agg)) m[k] = v;
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
