// Reproduces paper Fig. 11: TuFast vs single-server systems on the six
// graph applications over the four (scaled) datasets.
//
// System stand-ins (see DESIGN.md):
//   TuFast  - this library (three-mode HyTM);
//   STM     - the same TM algorithms on the TinySTM-like scheduler
//             (hardware instructions replaced by software);
//   Ligra   - BSP engine, direct CAS delivery (frontier edgeMap, Jacobi);
//   Galois  - the same TM algorithms on plain 2PL (lock-based in-place);
//   Polymer - BSP engine with materialized per-worker message staging
//             (NUMA-style buffering).
//
// Expected shape: TuFast >= all on the propagation-bound jobs (PageRank,
// Components, MIS) thanks to in-place updates; close on BFS/Triangle
// where overheads dominate and nothing propagates iteratively.

#include <cstdio>
#include <functional>

#include "algorithms/bfs.h"
#include "algorithms/matching.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "algorithms/triangle.h"
#include "algorithms/wcc.h"
#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/reporting.h"
#include "common/timer.h"
#include "engines/bsp_algorithms.h"
#include "engines/bsp_engine.h"
#include "htm/emulated_htm.h"
#include "htm/native_htm.h"
#include "tm/scheduler_2pl.h"
#include "tm/scheduler_tinystm.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

struct Inputs {
  Graph graph;
  Graph undirected;
  Graph reversed;
  Graph triangle_graph;  // Smaller: triangle work is quadratic in degree.
};

constexpr double kPrTolerance = 1e-8;
constexpr int kPrMaxIters = 30;

template <typename Htm, typename Scheduler>
SchedulerStats RunTmSystemOn(Scheduler& tm, Scheduler& tri_tm,
                             const Inputs& in, ThreadPool& pool,
                             std::vector<std::string>* rows) {
  WallTimer timer;
  auto lap = [&timer, rows] {
    rows->push_back(ReportTable::Num(timer.ElapsedMillis()));
    timer.Restart();
  };
  PageRankTm(tm, pool, in.graph, in.reversed,
             {.max_iterations = kPrMaxIters, .tolerance = kPrTolerance});
  lap();
  BfsTm(tm, pool, in.graph, 0);
  lap();
  WccTm(tm, pool, in.undirected);
  lap();
  TriangleCountTm(tri_tm, pool, in.triangle_graph);
  lap();
  SsspTm(tm, pool, in.graph, 0, SsspDiscipline::kBellmanFord);
  lap();
  MisTm(tm, pool, in.undirected);
  lap();
  SchedulerStats stats = tm.AggregatedStats();
  stats.Merge(tri_tm.AggregatedStats());
  return stats;
}

template <typename Htm, typename Scheduler>
SchedulerStats RunTmSystem(const Inputs& in, ThreadPool& pool,
                           std::vector<std::string>* rows) {
  Htm htm;
  Scheduler tm(htm, in.graph.NumVertices());
  Htm tri_htm;
  Scheduler tri_tm(tri_htm, in.triangle_graph.NumVertices());
  return RunTmSystemOn<Htm>(tm, tri_tm, in, pool, rows);
}

/// The sharded TuFast column ("TuFast-AM"): shard-per-core ownership
/// with cross-shard accesses shipped as atomic active messages and
/// drained in group-commit batches.
template <typename Htm>
SchedulerStats RunShardedTuFast(const Inputs& in, ThreadPool& pool,
                                const BenchFlags& flags,
                                std::vector<std::string>* rows) {
  using Scheduler = TuFastScheduler<Htm>;
  typename Scheduler::Config config;
  config.enable_sharding = true;
  config.shard_workers = static_cast<uint32_t>(flags.threads);
  config.num_shards = flags.shards;  // 0 = one shard per worker.
  config.am_batch = flags.am_batch;
  Htm htm;
  Scheduler tm(htm, in.graph.NumVertices(), config);
  Htm tri_htm;
  Scheduler tri_tm(tri_htm, in.triangle_graph.NumVertices(), config);
  return RunTmSystemOn<Htm>(tm, tri_tm, in, pool, rows);
}

/// Per-dataset sharded-vs-shared comparison table: message traffic, the
/// cross-shard fraction, mailbox pressure, and the conflict-abort count
/// against the shared-table baseline (the tentpole's claimed effect:
/// owner-drained batches serialize would-be conflicting transactions).
void ReportShardTelemetry(const std::string& dataset,
                          const SchedulerStats& shared,
                          const SchedulerStats& sharded) {
  const uint64_t routed = sharded.shard_local_items +
                          sharded.shard_messages_sent +
                          sharded.shard_mailbox_full;
  const double cross_fraction =
      routed == 0 ? 0.0
                  : static_cast<double>(sharded.shard_messages_sent +
                                        sharded.shard_mailbox_full) /
                        static_cast<double>(routed);
  const double shared_conflicts =
      static_cast<double>(shared.conflict_aborts + shared.fusion_aborts);
  const double sharded_conflicts =
      static_cast<double>(sharded.conflict_aborts + sharded.fusion_aborts);
  ReportTable table({"metric", "value"});
  table.AddRow({"messages sent", ReportTable::Int(sharded.shard_messages_sent)});
  table.AddRow(
      {"messages drained", ReportTable::Int(sharded.shard_messages_drained)});
  table.AddRow(
      {"drain batches", ReportTable::Int(sharded.shard_drain_batches)});
  table.AddRow({"local items", ReportTable::Int(sharded.shard_local_items)});
  table.AddRow(
      {"mailbox-full bounces", ReportTable::Int(sharded.shard_mailbox_full)});
  table.AddRow({"max mailbox depth",
                ReportTable::Int(sharded.shard_max_mailbox_depth)});
  table.AddRow({"cross-shard fraction", ReportTable::Num(cross_fraction)});
  table.AddRow(
      {"conflict aborts (shared)", ReportTable::Num(shared_conflicts)});
  table.AddRow(
      {"conflict aborts (sharded)", ReportTable::Num(sharded_conflicts)});
  table.AddRow({"abort reduction x",
                ReportTable::Num(sharded_conflicts > 0
                                     ? shared_conflicts / sharded_conflicts
                                     : shared_conflicts + 1.0)});
  table.Print("Fig. 11 — sharded TuFast telemetry, dataset " + dataset);
}

void RunBspSystem(const Inputs& in, ThreadPool& pool, BspDelivery delivery,
                  std::vector<std::string>* rows) {
  BspEngine engine(pool, delivery);
  WallTimer timer;
  auto lap = [&timer, rows] {
    rows->push_back(ReportTable::Num(timer.ElapsedMillis()));
    timer.Restart();
  };
  BspPageRank(engine, in.graph, 0.85, kPrMaxIters, kPrTolerance);
  lap();
  BspBfs(engine, in.graph, 0);
  lap();
  BspWcc(engine, in.undirected);
  lap();
  BspTriangleCount(engine, in.triangle_graph);
  lap();
  BspSssp(engine, in.graph, 0);
  lap();
  BspMis(engine, in.undirected, 42);
  lap();
}

template <typename Htm>
void RunDatasets(const BenchFlags& flags, ThreadPool& pool,
                 const char* backend_name) {
  const char* algorithms[] = {"PageRank", "BFS",         "Components",
                              "Triangle", "BellmanFord", "MIS"};
  for (const auto& spec : BenchDatasets(flags.scale)) {
    const Graph graph = GenerateDataset(spec, /*weighted=*/true);
    DatasetSpec tri_spec = spec;
    tri_spec.num_vertices = spec.num_vertices / 4;
    Inputs in{graph.Clone(), graph.Undirected(), graph.Reversed(),
              GenerateDataset(tri_spec).Undirected()};

    // Collect a column of six times per system. The TM systems (TuFast,
    // sharded TuFast, STM, Galois-like 2PL) run on `Htm`; the BSP
    // engines are backend-independent.
    std::vector<std::string> tufast_col, sharded_col, stm_col, ligra_col,
        galois_col, polymer_col;
    const SchedulerStats shared_stats =
        RunTmSystem<Htm, TuFastScheduler<Htm>>(in, pool, &tufast_col);
    const SchedulerStats sharded_stats =
        RunShardedTuFast<Htm>(in, pool, flags, &sharded_col);
    RunTmSystem<Htm, TinyStm<Htm>>(in, pool, &stm_col);
    RunBspSystem(in, pool, BspDelivery::kDirect, &ligra_col);
    RunTmSystem<Htm, TwoPhaseLocking<Htm>>(in, pool, &galois_col);
    RunBspSystem(in, pool, BspDelivery::kMaterialized, &polymer_col);

    ReportTable table({"algorithm", "TuFast (ms)", "TuFast-AM (ms)",
                       "STM (ms)", "Ligra-like (ms)", "Galois-like (ms)",
                       "Polymer-like (ms)"});
    for (int a = 0; a < 6; ++a) {
      table.AddRow({algorithms[a], tufast_col[a], sharded_col[a], stm_col[a],
                    ligra_col[a], galois_col[a], polymer_col[a]});
    }
    table.Print("Fig. 11 — single-server systems, dataset " + spec.name +
                " (|V|=" + ReportTable::Int(graph.NumVertices()) +
                " |E|=" + ReportTable::Int(graph.NumEdges()) + ") [" +
                backend_name + "]");
    ReportShardTelemetry(spec.name, shared_stats, sharded_stats);
  }
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/0.2);
  ThreadPool pool(flags.threads);
  if (NativeHtm::Supported()) {
    RunDatasets<NativeHtm>(flags, pool, "native RTM");
  } else {
    std::printf("(native RTM unavailable; emulated backend only)\n");
    RunDatasets<EmulatedHtm>(flags, pool, "emulated");
  }
  std::printf(
      "expected shape: TuFast leads or ties the TM systems; the BSP "
      "engines pay extra Jacobi iterations on PageRank/Components (no "
      "in-place propagation); STM slower than native TuFast (software "
      "bookkeeping on every op).\n");
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
