// ingest_hot: closed loop, one client per TM worker. Each client applies
// insert/delete/reweight batches to a DynamicGraph through ApplyBatch,
// with source vertices Zipf-drawn onto the hubs (rank r = the r-th
// highest out-degree vertex of the base graph) and Config::enable_combining
// on. The apply tallies must conserve the live-edge count and the graph
// must pass CheckInvariantsQuiesced() afterwards.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "bench_support/datasets.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "graph/dynamic/dynamic_graph.h"
#include "htm/emulated_htm.h"
#include "layers.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

using tufast::EdgeUpdate;
using tufast::EmulatedHtm;
using tufast::VertexId;

constexpr double kScale = 0.25;      // friendster-s: 10k vertices, 275k edges
constexpr double kZipfAlpha = 0.99;  // source skew over the degree ranking
constexpr uint32_t kBatch = 64;      // updates per ApplyBatch
constexpr uint32_t kInsertPercent = 50;
constexpr uint32_t kDeletePercent = 30;  // the rest reweights

template <bool kTraced>
Result Phase(const Options& opt, double seconds) {
  using Inner = std::conditional_t<
      kTraced, tufast::TuFastScheduler<EmulatedHtm, tufast::EventTelemetry>,
      tufast::TuFastScheduler<EmulatedHtm>>;
  const int workers = TmWorkers();
  struct State {
    tufast::Graph base;
    std::vector<VertexId> by_degree;  // vertices, highest out-degree first
    std::unique_ptr<tufast::DynamicGraph> graph;
    EmulatedHtm htm;
    std::unique_ptr<Inner> tm;
    std::unique_ptr<tufast::ThreadPool> pool;
  };
  Result r;
  const std::unique_ptr<State> st = TimedSetup([&] {
    auto s = std::make_unique<State>();
    s->base = tufast::GenerateDataset(Dataset(0, kScale), /*weighted=*/true);
    s->by_degree.resize(s->base.NumVertices());
    std::iota(s->by_degree.begin(), s->by_degree.end(), VertexId{0});
    std::stable_sort(s->by_degree.begin(), s->by_degree.end(),
                     [&](VertexId a, VertexId b) {
                       return s->base.OutDegree(a) > s->base.OutDegree(b);
                     });
    s->graph = tufast::DynamicGraph::FromCsr(s->base);
    typename Inner::Config cfg;
    cfg.enable_combining = true;
    s->tm = std::make_unique<Inner>(s->htm, s->graph->capacity(), cfg);
    s->pool = std::make_unique<tufast::ThreadPool>(workers);
    return s;
  }, &r.setup_s);
  const tufast::Graph& base = st->base;
  tufast::DynamicGraph& graph = *st->graph;
  const uint64_t initial_edges = graph.TotalLiveEdges();
  const tufast::ZipfSampler zipf(base.NumVertices(), kZipfAlpha);

  if constexpr (kTraced) Tracer::Get().Reset();
  std::vector<Samples> lat(workers);
  std::vector<tufast::ApplyResult> tally(workers);
  std::vector<uint64_t> applied(workers, 0), batches(workers, 0);
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  WithScheduler<kTraced>(*st->tm, [&](auto& tm) {
    st->pool->RunOnAll([&](int w) {
      tufast::Rng rng(StreamSeed(opt.seed, 3, w));
      std::vector<EdgeUpdate> batch(kBatch);
      while (NowNs() < deadline) {
        for (EdgeUpdate& up : batch) {
          const VertexId u = st->by_degree[zipf.Draw(rng)];
          const auto nbrs = base.OutNeighbors(u);
          const uint32_t pick = static_cast<uint32_t>(rng.NextBounded(100));
          // Deletes and reweights target the base graph's edges (possibly
          // already deleted: counted as missing); inserts pick any vertex.
          const VertexId known =
              nbrs.empty() ? u : nbrs[rng.NextBounded(nbrs.size())];
          const auto w8 = static_cast<uint32_t>(1 + rng.NextBounded(100));
          if (pick < kInsertPercent || nbrs.empty()) {
            up = EdgeUpdate::Insert(
                u, static_cast<VertexId>(rng.NextBounded(base.NumVertices())),
                w8);
          } else if (pick < kInsertPercent + kDeletePercent) {
            up = EdgeUpdate::Delete(u, known);
          } else {
            up = EdgeUpdate::Reweight(u, known, w8);
          }
        }
        const uint64_t a = NowNs();
        tufast::ApplyResult res;
        if constexpr (kTraced) {
          Tracer::SetThreadJob((static_cast<uint64_t>(w + 1) << 40) |
                               batches[w]);
          Span span(SpanName::kGraphApplyBatch, kBatch);
          res = graph.ApplyBatch(tm, w, std::span<const EdgeUpdate>(batch));
        } else {
          res = graph.ApplyBatch(tm, w, std::span<const EdgeUpdate>(batch));
        }
        lat[w].Add(NowNs() - a);
        tally[w].Merge(res);
        applied[w] += kBatch;
        ++batches[w];
      }
    });
  });
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;

  Samples all;
  tufast::ApplyResult total;
  uint64_t updates = 0;
  for (int w = 0; w < workers; ++w) {
    all.Merge(lat[w]);
    total.Merge(tally[w]);
    updates += applied[w];
  }
  r.attempted = updates;
  r.Check(total.inserted + total.updated + total.removed + total.missing ==
              updates,
          "apply tallies cover " +
              std::to_string(total.inserted + total.updated + total.removed +
                             total.missing) +
              " of " + std::to_string(updates) + " updates");
  const uint64_t live = graph.TotalLiveEdges();
  r.Check(live == initial_edges + total.inserted - total.removed,
          "live edges " + std::to_string(live) + " != " +
              std::to_string(initial_edges) + " + " +
              std::to_string(total.inserted) + " inserted - " +
              std::to_string(total.removed) + " removed");
  if (const std::optional<std::string> bad = graph.CheckInvariantsQuiesced()) {
    r.Fail("graph invariant: " + *bad);
  }

  r.measured_s = wall;
  r.throughput_per_s = updates / wall;
  r.median_us = all.Percentile(50) / 1e3;
  double tail_p = 0;
  const double tail_us = all.Tail(99, &tail_p) / 1e3;
  r.named = {
      {"ingest_per_s", r.throughput_per_s, "1/s", updates,
       "committed updates per second"},
      {"ingest_batch_p50_us", r.median_us, "us", all.count(),
       "median ApplyBatch latency"},
      {"ingest_batch_p99_us", tail_us, "us", all.count(),
       PercentileLabel(tail_p) + " ApplyBatch latency"},
  };
  if constexpr (kTraced) {
    SchedulerLayers(*st->tm, r.layer);
    const tufast::SchedulerStats s = st->tm->AggregatedStats();
    TracerLayers(workers, wall, s.combined_ops, r.layer);
    r.layer["graph.blocks_per_live_edge"] =
        Ratio(graph.AllocatedBlocks(), live);
  }
  return r;
}

}  // namespace

Result RunIngestHot(const Options& opt, bool traced, double seconds) {
  return traced ? Phase<true>(opt, seconds) : Phase<false>(opt, seconds);
}

}  // namespace perfbench
