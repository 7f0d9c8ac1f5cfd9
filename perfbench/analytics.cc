// analytics: the Fig. 11 suite as one closed batch job, repeated for the
// measured window. Each suite runs PageRank to tolerance, BFS, WCC,
// Bellman-Ford SSSP, MIS and triangle count on default-Config TuFast over
// a weighted Table II stand-in, and checks every output against
// algorithms/reference.h. The workload seed picks the BFS/SSSP sources.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "algorithms/bfs.h"
#include "algorithms/mis.h"
#include "algorithms/pagerank.h"
#include "algorithms/reference.h"
#include "algorithms/sssp.h"
#include "algorithms/triangle.h"
#include "algorithms/wcc.h"
#include "bench.h"
#include "bench_support/datasets.h"
#include "common/rng.h"
#include "htm/emulated_htm.h"
#include "layers.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

using tufast::EmulatedHtm;
using tufast::Graph;
using tufast::TmWord;
using tufast::VertexId;

constexpr double kScale = 0.1;           // friendster-s: 4k vertices, 110k edges
constexpr double kPrTolerance = 1e-9;    // mean per-vertex L1 delta
constexpr int kPrMaxIterations = 200;
constexpr double kPrCheck = 1e-6;        // max |rank - reference|
constexpr int kSources = 4;              // distinct BFS/SSSP sources per run

enum Algo { kPageRank = 0, kBfs, kWcc, kSssp, kMis, kTriangle, kNumAlgos };
constexpr const char* kAlgoNames[kNumAlgos] = {"pagerank", "bfs", "wcc",
                                               "sssp", "mis", "triangle"};

/// Ground truth, computed once per run outside every timing.
struct Reference {
  std::vector<double> ranks;
  std::vector<uint64_t> wcc;
  uint64_t triangles = 0;
  std::map<VertexId, std::vector<uint64_t>> bfs, sssp;
};

template <bool kTraced>
Result Phase(const Options& opt, double seconds) {
  using Inner = std::conditional_t<
      kTraced, tufast::TuFastScheduler<EmulatedHtm, tufast::EventTelemetry>,
      tufast::TuFastScheduler<EmulatedHtm>>;
  const int workers = TmWorkers();
  struct State {
    Graph graph, undirected, reversed, triangle;
    EmulatedHtm htm, tri_htm;
    std::unique_ptr<Inner> tm, tri_tm;
    std::unique_ptr<tufast::ThreadPool> pool;
  };
  Result r;
  const std::unique_ptr<State> st = TimedSetup([&] {
    auto s = std::make_unique<State>();
    const tufast::DatasetSpec spec = Dataset(0, kScale);
    s->graph = tufast::GenerateDataset(spec, /*weighted=*/true);
    s->undirected = s->graph.Undirected();
    s->reversed = s->graph.Reversed();
    tufast::DatasetSpec tri_spec = spec;
    tri_spec.num_vertices = spec.num_vertices / 4;
    s->triangle = tufast::GenerateDataset(tri_spec).Undirected();
    s->tm = std::make_unique<Inner>(s->htm, s->graph.NumVertices());
    s->tri_tm = std::make_unique<Inner>(s->tri_htm, s->triangle.NumVertices());
    s->pool = std::make_unique<tufast::ThreadPool>(workers);
    return s;
  }, &r.setup_s);
  const Graph& g = st->graph;

  // Seeded sources: vertices with out-edges, so BFS/SSSP do real work.
  std::vector<VertexId> sources;
  tufast::Rng rng(StreamSeed(opt.seed, 1, 0));
  while (static_cast<int>(sources.size()) < kSources) {
    const auto v = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (g.OutDegree(v) > 0) sources.push_back(v);
  }
  Reference ref;
  ref.ranks = tufast::ReferencePageRank(g, 0.85, 1000, 1e-13);
  ref.wcc = tufast::ReferenceWcc(st->undirected);
  ref.triangles = tufast::ReferenceTriangleCount(st->triangle);
  for (const VertexId s : sources) {
    ref.bfs[s] = tufast::ReferenceBfs(g, s);
    ref.sssp[s] = tufast::ReferenceSssp(g, s);
  }

  if constexpr (kTraced) Tracer::Get().Reset();
  Samples suite_ns;
  Samples algo_ns[kNumAlgos];
  std::vector<int> pr_iters;
  uint64_t total_suite_ns = 0;
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  tufast::ThreadPool& pool = *st->pool;

  // Times one algorithm job (and, traced, opens its job span so the pool
  // workers' spans have a parent).
  auto job = [&](Algo a, uint64_t suite, auto&& fn) {
    const uint64_t s = NowNs();
    if constexpr (kTraced) {
      Tracer::SetThreadJob(suite * kNumAlgos + a);
      Span span(SpanName::kAlgorithmsJob);
      Tracer::Get().SetJobParent(Tracer::Get().CurrentSpanId());
      fn();
      Tracer::Get().SetJobParent(0);
    } else {
      fn();
    }
    algo_ns[a].Add(NowNs() - s);
    ++r.attempted;
  };

  WithScheduler<kTraced>(*st->tm, [&](auto& tm) {
    return WithScheduler<kTraced>(*st->tri_tm, [&](auto& tri_tm) {
      for (uint64_t suite = 0; suite == 0 || NowNs() < deadline; ++suite) {
        const VertexId src = sources[suite % kSources];
        const uint64_t s0 = NowNs();
        job(kPageRank, suite, [&] {
          const tufast::PageRankResult pr = tufast::PageRankTm(
              tm, pool, g, st->reversed,
              {.max_iterations = kPrMaxIterations, .tolerance = kPrTolerance});
          pr_iters.push_back(pr.iterations);
          double worst = 0;
          for (VertexId v = 0; v < g.NumVertices(); ++v) {
            worst = std::max(worst, std::fabs(pr.ranks[v] - ref.ranks[v]));
          }
          r.Check(worst <= kPrCheck,
                  "pagerank off by " + std::to_string(worst));
        });
        job(kBfs, suite, [&] {
          const std::vector<TmWord> d = tufast::BfsTm(tm, pool, g, src);
          r.Check(std::equal(d.begin(), d.end(), ref.bfs[src].begin()),
                  "bfs depths differ from reference");
        });
        job(kWcc, suite, [&] {
          const std::vector<TmWord> l = tufast::WccTm(tm, pool, st->undirected);
          r.Check(std::equal(l.begin(), l.end(), ref.wcc.begin()),
                  "wcc labels differ from reference");
        });
        job(kSssp, suite, [&] {
          const std::vector<TmWord> d = tufast::SsspTm(
              tm, pool, g, src, tufast::SsspDiscipline::kBellmanFord);
          r.Check(std::equal(d.begin(), d.end(), ref.sssp[src].begin()),
                  "sssp distances differ from reference");
        });
        job(kMis, suite, [&] {
          const std::vector<TmWord> m = tufast::MisTm(tm, pool, st->undirected);
          r.Check(tufast::ValidateMis(st->undirected, m),
                  "mis is not a maximal independent set");
        });
        job(kTriangle, suite, [&] {
          const uint64_t t = tufast::TriangleCountTm(tri_tm, pool, st->triangle);
          r.Check(t == ref.triangles, "triangle count " + std::to_string(t) +
                                          " != " +
                                          std::to_string(ref.triangles));
        });
        const uint64_t d = NowNs() - s0;
        suite_ns.Add(d);
        total_suite_ns += d;
      }
    });
  });
  r.measured_s = static_cast<double>(NowNs() - t0) / 1e9;

  r.throughput_per_s = Ratio(suite_ns.count(), total_suite_ns / 1e9);
  r.median_us = suite_ns.Percentile(50) / 1e3;
  double tail_p = 0;
  const double tail_s = suite_ns.Tail(90, &tail_p) / 1e9;
  for (const Algo a : {kPageRank, kWcc, kSssp}) {
    r.named.push_back({std::string(kAlgoNames[a]) + "_s",
                       algo_ns[a].Percentile(50) / 1e9, "s", algo_ns[a].count(),
                       "median time to a validated result"});
  }
  r.named.push_back({"suite_s", r.median_us / 1e6, "s", suite_ns.count(),
                     "median six-algorithm suite"});
  r.named.push_back({"suite_tail_s", tail_s, "s", suite_ns.count(),
                     PercentileLabel(tail_p) + " suite"});
  for (const Algo a : {kBfs, kMis, kTriangle}) {
    r.named.push_back({std::string(kAlgoNames[a]) + "_s",
                       algo_ns[a].Percentile(50) / 1e9, "s", algo_ns[a].count(),
                       "median time to a validated result"});
  }
  if constexpr (kTraced) {
    SchedulerLayers(*st->tm, r.layer);
    const tufast::SchedulerStats s = st->tm->AggregatedStats();
    TracerLayers(workers, r.measured_s, s.combined_ops, r.layer);
    std::sort(pr_iters.begin(), pr_iters.end());
    r.layer["algorithms.pagerank_iters"] = pr_iters[pr_iters.size() / 2];
  }
  return r;
}

}  // namespace

Result RunAnalytics(const Options& opt, bool traced, double seconds) {
  return traced ? Phase<true>(opt, seconds) : Phase<false>(opt, seconds);
}

}  // namespace perfbench
