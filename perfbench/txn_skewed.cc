// txn_skewed: the paper's Fig. 13/14 regime. Closed loop, one client per
// TM worker; each client issues back-to-back Run() transactions on
// Zipf-drawn subject vertices of a Table II stand-in: mostly RM (read the
// vertex and all its neighbors, write the vertex) with a share of RW
// (read and write the vertex and all its neighbors), paper §VI-B. Every
// transaction also bumps a per-subject counter word; the counters must
// sum to the committed count.

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "bench_support/datasets.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "htm/emulated_htm.h"
#include "layers.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

using tufast::EmulatedHtm;
using tufast::TmWord;
using tufast::VertexId;

constexpr double kScale = 0.25;      // friendster-s: 10k vertices, 275k edges
constexpr double kZipfAlpha = 0.99;  // subject skew
constexpr uint32_t kRwPercent = 10;  // RW share; the rest is RM

template <bool kTraced>
Result Phase(const Options& opt, double seconds) {
  using Inner = std::conditional_t<
      kTraced, tufast::TuFastScheduler<EmulatedHtm, tufast::EventTelemetry>,
      tufast::TuFastScheduler<EmulatedHtm>>;
  const int workers = TmWorkers();
  struct State {
    tufast::Graph graph;
    std::vector<TmWord> values, counters;
    EmulatedHtm htm;
    std::unique_ptr<Inner> tm;
    std::unique_ptr<tufast::ThreadPool> pool;
  };
  Result r;
  const std::unique_ptr<State> st = TimedSetup([&] {
    auto s = std::make_unique<State>();
    s->graph = tufast::GenerateDataset(Dataset(0, kScale));
    s->values.assign(s->graph.NumVertices(), 0);
    s->counters.assign(s->graph.NumVertices(), 0);
    s->tm = std::make_unique<Inner>(s->htm, s->graph.NumVertices());
    s->pool = std::make_unique<tufast::ThreadPool>(workers);
    return s;
  }, &r.setup_s);
  const tufast::Graph& g = st->graph;
  std::vector<TmWord>& values = st->values;
  std::vector<TmWord>& counters = st->counters;
  const tufast::ZipfSampler zipf(g.NumVertices(), kZipfAlpha);

  if constexpr (kTraced) Tracer::Get().Reset();
  std::vector<Samples> lat(workers);
  std::vector<uint64_t> committed(workers, 0), attempted(workers, 0);

  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  WithScheduler<kTraced>(*st->tm, [&](auto& tm) {
    st->pool->RunOnAll([&](int w) {
      tufast::Rng rng(StreamSeed(opt.seed, 2, w));
      while (NowNs() < deadline) {
        const auto v = static_cast<VertexId>(zipf.Draw(rng));
        const bool rw = rng.NextBounded(100) < kRwPercent;
        ++attempted[w];
        const uint64_t a = NowNs();
        const tufast::RunOutcome o =
            tm.Run(w, g.OutDegree(v) + 2, [&](auto& txn) {
              TmWord sum = txn.Read(v, &values[v]);
              for (const VertexId u : g.OutNeighbors(v)) {
                const TmWord x = txn.Read(u, &values[u]);
                if (rw && u != v) txn.Write(u, &values[u], x + 1);
                sum += x;
              }
              txn.Write(v, &values[v], sum + 1);
              txn.Write(v, &counters[v], txn.Read(v, &counters[v]) + 1);
            });
        lat[w].Add(NowNs() - a);
        if (o.committed) ++committed[w];
      }
    });
  });
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;

  Samples all;
  uint64_t commits = 0;
  for (int w = 0; w < workers; ++w) {
    all.Merge(lat[w]);
    commits += committed[w];
    r.attempted += attempted[w];
  }
  TmWord counted = 0;
  for (const TmWord c : counters) counted += c;
  r.Check(commits == r.attempted,
          std::to_string(r.attempted - commits) + " transactions did not commit");
  r.Check(counted == commits, "subject counters sum to " +
                                  std::to_string(counted) + ", committed " +
                                  std::to_string(commits));
  const tufast::SchedulerStats stats = st->tm->AggregatedStats();
  r.Check(stats.commits == commits,
          "scheduler counted " + std::to_string(stats.commits) +
              " commits, clients " + std::to_string(commits));

  r.measured_s = wall;
  r.throughput_per_s = commits / wall;
  r.median_us = all.Percentile(50) / 1e3;
  double tail_p = 0;
  const double tail_us = all.Tail(99, &tail_p) / 1e3;
  r.named = {
      {"txn_per_s", r.throughput_per_s, "1/s", commits, "committed Run()s per second"},
      {"txn_p50_us", r.median_us, "us", all.count(), "median Run() latency"},
      {"txn_p99_us", tail_us, "us", all.count(),
       PercentileLabel(tail_p) + " Run() latency"},
  };
  if constexpr (kTraced) {
    SchedulerLayers(*st->tm, r.layer);
    TracerLayers(workers, wall, stats.combined_ops, r.layer);
  }
  return r;
}

}  // namespace

Result RunTxnSkewed(const Options& opt, bool traced, double seconds) {
  return traced ? Phase<true>(opt, seconds) : Phase<false>(opt, seconds);
}

}  // namespace perfbench
