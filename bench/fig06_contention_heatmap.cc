// Reproduces paper Fig. 6: the probability that two concurrent vertex
// transactions contend, as a heat map over the two vertices' degrees.
// Workload model (as in the paper): a transaction reads a vertex and all
// its neighbors and writes the vertex. Two transactions T(a), T(b)
// conflict iff a's write set intersects b's footprint or vice versa:
//   a == b, a in N(b), or b in N(a).
// Expected shape: contention grows with both degrees; the high-degree
// corner is hot.
//
// `--combine` adds the hot-vertex combining skew sweep: the same
// conflict structure driven through the real TM. Worker threads apply
// counter increments whose targets follow a Zipf law over the vertex
// space (the shared ZipfSampler from common/zipf.h, same distribution
// the serving load generator draws keys from), once with combining off
// and once with combining on, at each skew alpha. The headline column is
// combine_gain_x = combined / plain committed-ops/sec: near 1.0 under
// uniform traffic (nothing gets hot, the history stays cold and the
// combiner never engages) and rising with alpha as the hot head of the
// distribution is shipped to hot cells and applied as fused group
// commits instead of conflicting per-item transactions.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench_support/datasets.h"
#include "bench_support/reporting.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/zipf.h"
#include "htm/emulated_htm.h"
#include "runtime/thread_pool.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

constexpr int kBuckets = 7;  // Degree buckets: 0,1-3,4-15,...,>=4096.

int BucketOf(uint32_t degree) {
  if (degree == 0) return 0;
  int b = 1;
  uint32_t limit = 4;
  while (degree >= limit && b < kBuckets - 1) {
    limit <<= 2;
    ++b;
  }
  return b;
}

std::string BucketName(int b) {
  if (b == 0) return "0";
  const uint32_t lo = b == 1 ? 1 : (1u << (2 * (b - 1)));
  if (b == kBuckets - 1) return std::to_string(lo) + "+";
  return std::to_string(lo) + "-" + std::to_string((1u << (2 * b)) - 1);
}

void AnalyticHeatmap() {
  const auto spec = BenchDatasets()[1];  // twitter-s, as in the paper.
  const Graph graph = GenerateDataset(spec);
  const VertexId n = graph.NumVertices();

  // Bucket vertices by degree for stratified sampling.
  std::vector<std::vector<VertexId>> by_bucket(kBuckets);
  for (VertexId v = 0; v < n; ++v) by_bucket[BucketOf(graph.OutDegree(v))].push_back(v);

  auto conflicts = [&](VertexId a, VertexId b) {
    if (a == b) return true;
    const auto na = graph.OutNeighbors(a);
    if (std::binary_search(na.begin(), na.end(), b)) return true;
    const auto nb = graph.OutNeighbors(b);
    return std::binary_search(nb.begin(), nb.end(), a);
  };

  constexpr int kSamples = 4000;
  Rng rng(17);
  std::vector<std::string> headers = {"deg(a) \\ deg(b)"};
  for (int b = 0; b < kBuckets; ++b) headers.push_back(BucketName(b));
  ReportTable table(headers);
  for (int ba = 0; ba < kBuckets; ++ba) {
    std::vector<std::string> row = {BucketName(ba)};
    for (int bb = 0; bb < kBuckets; ++bb) {
      if (by_bucket[ba].empty() || by_bucket[bb].empty()) {
        row.push_back("-");
        continue;
      }
      int hits = 0;
      for (int s = 0; s < kSamples; ++s) {
        const VertexId a =
            by_bucket[ba][rng.NextBounded(by_bucket[ba].size())];
        const VertexId b =
            by_bucket[bb][rng.NextBounded(by_bucket[bb].size())];
        if (conflicts(a, b)) ++hits;
      }
      row.push_back(ReportTable::Num(static_cast<double>(hits) / kSamples));
    }
    table.AddRow(std::move(row));
  }
  table.Print("Fig. 6 — pairwise contention probability by degree bucket (" +
              spec.name + ", read v+neighbors / write v)");
  std::printf(
      "expected shape: probability grows along both axes; the bottom-right "
      "(high-degree x high-degree) corner is the contention hot spot.\n");
}

// ---------------------------------------------------------------------
// --combine: the Zipf-skew hot-vertex sweep through the real TM.

struct SweepResult {
  double ops_per_sec = 0;
  uint64_t total = 0;  // committed increments (conservation check)
  SchedulerStats stats;
};

/// One pass: `threads` workers each push `txns` Zipf-distributed counter
/// increments through RunBatch in fixed windows. The drawn vertex IS the
/// Zipf rank, so rank 0 is the globally hottest counter — exactly the
/// hub-vertex shape the heatmap above predicts contention for.
SweepResult RunSkewPass(ThreadPool& pool, const TuFast::Config& config,
                        VertexId vertices, uint64_t txns, double alpha,
                        uint64_t seed) {
  EmulatedHtm htm;
  TuFast tm(htm, vertices, config);
  std::vector<TmWord> values(vertices, 0);
  const ZipfSampler sampler(vertices, alpha);
  constexpr uint64_t kWindow = 256;

  // Draw every thread's target stream up front: sampling is excluded
  // from the timed region, and both the plain and the combining pass of
  // one alpha see identical streams (same seeds).
  std::vector<std::vector<VertexId>> targets(pool.num_threads());
  for (int w = 0; w < pool.num_threads(); ++w) {
    Rng rng(seed * 7919 + static_cast<uint64_t>(w));
    targets[w].reserve(txns);
    for (uint64_t t = 0; t < txns; ++t) {
      targets[w].push_back(static_cast<VertexId>(sampler.Draw(rng)));
    }
  }

  WallTimer timer;
  pool.RunOnAll([&](int worker_id) {
    const std::vector<VertexId>& mine = targets[worker_id];
    auto hint = [](uint64_t) -> uint64_t { return 2; };
    auto home = [&](uint64_t k) { return mine[k]; };
    auto body = [&](auto& txn, uint64_t k) {
      const VertexId v = mine[k];
      const TmWord cur = txn.Read(v, &values[v]);
      // Forced temporal overlap (throughput_figure regime 3): the yield
      // widens the read->write window so concurrent hits on the same hot
      // vertex actually conflict on a time-sliced host. Without it a
      // single-core run finishes each ~100ns transaction inside one
      // timeslice, nothing ever aborts, and the contention history — by
      // design — stays cold at every alpha.
      std::this_thread::yield();
      txn.Write(v, &values[v], cur + 1);
    };
    for (uint64_t t = 0; t < txns; t += kWindow) {
      const uint64_t width = t + kWindow <= txns ? kWindow : txns - t;
      tm.RunBatch(worker_id, t, t + width, hint, home, body);
    }
  });
  const double seconds = timer.ElapsedSeconds();

  SweepResult result;
  result.stats = tm.AggregatedStats();
  for (const TmWord v : values) result.total += v;
  const uint64_t ops = result.total * 2;  // one read + one write each
  result.ops_per_sec = seconds > 0 ? static_cast<double>(ops) / seconds : 0;
  return result;
}

void CombiningSkewSweep(const BenchFlags& flags) {
  constexpr VertexId kVertices = 1 << 16;
  const uint64_t txns = flags.quick ? 20000 : 80000;
  ThreadPool pool(flags.threads);

  std::vector<double> alphas = {0.0, 0.6, 0.9, 1.2};
  if (flags.combine_skew >= 0.0 &&
      std::find(alphas.begin(), alphas.end(), flags.combine_skew) ==
          alphas.end()) {
    alphas.push_back(flags.combine_skew);
    std::sort(alphas.begin(), alphas.end());
  }

  TuFast::Config plain;
  TuFast::Config combining;
  combining.enable_combining = true;
  combining.hot_threshold = flags.hot_threshold;

  ReportTable table({"zipf alpha", "plain ops/s", "combined ops/s",
                     "combine_gain_x", "combined_ops", "combine_batches",
                     "hot_vertices", "slot_full", "max_occupancy"});
  for (const double alpha : alphas) {
    const uint64_t expect =
        static_cast<uint64_t>(pool.num_threads()) * txns;
    const SweepResult off =
        RunSkewPass(pool, plain, kVertices, txns, alpha, flags.seed);
    const SweepResult on =
        RunSkewPass(pool, combining, kVertices, txns, alpha, flags.seed);
    if (off.total != expect || on.total != expect) {
      std::fprintf(stderr,
                   "fig06: conservation violated at alpha %.2f "
                   "(plain %llu, combined %llu, expected %llu)\n",
                   alpha, static_cast<unsigned long long>(off.total),
                   static_cast<unsigned long long>(on.total),
                   static_cast<unsigned long long>(expect));
      std::exit(1);
    }
    const double gain =
        off.ops_per_sec > 0 ? on.ops_per_sec / off.ops_per_sec : 0;
    table.AddRow({ReportTable::Num(alpha), ReportTable::Num(off.ops_per_sec),
                  ReportTable::Num(on.ops_per_sec), ReportTable::Num(gain),
                  ReportTable::Int(on.stats.combined_ops),
                  ReportTable::Int(on.stats.combine_batches),
                  ReportTable::Int(on.stats.hot_vertices),
                  ReportTable::Int(on.stats.combine_slot_full),
                  ReportTable::Int(on.stats.combine_max_occupancy)});
  }
  table.Print("Fig. 6 — hot-vertex combining skew sweep (" +
              std::to_string(flags.threads) + " threads, " +
              std::to_string(txns) + " txns/thread)");
  std::printf(
      "expected shape: gain near 1.0 at alpha 0 (uniform traffic never "
      "heats the history; combined_ops stays 0) and rising with skew as "
      "the hot head is shipped to hot cells and applied as fused "
      "batches.\n");
}

int Main(int argc, char** argv) {
  const BenchFlags flags = BenchFlags::Parse(argc, argv, /*default=*/1.0);
  AnalyticHeatmap();
  if (flags.combine) CombiningSkewSweep(flags);
  return 0;
}

}  // namespace
}  // namespace tufast

int main(int argc, char** argv) { return tufast::Main(argc, argv); }
