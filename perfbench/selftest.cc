// Self-tests of the benchmark's own code: the percentile rule, the
// metric-name grammar, seed plumbing, and decorator transparency (a
// traced run passes the same output checks as an untraced one, and the
// decorators forward every call unchanged).
//
//   python3 perfbench/run.py --selftest
//
// runs all of them; every benchmark run repeats the cheap ones first.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "durability/wal.h"
#include "htm/emulated_htm.h"
#include "serving/load_generator.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what.c_str());
    ++g_failures;
  }
}

void TestPercentileRule() {
  Expect(HighestSupportedPercentile(0) == 0, "n=0 supports nothing");
  Expect(HighestSupportedPercentile(19) == 0, "n=19: median has 9 beyond");
  Expect(HighestSupportedPercentile(20) == 50, "n=20 supports p50");
  Expect(HighestSupportedPercentile(40) == 75, "n=40 supports p75");
  Expect(HighestSupportedPercentile(100) == 90, "n=100 supports p90");
  Expect(HighestSupportedPercentile(999) == 95, "n=999 stops below p99");
  Expect(HighestSupportedPercentile(1000) == 99, "n=1000 supports p99");
  Expect(HighestSupportedPercentile(10000) == 99.9, "n=10000 supports p99.9");
  Expect(HighestSupportedPercentile(100000) == 99.99, "n=1e5 supports p99.99");

  Samples s;
  for (uint64_t v = 1000; v >= 1; --v) s.Add(v);  // unsorted on purpose
  double used = 0;
  Expect(s.count() == 1000, "sample count is reported");
  Expect(s.Percentile(50) == 500, "nearest-rank median of 1..1000");
  Expect(s.Tail(99, &used) == 990 && used == 99, "p99 of 1..1000 is 990");
  Samples few;
  for (uint64_t v = 1; v <= 100; ++v) few.Add(v);
  Expect(few.Tail(99, &used) == 90 && used == 90,
         "p99 falls back to p90 with 100 samples");
}

void TestMetricNames() {
  for (const char* ok : {"a", "setup_s", "htm.conflict_frac", "x-1_2.3"}) {
    Expect(ValidMetricName(ok), std::string("valid name rejected: ") + ok);
  }
  for (const char* bad : {"", "a b", "a/b", "a,b", "p99%", "\xc3\xa9"}) {
    Expect(!ValidMetricName(bad), std::string("invalid name accepted: ") + bad);
  }
  for (const std::string& name : MetricNames()) {
    Expect(ValidMetricName(name), "reported metric breaks the grammar: " + name);
  }
}

std::vector<uint64_t> Draws(uint64_t seed, uint64_t salt, int worker) {
  tufast::Rng rng(StreamSeed(seed, salt, worker));
  std::vector<uint64_t> out;
  for (int i = 0; i < 16; ++i) out.push_back(rng.Next());
  return out;
}

std::vector<uint64_t> Arrivals(uint64_t seed) {
  tufast::serving::LoadConfig lc;
  lc.num_keys = 1000;
  tufast::serving::LoadGenerator gen(lc, seed);
  std::vector<uint64_t> out;
  for (int i = 0; i < 16; ++i) {
    const tufast::serving::Request q = gen.NextRequest();
    out.push_back(q.arrival_ns ^ (uint64_t{q.key} << 40) ^
                  static_cast<uint64_t>(q.op));
  }
  return out;
}

void TestSeedPlumbing() {
  Expect(Draws(7, 1, 0) == Draws(7, 1, 0), "same seed, same stream");
  Expect(Draws(7, 1, 0) != Draws(8, 1, 0), "seed changes the stream");
  Expect(Draws(7, 1, 0) != Draws(7, 1, 1), "workers get distinct streams");
  Expect(Draws(7, 1, 0) != Draws(7, 2, 0), "workloads get distinct streams");
  Expect(Arrivals(7) == Arrivals(7), "same seed, same request stream");
  Expect(Arrivals(7) != Arrivals(8), "seed changes the request stream");
}

/// The decorators forward every call unchanged: a deterministic
/// single-worker transaction sequence leaves the same state and counters
/// with and without them, and WAL records pass through byte for byte.
void TestDecoratorForwarding(const Options& opt) {
  using Sched = tufast::TuFastScheduler<tufast::EmulatedHtm>;
  constexpr tufast::VertexId kN = 64;
  auto run = [&](bool traced) {
    tufast::EmulatedHtm htm;
    Sched tm(htm, kN);
    std::vector<tufast::TmWord> words(kN, 0);
    auto body = [&](auto& s) {
      for (uint64_t i = 0; i < 500; ++i) {
        const auto v = static_cast<tufast::VertexId>((i * 7) % kN);
        s.Run(0, 2, [&](auto& txn) {
          txn.Write(v, &words[v], txn.Read(v, &words[v]) + i);
        });
      }
      tufast::RunBatch(
          s, 0, 0, kN, [](uint64_t) { return 1; },
          [&](auto& txn, uint64_t i) {
            const auto v = static_cast<tufast::VertexId>(i);
            txn.Write(v, &words[v], txn.Read(v, &words[v]) * 3 + 1);
          });
    };
    if (traced) {
      Tracer::Get().Reset();
      WithScheduler<true>(tm, body);
    } else {
      WithScheduler<false>(tm, body);
    }
    words.push_back(tm.AggregatedStats().commits);
    return words;
  };
  Expect(run(false) == run(true), "traced scheduler changes results");
  const std::vector<SpanAggregate> agg = Tracer::Get().Aggregate();
  Expect(agg[static_cast<int>(SpanName::kTmRun)].count == 500,
         "one span per Run");
  Expect(agg[static_cast<int>(SpanName::kTmRunBatch)].items == kN,
         "batch span counts its items");
  Tracer::Get().Reset();

  const std::string path = opt.run_dir + "/selftest.wal";
  {
    tufast::WalWriter writer(path, tufast::WalSyncPolicy::kFlushOnly);
    TracingWalSink sink(writer);
    for (uint32_t i = 1; i <= 10; ++i) {
      const tufast::EdgeUpdate up = tufast::EdgeUpdate::Insert(i, i + 1, i);
      const tufast::WalPublishInfo info = sink.Publish(&up, 1);
      Expect(info.seq == i && sink.Commit(info.seq), "wal sink forwards");
    }
  }
  uint64_t seen = 0;
  tufast::ScanWal(path, [&](const tufast::WalRecoveredRecord& rec) {
    ++seen;
    Expect(rec.updates.size() == 1 && rec.updates[0].src == rec.seq,
           "wal record content survives the decorator");
  });
  Expect(seen == 10, "every record reaches the log");
  std::remove(path.c_str());
  Tracer::Get().Reset();
}

/// A traced phase of every workload passes the same output checks as an
/// untraced one.
void TestTracedRunsPassChecks(const Options& opt) {
  for (const auto& [name, fn] :
       std::vector<std::pair<const char*, Result (*)(const Options&, bool, double)>>{
           {"analytics", RunAnalytics},
           {"txn_skewed", RunTxnSkewed},
           {"ingest_hot", RunIngestHot},
           {"serve_durable", RunServeDurable}}) {
    for (const bool traced : {false, true}) {
      Options o = opt;
      o.workload = name;
      const Result r = fn(o, traced, 1.0);
      std::string why = r.failures.empty() ? "" : ": " + r.failures[0];
      Expect(r.correct && r.attempted > 0,
             std::string(name) + (traced ? " traced" : " untraced") +
                 " run fails its checks" + why);
      std::printf("selftest: %s %s ok=%d attempted=%llu\n", name,
                  traced ? "traced" : "untraced", r.correct ? 1 : 0,
                  static_cast<unsigned long long>(r.attempted));
    }
  }
  Tracer::Get().Reset();
}

}  // namespace

int SelfTest(const Options& opt, bool with_workloads) {
  g_failures = 0;
  TestPercentileRule();
  TestMetricNames();
  TestSeedPlumbing();
  TestDecoratorForwarding(opt);
  if (with_workloads) TestTracedRunsPassChecks(opt);
  return g_failures;
}

}  // namespace perfbench
