// serve_durable: open loop. One generator thread offers Poisson arrivals
// at a fixed rate, with the default two-tenant op mix and Zipf keys
// (serving/load_generator.h), to a ServeEngine with nproc - 1 workers.
// MVCC snapshot reads and the group-commit WAL are on; the log is fsynced
// on every group commit (WalSyncPolicy::kFsyncEachCommit) into the run
// directory on the local disk. Admission control is on, guarding a 1 s
// interactive p99 (kAdmissionSloNs). Latency is timed by the engine from
// each request's scheduled arrival; the generator's own lateness is
// reported too. Goodput counts completions inside 100 ms, both tiers.
//
// Checks: offered = admitted + shed + deferred, executed = admitted, the
// scheduler saw one queue-delay record per executed request, and
// replaying the WAL onto the base graph reproduces the live graph.
// Requests still deferred or shed at the end count as failed.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench.h"
#include "bench_support/datasets.h"
#include "durability/recovery.h"
#include "graph/dynamic/dynamic_graph.h"
#include "htm/emulated_htm.h"
#include "layers.h"
#include "serving/load_generator.h"
#include "serving/server.h"
#include "tm/tufast.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace sv = tufast::serving;
using tufast::EmulatedHtm;

constexpr double kScale = 0.25;     // friendster-s: 10k vertices, 275k edges
// Offered requests per second (frozen). At 2000 req/s, busy spells on a
// shared 4-vCPU VM (host.effective_cores ~2.5) left the engine's three
// fsync-bound workers seconds behind: run queue full, requests shed, read
// p99 over 1 s. A spinning thread plus three 1 MB write+fsync loops beside
// the run reproduce that at 2000 req/s; at 1000 req/s they left read p99
// at 54 ms and nothing refused.
constexpr double kRate = 1000.0;
// Interactive p99 SLO the admission controller guards. With the 2 ms
// default, fsync-per-commit writes and host stalls (queue delays of
// 17-113 ms on a quiet host) trip the controller. Once it has tripped,
// every re-admitted bulk request reports its parked time as queue delay
// (up to 12 s), which trips it again, so the parked requests never drain
// and about 18% of all requests fail. At 1 s the controller trips only
// when the engine runs half a second behind (half of what fills the
// 1024-slot run queue at this rate), not on a stalled host, so any shed
// or deferred request is a regression.
constexpr uint64_t kAdmissionSloNs = 1'000'000'000;
// Goodput bound for both tiers. The engine's 2 ms interactive default is
// missed by every read queued behind fsync-bound workers while the host
// stalls, which spread goodput over ten runs to an IQR of 0.28 of the
// median; 100 ms is the engine's bulk-tier default.
constexpr uint64_t kGoodputSloNs = 100'000'000;
constexpr uint64_t kGoodputWindowNs = 1'000'000'000;
constexpr double kReadmitGraceS = 2.0;  // post-window re-admission budget

bool SameGraph(const tufast::Graph& a, const tufast::Graph& b) {
  return a.NumVertices() == b.NumVertices() && a.offsets() == b.offsets() &&
         a.targets() == b.targets() && a.weights() == b.weights();
}

template <bool kTraced>
Result Phase(const Options& opt, double seconds) {
  using Inner = std::conditional_t<
      kTraced, tufast::TuFastScheduler<EmulatedHtm, tufast::EventTelemetry>,
      tufast::TuFastScheduler<EmulatedHtm>>;
  const int workers = TmWorkers() - 1;
  const std::string wal_path = opt.run_dir + "/serve.wal";
  struct State {
    tufast::Graph base;
    std::unique_ptr<tufast::DynamicGraph> graph;
    EmulatedHtm htm;
    std::unique_ptr<Inner> tm;
  };
  Result r;
  const std::unique_ptr<State> st = TimedSetup([&] {
    auto s = std::make_unique<State>();
    s->base = tufast::GenerateDataset(Dataset(0, kScale), /*weighted=*/true);
    s->graph = tufast::DynamicGraph::FromCsr(s->base);
    typename Inner::Config cfg;
    cfg.enable_mvcc = true;
    cfg.enable_wal = true;
    cfg.wal_path = wal_path;
    cfg.wal_sync = tufast::WalSyncPolicy::kFsyncEachCommit;
    s->tm = std::make_unique<Inner>(s->htm, s->graph->capacity(), cfg);
    return s;
  }, &r.setup_s);
  Inner& inner = *st->tm;
  tufast::DynamicGraph& graph = *st->graph;
  // The traced run routes the scheduler's WAL traffic through the span
  // decorator around the scheduler-owned writer.
  TracingWalSink traced_sink(*inner.wal_writer());
  if constexpr (kTraced) {
    inner.EnableWal(&traced_sink);
    Tracer::Get().Reset();
  }

  sv::LoadConfig lc;
  lc.rate = kRate;
  lc.num_keys = st->base.NumVertices();
  sv::LoadGenerator gen(lc, StreamSeed(opt.seed, 4, 0));

  uint64_t lag_max_ns = 0;
  double elapsed_s = 0;
  uint64_t offered = 0, admitted = 0, shed = 0, deferred = 0, readmitted = 0;
  uint64_t trips = 0;
  WithScheduler<kTraced>(inner, [&](auto& tm) {
    using Engine = sv::ServeEngine<std::remove_reference_t<decltype(tm)>>;
    typename Engine::Config ec;
    ec.num_workers = workers;
    ec.admission.slo_p99_ns = kAdmissionSloNs;
    ec.interactive_slo_ns = kGoodputSloNs;
    ec.bulk_slo_ns = kGoodputSloNs;
    Engine engine(tm, graph, ec);
    engine.Start();
    const uint64_t horizon = static_cast<uint64_t>(seconds * 1e9);
    auto slo_total = [&] {
      uint64_t n = 0;
      for (int t = 0; t < sv::kNumTenants; ++t) {
        for (int op = 0; op < sv::kNumOps; ++op) {
          n += engine.SloMet(static_cast<sv::Tenant>(t),
                             static_cast<sv::Op>(op));
        }
      }
      return n;
    };
    // Goodput per one-second window, read by the generator as it crosses
    // each boundary; the run reports the median window, so a host stall
    // that spoils a window or two does not move it.
    std::vector<double> window_goodput;
    uint64_t window_end = kGoodputWindowNs, window_start = 0, slo_before = 0;
    for (sv::Request q = gen.NextRequest(); q.arrival_ns < horizon;
         q = gen.NextRequest()) {
      while (engine.NowNs() < q.arrival_ns) {
        if (q.arrival_ns - engine.NowNs() > 200'000) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else {
          std::this_thread::yield();
        }
      }
      const uint64_t now = engine.NowNs();
      if (now >= window_end) {
        const uint64_t slo_now = slo_total();
        window_goodput.push_back(static_cast<double>(slo_now - slo_before) *
                                 1e9 / static_cast<double>(now - window_start));
        slo_before = slo_now;
        window_start = now;
        window_end = now + kGoodputWindowNs;
      }
      if (now - q.arrival_ns > lag_max_ns) lag_max_ns = now - q.arrival_ns;
      engine.Offer(q);
      if ((q.seq & 0x3f) == 0) engine.TryReadmit(8);
    }
    elapsed_s = static_cast<double>(engine.NowNs()) / 1e9;
    // Give parked requests their chance once the window closes; whatever
    // is still parked afterwards counts as failed.
    const uint64_t grace =
        engine.NowNs() + static_cast<uint64_t>(kReadmitGraceS * 1e9);
    while (engine.defer_queue().ApproxDepth() > 0 && engine.NowNs() < grace) {
      if (engine.TryReadmit(64) == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    engine.Drain();

    const sv::AdmissionController& ac = engine.admission();
    for (int t = 0; t < sv::kNumTenants; ++t) {
      const auto tenant = static_cast<sv::Tenant>(t);
      offered += ac.Offered(tenant);
      admitted += ac.Admitted(tenant);
      shed += ac.Shed(tenant);
      deferred += ac.Deferred(tenant);
      readmitted += ac.Readmitted(tenant);
    }
    trips = ac.trips();
    r.Check(ac.Conserved(), "offered != admitted + shed + deferred");
    r.Check(engine.ExecutedTotal() == admitted,
            "executed " + std::to_string(engine.ExecutedTotal()) +
                " != admitted " + std::to_string(admitted));

    sv::LatencyHistogram reads, writes;
    const uint64_t slo_met = slo_total();
    for (const sv::Op op : {sv::Op::kPointRead, sv::Op::kKHop, sv::Op::kScan}) {
      reads.Merge(engine.Latency(sv::Tenant::kInteractive, op));
    }
    writes.Merge(engine.Latency(sv::Tenant::kInteractive, sv::Op::kPointWrite));

    auto tail = [](const sv::LatencyHistogram& h, double* used) {
      const double p = std::min(99.0, HighestSupportedPercentile(h.Count()));
      *used = p;
      return static_cast<double>(h.Quantile((p == 0 ? 50 : p) / 100)) / 1e3;
    };
    // Median window; a run shorter than one window falls back to the
    // whole-run rate.
    std::sort(window_goodput.begin(), window_goodput.end());
    r.throughput_per_s = window_goodput.empty()
                             ? slo_met / seconds
                             : window_goodput[window_goodput.size() / 2];
    r.median_us = static_cast<double>(reads.Quantile(0.5)) / 1e3;
    double read_p = 0, write_p = 0;
    const double read_tail = tail(reads, &read_p);
    const double write_tail = tail(writes, &write_p);
    r.named = {
        {"read_p50_us", r.median_us, "us", reads.Count(),
         "median interactive read (point/k-hop/scan), from scheduled arrival"},
        {"read_p99_us", read_tail, "us", reads.Count(),
         PercentileLabel(read_p) + " interactive read"},
        {"write_p99_us", write_tail, "us", writes.Count(),
         PercentileLabel(write_p) + " interactive durable write"},
        {"goodput_per_s", r.throughput_per_s, "1/s", slo_met,
         "completions inside 100 ms per second, median of " +
             std::to_string(window_goodput.size()) +
             " one-second windows; whole run " +
             std::to_string(slo_met / seconds)},
    };
  });
  r.measured_s = elapsed_s;
  r.attempted = offered;
  // Refused requests are failed operations, not output mismatches.
  r.failed += shed + deferred;

  const tufast::SchedulerStats stats = inner.AggregatedStats();
  r.Check(stats.serve_requests == admitted,
          "scheduler saw " + std::to_string(stats.serve_requests) +
              " queue-delay records, admitted " + std::to_string(admitted));
  if (const std::optional<std::string> bad = graph.CheckInvariantsQuiesced()) {
    r.Fail("graph invariant: " + *bad);
  }
  const auto& wal = *inner.wal_writer();
  const uint64_t wal_records = wal.records(), wal_fsyncs = wal.fsyncs(),
                 wal_bytes = wal.bytes();
  {
    auto replayed = tufast::DynamicGraph::FromCsr(st->base);
    const tufast::WalRecoveryResult rec =
        tufast::RecoverFromWal(replayed.get(), wal_path);
    r.Check(!rec.torn_tail, "wal ends in a torn record");
    r.Check(rec.replayed == wal_records,
            "replayed " + std::to_string(rec.replayed) + " of " +
                std::to_string(wal_records) + " wal records");
    r.Check(SameGraph(replayed->Freeze(), graph.Freeze()),
            "wal replay does not reproduce the live graph");
  }

  if constexpr (kTraced) {
    SchedulerLayers(inner, r.layer);
    TracerLayers(workers, elapsed_s, stats.combined_ops, r.layer);
    const std::vector<SpanAggregate> agg = Tracer::Get().Aggregate();
    const SpanAggregate& pub = agg[static_cast<int>(SpanName::kDurabilityPublish)];
    r.layer["durability.records_per_fsync"] = Ratio(wal_records, wal_fsyncs);
    r.layer["durability.bytes_per_update"] = Ratio(wal_bytes, pub.items);
    sv::LatencyHistogram queue_delay;
    Tracer::Get().MergeQueueDelays(&queue_delay);
    r.layer["serving.queue_delay_p99_us"] = queue_delay.Quantile(0.99) / 1e3;
    r.layer["serving.deferred_frac"] = Ratio(readmitted + deferred, offered);
    r.layer["serving.shed_frac"] = Ratio(shed, offered);
    r.layer["serving.admission_trips"] = static_cast<double>(trips);
    r.layer["serving.generator_lag_max_us"] = lag_max_ns / 1e3;
  }
  std::printf("serve: offered=%llu admitted=%llu readmitted=%llu shed=%llu "
              "deferred=%llu trips=%llu generator_lag_max_us=%.1f\n",
              static_cast<unsigned long long>(offered),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(readmitted),
              static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(deferred),
              static_cast<unsigned long long>(trips), lag_max_ns / 1e3);
  return r;
}

}  // namespace

Result RunServeDurable(const Options& opt, bool traced, double seconds) {
  return traced ? Phase<true>(opt, seconds) : Phase<false>(opt, seconds);
}

}  // namespace perfbench
