// Repository benchmark driver.
//
//   perfbench --workload <analytics|txn_skewed|ingest_hot|serve_durable>
//             --seed <n> --seconds <s> --trace <0|1> [--run-dir <dir>]
//   perfbench --selftest [--run-dir <dir>]
//
// --trace 0 measures one untraced phase of --seconds and reports the
// end-to-end metrics. --trace 1 measures an untraced and a traced phase
// of --seconds/2 each and reports the per-layer metrics plus the tracing
// overhead (traced vs untraced throughput). Human-readable lines come
// first; the last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
// Any failed output check makes the run exit 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics in the result object, reported by every workload
// (meaning per workload in NOTES.md). Each workload's latency metrics are
// printed by name above the result object.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
};

// Per-layer metrics, reported by every traced run; a layer a workload does
// not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"htm.attempts_per_commit", "ratio"},
    {"htm.conflict_frac", "frac"},
    {"htm.capacity_frac", "frac"},
    {"htm.empty_commit_ns", "ns"},
    {"sync.lock_busy_per_commit", "ratio"},
    {"sync.deadlock_per_commit", "ratio"},
    {"sync.l_time_frac", "frac"},
    {"sync.lock_round_trip_ns", "ns"},
    {"tm.run_p50_ns", "ns"},
    {"tm.run_p99_ns", "ns"},
    {"tm.share_h", "frac"},
    {"tm.share_o", "frac"},
    {"tm.share_l", "frac"},
    {"tm.useful_ratio", "frac"},
    {"tm.backoff_per_commit", "ratio"},
    {"tm.starvation_tokens", "count"},
    {"tm.breaker_bypass_frac", "frac"},
    {"tm.run_h_ns", "ns"},
    {"tm.batch_item_ns", "ns"},
    {"tm.fused_width", "items"},
    {"tm.fusion_abort_ratio", "frac"},
    {"tm.combined_frac", "frac"},
    {"tm.combine_batch_ops", "ops"},
    {"tm.combine_slot_full", "count"},
    {"tm.self_frac", "frac"},
    {"runtime.busy_frac", "frac"},
    {"algorithms.pagerank_iters", "count"},
    {"graph.blocks_per_live_edge", "ratio"},
    {"graph.self_frac", "frac"},
    {"mvcc.snapshot_read_p50_ns", "ns"},
    {"mvcc.snapshot_ops_per_read", "ops"},
    {"mvcc.snapshot_txn_ns", "ns"},
    {"durability.records_per_fsync", "ratio"},
    {"durability.commit_wait_p50_ns", "ns"},
    {"durability.commit_wait_p99_ns", "ns"},
    {"durability.publish_p99_ns", "ns"},
    {"durability.bytes_per_update", "B"},
    {"durability.ack_ns", "ns"},
    {"durability.self_frac", "frac"},
    {"serving.queue_delay_p99_us", "us"},
    {"serving.deferred_frac", "frac"},
    {"serving.shed_frac", "frac"},
    {"serving.admission_trips", "count"},
    {"serving.generator_lag_max_us", "us"},
    {"serving.self_frac", "frac"},
    {"host.effective_cores", "cores"},
    {"trace.overhead_frac", "frac"},
};

}  // namespace

std::vector<std::string> MetricNames() {
  std::vector<std::string> out;
  for (const MetricDef& d : kEndToEnd) out.push_back(d.name);
  for (const MetricDef& d : kPerLayer) out.push_back(d.name);
  return out;
}

namespace {

using WorkloadFn = Result (*)(const Options&, bool, double);

// Untimed all-core warm-up before the probes and the workload.
constexpr double kWarmUpSeconds = 2.0;

WorkloadFn Lookup(const std::string& name) {
  if (name == "analytics") return RunAnalytics;
  if (name == "txn_skewed") return RunTxnSkewed;
  if (name == "ingest_hot") return RunIngestHot;
  if (name == "serve_durable") return RunServeDurable;
  return nullptr;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<analytics|txn_skewed|ingest_hot|serve_durable> --seed <n> "
               "--seconds <s> --trace <0|1> [--run-dir <dir>]\n"
               "       perfbench --selftest [--run-dir <dir>]\n",
               why);
  std::exit(2);
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

void PrintTimingLines(const char* phase, const Result& r) {
  for (const Timing& t : r.named) {
    std::printf("%s %s = %.6g %s (n=%llu; %s)\n", phase, t.name.c_str(),
                t.value, t.unit.c_str(),
                static_cast<unsigned long long>(t.samples), t.note.c_str());
  }
  std::printf("%s ops attempted=%llu failed=%llu measured_s=%.3f setup_s=%.4f\n",
              phase, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.measured_s,
              r.setup_s);
  for (const std::string& f : r.failures) {
    std::printf("%s CHECK FAILED: %s\n", phase, f.c_str());
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options opt;
  bool selftest = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    uint64_t v = 0;
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      if (!ParseU64(next(), &v)) Usage("--seed must be a whole number");
      opt.seed = v;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!ParseU64(next(), &v) || v == 0) Usage("--seconds must be >= 1");
      opt.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!ParseU64(next(), &v) || v > 1) Usage("--trace must be 0 or 1");
      opt.trace = v == 1;
      have_trace = true;
    } else if (a == "--run-dir") {
      opt.run_dir = next();
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (selftest) {
    const int failures = SelfTest(opt, /*with_workloads=*/true);
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  const WorkloadFn fn = Lookup(opt.workload);
  if (fn == nullptr) Usage(("unknown workload '" + opt.workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  // The cheap self-tests (percentile rule, name grammar, seed plumbing)
  // guard every run.
  if (SelfTest(opt, /*with_workloads=*/false) != 0) {
    std::fprintf(stderr, "perfbench: self-test failed\n");
    return 1;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::string host = "host:";
  for (const std::string& l : HostFingerprint()) host += " " + l;
  std::printf("%s\n", host.c_str());
  WarmUp(kWarmUpSeconds);
  std::map<std::string, double> probes = LayerProbes(opt);
  probes["host.effective_cores"] = EffectiveCores();
  for (const auto& [k, v] : probes) std::printf("probe %s = %.6g\n", k.c_str(), v);

  std::map<std::string, std::pair<double, std::string>> metrics;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  auto account = [&](const Result& r) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
  };

  if (!opt.trace) {
    const Result r = fn(opt, false, opt.seconds);
    PrintTimingLines("untraced", r);
    account(r);
    const double values[] = {r.setup_s, PeakRssMb(), r.throughput_per_s};
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics[kEndToEnd[i].name] = {values[i], kEndToEnd[i].unit};
    }
  } else {
    const Result plain = fn(opt, false, opt.seconds / 2);
    PrintTimingLines("untraced", plain);
    account(plain);
    const Result traced = fn(opt, true, opt.seconds / 2);
    PrintTimingLines("traced", traced);
    account(traced);
    // Overhead as the headline median latency's growth; the throughput
    // of the open-loop serve workload is pinned by its offered rate.
    const double overhead = Ratio(traced.median_us, plain.median_us) - 1.0;
    std::printf("tracing overhead: median %.6g us traced vs %.6g us untraced "
                "(%+.2f%%); throughput %.6g vs %.6g /s (%+.2f%%)\n",
                traced.median_us, plain.median_us, overhead * 100,
                traced.throughput_per_s, plain.throughput_per_s,
                (Ratio(traced.throughput_per_s, plain.throughput_per_s) - 1) *
                    100);
    const std::string tsv =
        opt.run_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
        ".spans.tsv";
    std::printf("spans written: %zu to %s\n", Tracer::Get().WriteTsv(tsv),
                tsv.c_str());

    std::map<std::string, double> layer = traced.layer;
    for (const auto& [k, v] : probes) layer[k] = v;
    layer["trace.overhead_frac"] = overhead;
    for (const MetricDef& d : kPerLayer) {
      const auto it = layer.find(d.name);
      metrics[d.name] = {it == layer.end() ? 0.0 : it->second, d.unit};
    }
    for (const auto& [k, v] : layer) {
      if (!metrics.count(k)) {
        std::printf("CHECK FAILED: unlisted per-layer metric %s\n", k.c_str());
        correct = false;
      }
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("metric %s = %.9g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
