#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the repository benchmark: run options, the result
// record every workload fills, sample sets with the percentile rule, and
// small process helpers (clock, peak RSS, repeated set-up timing).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir = ".";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process peak resident set size in MiB (getrusage reports KiB).
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// True iff `name` matches the metric-name grammar [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

/// The timing rule: the highest percentile with at least ten samples
/// beyond it. Returns the largest p in {50, 75, 90, 95, 99, 99.9, 99.99}
/// with n * (1 - p/100) >= 10, or 0 when even the median has fewer than
/// ten samples above it (n < 20).
double HighestSupportedPercentile(uint64_t n);

/// Raw latency samples (nanoseconds) with exact order statistics.
class Samples {
 public:
  void Add(uint64_t ns) {
    v_.push_back(ns);
    sorted_ = false;
  }
  void Merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  uint64_t count() const { return v_.size(); }
  /// Nearest-rank percentile p in [0, 100]; 0 on an empty set.
  double Percentile(double p) const;
  /// `want` if the percentile rule supports it at this sample count,
  /// otherwise the highest percentile it does support (see
  /// HighestSupportedPercentile); `used` receives the percentile taken.
  double Tail(double want, double* used) const;

 private:
  mutable std::vector<uint64_t> v_;
  mutable bool sorted_ = false;
};

/// One timing as the benchmark reports it: median and tail with the
/// sample count, printed under the workload's own metric names.
struct Timing {
  std::string name;   // e.g. "txn_p99_us"
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  std::string note;   // e.g. "p99 of 123456 Run() calls"
};

/// Everything one workload phase produced.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few check messages

  // End-to-end numbers every workload reports (see NOTES.md): set-up
  // time, useful work per second, and the workload's headline median
  // latency (used for the tracing overhead).
  double setup_s = 0;
  double throughput_per_s = 0;
  double median_us = 0;
  double measured_s = 0;

  // The workload's own metrics under their names (txn_p99_us, ...),
  // each with its sample count, printed before the result object.
  std::vector<Timing> named;

  // Per-layer metrics (filled by traced phases).
  std::map<std::string, double> layer;

  void Fail(const std::string& what) {
    correct = false;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

/// Set-ups per phase; setup_s is their median.
inline constexpr int kSetupReps = 9;

/// Builds the workload state kSetupReps times and returns the last one;
/// `setup_s` receives the median build time. Tear-down of the previous
/// build happens outside the timing.
template <typename Build>
auto TimedSetup(Build&& build, double* setup_s) {
  decltype(build()) state;
  std::vector<double> secs;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    const uint64_t t0 = NowNs();
    state = build();
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::sort(secs.begin(), secs.end());
  *setup_s = secs[secs.size() / 2];
  return state;
}

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// TM workers of the closed-loop workloads: one per core, at least 2 and
/// at most 4 (serve_durable uses one fewer, for its generator thread).
int TmWorkers();

/// Seed of one generator stream: workload seed, a per-workload salt and
/// the client index, mixed so every (seed, salt, worker) gets its own
/// stream. The library only ever sees inputs drawn from these streams.
uint64_t StreamSeed(uint64_t seed, uint64_t salt, int worker);

/// Every metric name the benchmark reports (end-to-end and per-layer).
std::vector<std::string> MetricNames();

/// "p99", "p99.9", ... for printing a percentile.
std::string PercentileLabel(double p);

// Workload entry points: one measured phase of `seconds`, traced or not.
Result RunAnalytics(const Options& opt, bool traced, double seconds);
Result RunTxnSkewed(const Options& opt, bool traced, double seconds);
Result RunIngestHot(const Options& opt, bool traced, double seconds);
Result RunServeDurable(const Options& opt, bool traced, double seconds);

/// Host fingerprint (nproc, RTM, CPU model, compiler, build type) and the
/// same-run effective-parallelism probe, as printable lines.
std::vector<std::string> HostFingerprint();
/// Keeps every core busy for `seconds`. A virtual machine that sat idle
/// hands out its cores gradually (about one core for the first second of
/// load here); warming first makes every run start from the same state.
void WarmUp(double seconds);
/// nproc independent spin loops timed against one: nproc * t1 / tN.
double EffectiveCores();

/// Single-threaded layer-cost probes through public calls; keys are the
/// per-layer metric names (htm.empty_commit_ns, ...).
std::map<std::string, double> LayerProbes(const Options& opt);

/// Self-tests of the benchmark's own code; returns the failure count.
int SelfTest(const Options& opt, bool with_workloads);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
