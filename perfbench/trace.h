#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span tracing for the traced benchmark run.
//
// Spans are recorded only here, around the calls the benchmark makes into
// the library: a scheduler decorator (TracingScheduler) forwards Run /
// RunReadOnly / RunBatch and the two members ServeEngine requires
// (NoteQueueDelay, MonitorForWorker), and a WalSink decorator
// (TracingWalSink) wraps the real group-commit writer. Each span carries
// name, start, end, parent span and a job/request id. Spans nest per
// thread; a span's self time is its duration minus the time covered by
// its children on the same thread. Every span is aggregated online
// (count, total, self, latency histogram per name); the first
// kKeptPerThread spans per thread are also kept verbatim and written out
// as TSV when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "durability/wal.h"
#include "serving/latency_histogram.h"
#include "tm/contention_monitor.h"
#include "tm/outcome.h"

namespace perfbench {

enum class SpanName : uint8_t {
  kAlgorithmsJob = 0,  // one algorithm of the analytics suite (driver)
  kGraphApplyBatch,    // one DynamicGraph::ApplyBatch call (driver)
  kServingRequest,     // NoteQueueDelay .. MonitorForWorker on a worker
  kTmRun,
  kTmRunReadOnly,
  kTmRunBatch,
  kDurabilityPublish,
  kDurabilityCommit,
  kCount
};

inline constexpr int kNumSpanNames = static_cast<int>(SpanName::kCount);

const char* SpanNameString(SpanName n);
/// Layer a span belongs to (the src/ module it measures).
const char* SpanLayer(SpanName n);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t job = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;
  SpanName name = SpanName::kTmRun;
  uint32_t items = 0;   // batch width for tm.run_batch, updates for WAL
};

struct SpanAggregate {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  uint64_t items = 0;
  tufast::serving::LatencyHistogram duration;  // ns
};

class Tracer {
 public:
  static constexpr size_t kKeptPerThread = 50'000;

  /// The process-wide tracer the decorators record into.
  static Tracer& Get();

  /// Forget every span (between phases; no span may be open).
  void Reset();

  /// Opens a span on the calling thread; its parent is the innermost
  /// open span on this thread, else the cross-thread parent set with
  /// SetJobParent (driver job spans parent the pool workers' spans).
  void Begin(SpanName name, uint32_t items = 0);
  /// Closes the innermost open span (which must be `name`).
  void End(SpanName name);
  /// Whether the innermost open span on this thread is `name`.
  bool InnermostIs(SpanName name) const;

  /// Job/request id stamped on spans opened by this thread from now on.
  static void SetThreadJob(uint64_t job);
  /// Cross-thread parent for root spans on any thread (0 clears).
  void SetJobParent(uint64_t span_id) {
    job_parent_.store(span_id, std::memory_order_relaxed);
  }
  /// Id of the innermost open span on this thread (0 if none).
  uint64_t CurrentSpanId() const;

  /// Serving queue delay observed at NoteQueueDelay (per thread).
  void RecordQueueDelay(uint64_t ns) { Local().queue_delay.Record(ns); }

  /// Quiesced: per-name aggregates merged over every thread.
  std::vector<SpanAggregate> Aggregate() const;
  /// Quiesced: queue delays merged over every thread into `out`.
  void MergeQueueDelays(tufast::serving::LatencyHistogram* out) const;
  /// Writes the kept spans as TSV; returns the number written.
  size_t WriteTsv(const std::string& path) const;

 private:
  struct Open {
    uint64_t id;
    uint64_t start;
    uint64_t child_ns;
    SpanName name;
    uint32_t items;
  };
  struct ThreadBuf {
    uint32_t index = 0;
    uint64_t next_seq = 1;
    std::vector<Open> stack;
    std::vector<SpanRecord> kept;
    std::vector<SpanAggregate> agg = std::vector<SpanAggregate>(kNumSpanNames);
    tufast::serving::LatencyHistogram queue_delay;
  };

  ThreadBuf& Local();

  mutable std::mutex mu_;  // guards threads_ registration
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
  std::atomic<uint64_t> generation_{1};
  std::atomic<uint64_t> job_parent_{0};
};

/// RAII span for the driver's own calls.
class Span {
 public:
  explicit Span(SpanName n, uint32_t items = 0) : n_(n) {
    Tracer::Get().Begin(n, items);
  }
  ~Span() { Tracer::Get().End(n_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanName n_;
};

/// Scheduler decorator: forwards to `Inner` and records one span per
/// call. Transparent by construction — every call reaches the inner
/// scheduler with the same arguments, and outcomes are returned as is.
template <typename Inner>
class TracingScheduler {
 public:
  using Failpoints = typename Inner::Failpoints;

  explicit TracingScheduler(Inner& inner) : inner_(inner) {}
  TracingScheduler(const TracingScheduler&) = delete;
  TracingScheduler& operator=(const TracingScheduler&) = delete;

  template <typename Fn>
  tufast::RunOutcome Run(int worker, uint64_t hint, Fn&& fn) {
    Span s(SpanName::kTmRun);
    return inner_.Run(worker, hint, fn);
  }

  template <typename Fn>
  tufast::RunOutcome RunReadOnly(int worker, uint64_t hint, Fn&& fn) {
    Span s(SpanName::kTmRunReadOnly);
    return inner_.RunReadOnly(worker, hint, fn);
  }

  template <typename HintFn, typename BodyFn>
  void RunBatch(int worker, uint64_t lo, uint64_t hi, HintFn&& hint,
                BodyFn&& body) {
    Span s(SpanName::kTmRunBatch, static_cast<uint32_t>(hi - lo));
    inner_.RunBatch(worker, lo, hi, hint, body);
  }

  template <typename HintFn, typename HomeFn, typename BodyFn>
  void RunBatch(int worker, uint64_t lo, uint64_t hi, HintFn&& hint,
                HomeFn&& home, BodyFn&& body) {
    Span s(SpanName::kTmRunBatch, static_cast<uint32_t>(hi - lo));
    inner_.RunBatch(worker, lo, hi, hint, home, body);
  }

  /// ServeEngine calls this once per request as execution starts; the
  /// request span stays open until the engine's post-request breaker
  /// poll (MonitorForWorker) on the same worker.
  void NoteQueueDelay(int worker, uint64_t delay_ns) {
    inner_.NoteQueueDelay(worker, delay_ns);
    Tracer& t = Tracer::Get();
    t.RecordQueueDelay(delay_ns);
    if (t.InnermostIs(SpanName::kServingRequest)) {
      t.End(SpanName::kServingRequest);
    }
    Tracer::SetThreadJob(NextRequestId(worker));
    t.Begin(SpanName::kServingRequest);
  }

  const tufast::ContentionMonitor* MonitorForWorker(int worker) const {
    Tracer& t = Tracer::Get();
    if (t.InnermostIs(SpanName::kServingRequest)) {
      t.End(SpanName::kServingRequest);
    }
    return inner_.MonitorForWorker(worker);
  }

 private:
  static uint64_t NextRequestId(int worker) {
    thread_local uint64_t seq = 0;
    return (static_cast<uint64_t>(worker + 1) << 40) | ++seq;
  }

  Inner& inner_;
};

/// WalSink decorator installed with EnableWal: records Publish (inside
/// the commit window) and Commit (the durability wait) spans around the
/// real writer.
class TracingWalSink final : public tufast::WalSink {
 public:
  explicit TracingWalSink(tufast::WalSink& inner) : inner_(inner) {}

  tufast::WalPublishInfo Publish(const tufast::EdgeUpdate* updates,
                                 size_t count) override {
    Span s(SpanName::kDurabilityPublish, static_cast<uint32_t>(count));
    return inner_.Publish(updates, count);
  }
  bool Commit(uint64_t seq) override {
    Span s(SpanName::kDurabilityCommit);
    return inner_.Commit(seq);
  }

 private:
  tufast::WalSink& inner_;
};

/// Runs `body(tm)` on `inner` directly (untraced) or through the
/// TracingScheduler decorator (traced).
template <bool kTraced, typename Inner, typename Body>
auto WithScheduler(Inner& inner, Body&& body) {
  if constexpr (kTraced) {
    TracingScheduler<Inner> traced(inner);
    return body(traced);
  } else {
    return body(inner);
  }
}

/// Per-layer self-time shares from the tracer's aggregates, keyed
/// "<layer>.self_frac" (job spans that only wait on other threads are
/// excluded from the denominator).
std::map<std::string, double> SelfTimeShares(
    const std::vector<SpanAggregate>& agg);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
