#ifndef TUFAST_SERVING_SERVER_H_
#define TUFAST_SERVING_SERVER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoints.h"
#include "common/rng.h"
#include "common/timer.h"
#include "graph/dynamic/dynamic_graph.h"
#include "serving/admission.h"
#include "serving/latency_histogram.h"
#include "serving/load_generator.h"
#include "serving/request.h"
#include "serving/request_queue.h"
#include "tm/contention_monitor.h"

namespace tufast {
namespace serving {

/// Failpoint policy carried by a scheduler type (TuFastScheduler exports
/// the backend's via `using Failpoints = ...`); NullFailpoints otherwise.
template <typename S, typename = void>
struct SchedFailpointsOf {
  using type = NullFailpoints;
};
template <typename S>
struct SchedFailpointsOf<S, std::void_t<typename S::Failpoints>> {
  using type = typename S::Failpoints;
};
template <typename S>
using SchedFailpoints = typename SchedFailpointsOf<S>::type;

/// Graph-serving front end: a bounded run queue between an open-loop
/// request source and a pool of serving workers executing typed requests
/// as TuFast transactions against a DynamicGraph.
///
/// Threading contract:
///   - Offer()/TryReadmit()/Drain() are GENERATOR-SIDE: exactly one
///     thread (the open-loop driver) calls them. The defer queue is
///     generator-private, so a failed re-admission push-back can always
///     return its request to the defer queue (space was just freed).
///   - Worker threads (scheduler worker ids [0, num_workers)) pop the
///     run queue and execute; they never touch the defer queue.
///
/// Latency is measured from the request's *scheduled* arrival
/// (Request::arrival_ns on the engine's epoch clock) to completion, so
/// queue backlog and generator lag surface as latency rather than being
/// absorbed (no coordinated omission). Queue delay — arrival to
/// execution start — feeds the scheduler's per-worker stats
/// (NoteQueueDelay) and the per-engine max watermark. The admission
/// controller's trip signal is the run-queue wait instead — run-queue
/// entry (Request::enqueue_ns) to execution start — so a re-admitted
/// request does not report its parked time and re-trip the controller
/// that parked it.
///
/// Conservation: every Offer() ends in exactly one of admitted / shed /
/// deferred, and Drain() executes everything admitted, so after Drain():
///   offered == admitted + shed + deferred   (AdmissionController)
///   executed == admitted                    (ExecutedTotal)
/// Both are invariants checked by tests, serve_bench, and
/// stress_fuzz --serve-chaos (which arms kServeQueueFull/kServeDeferFull
/// to force the rare bounce paths).
template <typename Scheduler>
class ServeEngine {
 public:
  using Failpoints = SchedFailpoints<Scheduler>;

  struct Config {
    int num_workers = 4;
    uint32_t queue_capacity = 1024;
    uint32_t defer_capacity = 4096;
    AdmissionConfig admission;
    uint64_t interactive_slo_ns = 2'000'000;   // goodput bound, tier 0
    uint64_t bulk_slo_ns = 100'000'000;        // goodput bound, tier 1
    uint32_t khop_frontier_cap = 64;           // BFS frontier bound
  };

  ServeEngine(Scheduler& tm, DynamicGraph& graph, const Config& cfg)
      : tm_(&tm),
        graph_(&graph),
        cfg_(cfg),
        n_(graph.NumVertices()),
        queue_(cfg.queue_capacity),
        defer_(cfg.defer_capacity),
        admission_(cfg.admission) {}

  ~ServeEngine() {
    if (!threads_.empty()) Drain();
  }

  /// Spawn the worker pool and start the epoch clock. arrival_ns values
  /// offered afterwards are interpreted on this clock.
  void Start() {
    draining_.store(false, std::memory_order_relaxed);
    epoch_.Restart();
    threads_.reserve(cfg_.num_workers);
    for (int i = 0; i < cfg_.num_workers; ++i) {
      threads_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  uint64_t NowNs() const { return epoch_.ElapsedNanos(); }

  /// Offer one request (generator-side). Returns its disposition; the
  /// matching AdmissionController counter has already been bumped.
  Disposition Offer(const Request& r) {
    admission_.CountOffered(r.tenant);
    if (!admission_.ShouldAdmit(r.tenant)) return Park(r);
    bool pushed;
    if constexpr (Failpoints::kEnabled) {
      pushed = Failpoints::Hit(FailSite::kServeQueueFull, 0) ==
                       FailAction::kNone
                   ? PushRun(r)
                   : false;
    } else {
      pushed = PushRun(r);
    }
    if (!pushed) {
      // Hard queue-full back-pressure. Bulk gets a deferral chance;
      // interactive is shed outright (parking it would only guarantee
      // an SLO miss by the time it re-emerges).
      if (r.tenant == Tenant::kBulk) return Park(r);
      admission_.CountShed(r.tenant);
      return Disposition::kShed;
    }
    admission_.CountAdmitted(r.tenant);
    return Disposition::kAdmitted;
  }

  /// Move up to `budget` parked requests back into the run queue
  /// (generator-side; no-op while the controller is shedding). Returns
  /// the number re-admitted.
  int TryReadmit(int budget) {
    if (admission_.state() != AdmissionController::State::kOpen) return 0;
    int moved = 0;
    Request r;
    while (moved < budget && defer_.TryPop(&r)) {
      if (!PushRun(r)) {
        // Run queue full again: put it back (defer is generator-private,
        // so the slot we just freed is still free) and stop this round.
        const bool back = defer_.TryPush(r);
        (void)back;
        break;
      }
      admission_.CountReadmitted(r.tenant);
      ++moved;
    }
    return moved;
  }

  /// Stop accepting, execute everything already admitted, join workers.
  void Drain() {
    draining_.store(true, std::memory_order_release);
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  // ---- Post-run accounting (quiesced, or monitoring-grade racy) ----

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  const LatencyHistogram& Latency(Tenant t, Op op) const {
    return latency_[Idx(t)][static_cast<int>(op)];
  }

  /// All-op latency for one tenant, merged into `out`.
  void MergeTenantLatency(Tenant t, LatencyHistogram* out) const {
    for (int op = 0; op < kNumOps; ++op) out->Merge(latency_[Idx(t)][op]);
  }

  uint64_t Completed(Tenant t, Op op) const {
    return completed_[Idx(t)][static_cast<int>(op)].load(
        std::memory_order_relaxed);
  }
  uint64_t SloMet(Tenant t, Op op) const {
    return slo_met_[Idx(t)][static_cast<int>(op)].load(
        std::memory_order_relaxed);
  }
  uint64_t ExecutedTotal() const {
    return executed_total_.load(std::memory_order_relaxed);
  }
  uint64_t MaxQueueDelayNs() const {
    return max_queue_delay_ns_.load(std::memory_order_relaxed);
  }
  uint64_t SloNs(Tenant t) const {
    return t == Tenant::kInteractive ? cfg_.interactive_slo_ns
                                     : cfg_.bulk_slo_ns;
  }
  const RequestQueue& queue() const { return queue_; }
  const RequestQueue& defer_queue() const { return defer_; }
  const Config& config() const { return cfg_; }

 private:
  static int Idx(Tenant t) { return static_cast<int>(t); }

  /// Enters `r` into the run queue, stamping the entry time the
  /// admission controller's run-queue wait is measured from.
  bool PushRun(Request r) {
    r.enqueue_ns = NowNs();
    return queue_.TryPush(r);
  }

  Disposition Park(const Request& r) {
    bool parked;
    if constexpr (Failpoints::kEnabled) {
      parked = Failpoints::Hit(FailSite::kServeDeferFull, 0) ==
                       FailAction::kNone
                   ? defer_.TryPush(r)
                   : false;
    } else {
      parked = defer_.TryPush(r);
    }
    if (parked) {
      admission_.CountDeferred(r.tenant);
      return Disposition::kDeferred;
    }
    admission_.CountShed(r.tenant);
    return Disposition::kShed;
  }

  void WorkerLoop(int worker_id) {
    Request r;
    std::vector<VertexId> frontier, next;
    std::vector<EdgeUpdate> updates;
    while (true) {
      if (queue_.TryPop(&r)) {
        Execute(worker_id, r, frontier, next, updates);
        continue;
      }
      if (draining_.load(std::memory_order_acquire) && queue_.Empty()) {
        return;
      }
      std::this_thread::yield();
    }
  }

  void Execute(int worker_id, const Request& r,
               std::vector<VertexId>& frontier, std::vector<VertexId>& next,
               std::vector<EdgeUpdate>& updates) {
    const uint64_t start = NowNs();
    const uint64_t qdelay =
        start > r.arrival_ns ? start - r.arrival_ns : 0;
    RecordQueueDelay(worker_id, qdelay);
    admission_.NoteQueueDelay(start > r.enqueue_ns ? start - r.enqueue_ns
                                                   : 0);

    switch (r.op) {
      case Op::kPointRead: {
        VertexSnapshot snap;
        graph_->ReadVertexSnapshotRO(*tm_, worker_id, Key(r.key), &snap);
        break;
      }
      case Op::kPointWrite: {
        uint64_t h = r.seq * 0x9e3779b97f4a7c15ULL + 1;
        const VertexId v = Key(static_cast<uint32_t>(SplitMix64(h)));
        graph_->InsertEdge(*tm_, worker_id, Key(r.key), v,
                           static_cast<uint32_t>(r.seq & 0xff));
        break;
      }
      case Op::kKHop:
        KHop(worker_id, Key(r.key), r.aux, frontier, next);
        break;
      case Op::kScan:
        Scan(worker_id, Key(r.key), r.aux);
        break;
      case Op::kBatchMutate:
        BatchMutate(worker_id, r, updates);
        break;
      default:
        break;
    }

    const uint64_t end = NowNs();
    const uint64_t lat = end > r.arrival_ns ? end - r.arrival_ns : 0;
    const int t = Idx(r.tenant);
    const int op = static_cast<int>(r.op);
    latency_[t][op].Record(lat);
    completed_[t][op].fetch_add(1, std::memory_order_relaxed);
    if (lat <= SloNs(r.tenant)) {
      slo_met_[t][op].fetch_add(1, std::memory_order_relaxed);
    }
    executed_total_.fetch_add(1, std::memory_order_relaxed);
    if (r.tenant == Tenant::kInteractive) {
      admission_.RecordInteractiveLatency(lat);
    }
    PollBreaker(worker_id);
  }

  VertexId Key(uint32_t key) const {
    return static_cast<VertexId>(key % n_);
  }

  /// Bounded breadth-first expansion: `k` rounds of snapshot reads with
  /// a capped frontier (hub vertices would otherwise make one request
  /// touch the whole graph).
  void KHop(int worker_id, VertexId root, int k,
            std::vector<VertexId>& frontier, std::vector<VertexId>& next) {
    frontier.clear();
    frontier.push_back(root);
    VertexSnapshot snap;
    for (int depth = 0; depth < k && !frontier.empty(); ++depth) {
      next.clear();
      for (const VertexId u : frontier) {
        graph_->ReadVertexSnapshotRO(*tm_, worker_id, u, &snap);
        for (const auto& [v, w] : snap.edges) {
          (void)w;
          if (next.size() >= cfg_.khop_frontier_cap) break;
          next.push_back(v);
        }
        if (next.size() >= cfg_.khop_frontier_cap) break;
      }
      frontier.swap(next);
    }
  }

  /// Filtered scan: snapshot-read `span` consecutive vertices and count
  /// the edges passing a weight predicate (stand-in for a real filter).
  uint64_t Scan(int worker_id, VertexId base, uint32_t span) {
    uint64_t matched = 0;
    VertexSnapshot snap;
    for (uint32_t i = 0; i < span; ++i) {
      const VertexId u = static_cast<VertexId>((base + i) % n_);
      graph_->ReadVertexSnapshotRO(*tm_, worker_id, u, &snap);
      for (const auto& [v, w] : snap.edges) {
        (void)v;
        if ((w & 1u) == 0) ++matched;
      }
    }
    return matched;
  }

  /// Batched mutation: `aux` edge upserts/deletes derived from the
  /// request's rng stream, applied as one transactional batch (PR-4
  /// fusion handles the packing).
  void BatchMutate(int worker_id, const Request& r,
                   std::vector<EdgeUpdate>& updates) {
    updates.clear();
    uint64_t h = r.seq ^ 0xbf58476d1ce4e5b9ULL;
    for (uint16_t j = 0; j < r.aux; ++j) {
      const VertexId u = Key(r.key + j);
      const VertexId v = Key(static_cast<uint32_t>(SplitMix64(h)));
      if ((j & 1u) == 0) {
        updates.push_back(EdgeUpdate::Insert(u, v, j));
      } else {
        updates.push_back(EdgeUpdate::Delete(u, v));
      }
    }
    graph_->ApplyBatch(*tm_, worker_id,
                       std::span<const EdgeUpdate>(updates));
  }

  /// Queue delay -> scheduler per-worker stats (when the scheduler has
  /// the PR-8 plumbing) + engine watermark.
  void RecordQueueDelay(int worker_id, uint64_t ns) {
    if constexpr (requires(Scheduler& s) {
                    s.NoteQueueDelay(0, uint64_t{0});
                  }) {
      tm_->NoteQueueDelay(worker_id, ns);
    }
    uint64_t prev = max_queue_delay_ns_.load(std::memory_order_relaxed);
    while (ns > prev && !max_queue_delay_ns_.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }

  /// The serving worker polls its own ContentionMonitor slot — the slot
  /// is owned by this thread, so the read is unsynchronized by design.
  void PollBreaker(int worker_id) {
    if constexpr (requires(const Scheduler& s) {
                    s.MonitorForWorker(0);
                  }) {
      const ContentionMonitor* m = tm_->MonitorForWorker(worker_id);
      if (m != nullptr && m->breaker_state() == BreakerState::kOpen) {
        admission_.NoteBreakerOpen();
      }
    }
  }

  Scheduler* tm_;
  DynamicGraph* graph_;
  const Config cfg_;
  const VertexId n_;

  RequestQueue queue_;
  RequestQueue defer_;
  AdmissionController admission_;
  WallTimer epoch_;
  std::vector<std::thread> threads_;
  std::atomic<bool> draining_{false};

  LatencyHistogram latency_[kNumTenants][kNumOps];
  std::atomic<uint64_t> completed_[kNumTenants][kNumOps] = {};
  std::atomic<uint64_t> slo_met_[kNumTenants][kNumOps] = {};
  std::atomic<uint64_t> executed_total_{0};
  std::atomic<uint64_t> max_queue_delay_ns_{0};
};

}  // namespace serving
}  // namespace tufast

#endif  // TUFAST_SERVING_SERVER_H_
