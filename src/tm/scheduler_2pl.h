#ifndef TUFAST_TM_SCHEDULER_2PL_H_
#define TUFAST_TM_SCHEDULER_2PL_H_

#include <memory>

#include "common/types.h"
#include "mvcc/version_store.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/modes.h"
#include "tm/outcome.h"
#include "tm/progress_guard.h"
#include "tm/telemetry.h"
#include "tm/worker_runtime.h"

namespace tufast {

/// Baseline scheduler: plain two-phase locking — TuFast's L mode applied
/// to *every* transaction regardless of size (paper Fig. 7 / Fig. 13 /
/// Fig. 14 comparison point "2PL"). Defaults to timeout-based deadlock
/// recovery: with millions of tiny transactions, per-acquire waits-for
/// bookkeeping would dominate the measurement (TuFast's own L mode keeps
/// full detection — its lock-mode transactions are rare and huge).
template <typename Htm, typename Telemetry = NullTelemetry>
class TwoPhaseLocking {
 public:
  using Mvcc = BasicMvccStore<HtmFailpoints<Htm>>;

  TwoPhaseLocking(Htm& htm, VertexId num_vertices,
                  DeadlockPolicy policy = DeadlockPolicy::kTimeout)
      : htm_(htm), num_vertices_(num_vertices),
        lock_table_(htm, num_vertices),
        lock_manager_(lock_table_, policy), runtime_(0x2b1u) {
    lock_manager_.SetProgressSignals(&progress_guard_.signals());
    if constexpr (Telemetry::kEnabled) {
      lock_manager_.SetVictimHook(
          [](void* ctx, int slot, VertexId /*v*/, bool cycle) {
            auto* self = static_cast<TwoPhaseLocking*>(ctx);
            if (auto* w = self->runtime_.worker(slot)) {
              w->telemetry.DeadlockVictim(cycle);
            }
          },
          this);
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(TwoPhaseLocking);

  template <typename Fn>
  RunOutcome Run(int worker_id, uint64_t /*size_hint*/, Fn&& fn) {
    Worker& w = runtime_.GetWorker(worker_id, *this);
    w.telemetry.TxnBegin();
    return RunLockTxnLoop<HtmFailpoints<Htm>>(
        w, w.state.ltxn, fn, TxnClass::kL,
        ProgressContext{&progress_guard_, worker_id, 0});
  }

  /// Attaches an MVCC version store (DESIGN.md "MVCC snapshot reads"):
  /// commits install pre-image versions and RunReadOnly() becomes an
  /// abort-free snapshot read. Call before the first transaction.
  void EnableMvcc() {
    if (mvcc_ == nullptr) mvcc_ = std::make_unique<Mvcc>(num_vertices_);
  }
  Mvcc* mvcc_store() { return mvcc_.get(); }

  /// Attaches a WAL sink (durability/wal.h): commits publish their
  /// staged mutations as checksummed records and Run() acks only after
  /// the group commit made them durable. Call before the first
  /// transaction.
  void EnableWal(WalSink* sink) { wal_sink_ = sink; }

  /// Read-only transaction: an abort-free snapshot read once EnableMvcc
  /// was called, an ordinary locking Run() otherwise.
  template <typename Fn>
  RunOutcome RunReadOnly(int worker_id, uint64_t size_hint, Fn&& fn) {
    if (mvcc_ == nullptr) return Run(worker_id, size_hint, fn);
    Worker& w = runtime_.GetWorker(worker_id, *this);
    return RunSnapshotReadOnly(*mvcc_, w, worker_id, fn);
  }

  /// Progress-guard introspection (starvation stress tests).
  ProgressGuard& progress_guard() { return progress_guard_; }

  SchedulerStats AggregatedStats() const { return runtime_.AggregatedStats(); }
  Telemetry AggregatedTelemetry() const {
    return runtime_.AggregatedTelemetry();
  }
  const Telemetry* TelemetryForWorker(int worker_id) const {
    return runtime_.TelemetryForWorker(worker_id);
  }
  void ResetStats() { runtime_.ResetStats(); }

 private:
  struct State {
    State(TwoPhaseLocking& parent, int slot)
        : ltxn(parent.htm_, slot, parent.lock_manager_) {
      if (parent.mvcc_ != nullptr) ltxn.SetMvcc(parent.mvcc_.get());
      if (parent.wal_sink_ != nullptr) {
        wal_recorder.SetSink(parent.wal_sink_);
        ltxn.SetWal(&wal_recorder);
      }
    }
    LTxn<Htm> ltxn;
    WalRecorder wal_recorder;
  };
  using Runtime = WorkerRuntime<State, Telemetry>;
  using Worker = typename Runtime::Worker;

  Htm& htm_;
  const VertexId num_vertices_;
  LockTable<Htm> lock_table_;
  LockManager<Htm> lock_manager_;
  std::unique_ptr<Mvcc> mvcc_;
  WalSink* wal_sink_ = nullptr;
  /// Same escalation ladder as TuFast's L mode: the baseline sees the
  /// identical per-transaction retry bound in the starvation stress.
  ProgressGuard progress_guard_;
  Runtime runtime_;
};

}  // namespace tufast

#endif  // TUFAST_TM_SCHEDULER_2PL_H_
