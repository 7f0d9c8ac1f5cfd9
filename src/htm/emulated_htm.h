#ifndef TUFAST_HTM_EMULATED_HTM_H_
#define TUFAST_HTM_EMULATED_HTM_H_

#include <sys/mman.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/compiler.h"
#include "common/failpoints.h"
#include "common/spin.h"
#include "htm/abort.h"
#include "htm/htm_config.h"

namespace tufast {

namespace htm_internal {

inline uint64_t NextPow2(uint64_t x) {
  return x <= 1 ? 1 : uint64_t{1} << (64 - std::countl_zero(x - 1));
}

inline uintptr_t LineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

}  // namespace htm_internal

/// Software emulation of Intel RTM with the semantics TuFast depends on:
///
///  * conflict detection at 64-byte cache-line granularity, asymmetric
///    ("requester wins"): touching a line inside another live transaction's
///    footprint dooms that transaction;
///  * buffered transactional writes, atomically published at commit;
///  * capacity aborts from a set-associative L1 model (HtmConfig);
///  * non-transactional stores abort transactions subscribed to the line —
///    the property that makes lock subscription (H/O mode) correct;
///  * Intel-style abort status (AbortStatus) with conflict/capacity/
///    explicit causes and a may-retry hint.
///
/// All shared state that transactions touch must be read/written through
/// Tx::Load / Tx::Store while inside Tx::Execute, and through
/// NonTxStore / NonTxLoad outside transactions. This matches the TuFast
/// programming model where every shared access goes through READ/WRITE.
///
/// Thread model: up to kMaxHtmThreads worker threads, each owning one
/// `Tx` handle constructed with a distinct slot id in [0, kMaxHtmThreads).
///
/// Serializability: every write conflict (W-R, R-W, W-W at line
/// granularity) dooms the transaction that would break serial order, and
/// a committing transaction re-checks its doomed flag at its commit point
/// (seq_cst), so two committed transactions can never both have observed
/// state that contradicts a serial order (see DESIGN.md for the argument).
///
/// `FailpointsT` is the fault-injection policy (common/failpoints.h):
/// NullFailpoints by default (zero cost — `EmulatedHtm` below), or
/// StressFailpoints for the deterministic stress harness (`FaultyHtm`,
/// src/testing/failpoints.h), which can synthesize conflict/capacity
/// aborts at chosen operation indices and perturb thread schedules.
template <typename FailpointsT = NullFailpoints>
class BasicEmulatedHtm {
 public:
  using Failpoints = FailpointsT;

  explicit BasicEmulatedHtm(HtmConfig config = {}) : config_(config) {
    TUFAST_CHECK(std::has_single_bit(config_.num_sets));
    TUFAST_CHECK(config_.num_ways >= 1);
    TUFAST_CHECK(config_.table_bits < 40);
    const uint64_t min_entries = uint64_t{1} << config_.table_bits;
    num_buckets_ = (min_entries + kEntriesPerBucket - 1) / kEntriesPerBucket;
    num_entries_ = num_buckets_ * kEntriesPerBucket;
    // Anonymous pages read as zero, which is every entry's empty state:
    // untouched pages never become resident, and the destructor gives
    // the whole table back to the OS (a heap array would stay in the
    // allocator once glibc's mmap threshold has risen).
    void* mem = mmap(nullptr, TableBytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    TUFAST_CHECK(mem != MAP_FAILED);
    table_ = static_cast<Bucket*>(mem);
  }
  ~BasicEmulatedHtm() { munmap(table_, TableBytes()); }
  TUFAST_DISALLOW_COPY_AND_MOVE(BasicEmulatedHtm);

  class Tx;

  const HtmConfig& config() const { return config_; }

  /// Non-transactional store visible to (and dooming) transactions that
  /// have the line in their footprint. Use for all shared writes made
  /// outside transactions (lock releases, O/L-mode commit writes).
  void NonTxStore(TmWord* addr, TmWord value) {
    const Entry e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      int writer = LockEntry(e);
      const int drain = ClearForeignOwners(e, &writer, /*self_slot=*/-1);
      if (drain < 0) {
        __atomic_store_n(addr, value, __ATOMIC_RELEASE);
        UnlockEntry(e, writer);
        return;
      }
      UnlockEntry(e, writer);
      // Wait for the committing owner to finish flushing.
      WaitForDrain(e, drain, backoff);
    }
  }

  /// Dooms transactions subscribed to addr's line without storing. Call
  /// after mutating a shared word through some other atomic operation
  /// (e.g. a lock-word CAS).
  void NotifyNonTxWrite(const void* addr) {
    const Entry e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      int writer = LockEntry(e);
      const int drain = ClearForeignOwners(e, &writer, /*self_slot=*/-1);
      UnlockEntry(e, writer);
      if (drain < 0) return;
      WaitForDrain(e, drain, backoff);
    }
  }

  /// Plain non-transactional load.
  static TmWord NonTxLoad(const TmWord* addr) {
    return __atomic_load_n(addr, __ATOMIC_ACQUIRE);
  }

  /// Non-transactional load that serializes with transactional WRITERS
  /// of addr's line: a writer past its commit point (it may already be
  /// flushing buffered values) is waited out so the load observes its
  /// write-back, and a writer before its commit point is doomed
  /// (requester-wins) so the value returned here can never be silently
  /// overwritten by an already-validated commit. Readers of the line are
  /// left untouched — this is the read-side counterpart of NonTxStore,
  /// for lock/metadata words that hardware paths write transactionally.
  /// The native backend uses a plain load (a real XEND is atomic; there
  /// is no window where a committed transaction is still flushing).
  TmWord DrainLoad(const TmWord* addr) {
    const Entry e = EntryFor(htm_internal::LineOf(addr));
    Backoff backoff;
    while (true) {
      const int writer = LockEntry(e);
      if (writer < 0 || !DoomMustWait(writer)) {
        // No writer, or one doomed before its commit point: its buffered
        // write can never land, so current memory is committed state.
        const TmWord value = __atomic_load_n(addr, __ATOMIC_ACQUIRE);
        UnlockEntry(e, writer);
        return value;
      }
      UnlockEntry(e, writer);
      // Committing writer: wait (yielding) for its write-back to drain.
      while (e.Writer(std::memory_order_acquire) == writer) backoff.Pause();
    }
  }

  /// Conflict-table geometry: at least 2^table_bits entries, packed
  /// kEntriesPerBucket to a cache line.
  static constexpr uint64_t kEntriesPerBucket = 7;
  uint64_t NumEntries() const { return num_entries_; }
  size_t TableBytes() const { return num_buckets_ * sizeof(Bucket); }

  /// Test seams: the entry `addr`'s line hashes to (bucket =
  /// index / kEntriesPerBucket), the table's base address, and one
  /// entry's state, read without taking its spin bit.
  struct EntryState {
    bool locked;
    int writer;  // -1 = none
    uint64_t readers;
  };
  uint64_t EntryIndexForTest(const void* addr) const {
    return EntryIndex(htm_internal::LineOf(addr));
  }
  const void* TableBaseForTest() const { return table_; }
  EntryState EntryStateForTest(uint64_t index) const {
    const Entry e = EntryAt(index);
    const uint8_t meta = e.meta().load(std::memory_order_acquire);
    return EntryState{(meta & kEntryLockBit) != 0, WriterOf(meta),
                      e.readers().load(std::memory_order_acquire)};
  }

 private:
  friend class Tx;

  /// The conflict table: each entry records which transaction slots have
  /// the (hashed) line in their read set (`readers`) and which single
  /// slot owns it for writing. An entry's `meta` byte packs its spin bit
  /// with the writer's slot + 1 (0 = no writer), so an all-zero entry is
  /// empty and a fresh anonymous mapping needs no initialization. Seven
  /// 9-byte entries fill one cache line, so an access still touches one
  /// line; critical sections under the spin bit are a few ns.
  static_assert(kMaxHtmThreads < 128, "writer slot + 1 must fit 7 bits");
  static constexpr uint8_t kEntryLockBit = 0x80;
  static constexpr uint8_t kWriterMask = 0x7f;

  /// Plain words, so mapped zero pages already hold valid buckets; every
  /// access goes through std::atomic_ref.
  struct alignas(kCacheLineBytes) Bucket {
    uint64_t readers[kEntriesPerBucket];
    uint8_t meta[kEntriesPerBucket];
  };
  static_assert(sizeof(Bucket) == kCacheLineBytes);

  /// Handle to one entry: its meta byte and reader bitmap.
  struct Entry {
    uint8_t* meta_byte;
    uint64_t* reader_bits;

    std::atomic_ref<uint8_t> meta() const {
      return std::atomic_ref<uint8_t>(*meta_byte);
    }
    std::atomic_ref<uint64_t> readers() const {
      return std::atomic_ref<uint64_t>(*reader_bits);
    }
    int Writer(std::memory_order order) const {
      return WriterOf(meta().load(order));
    }
  };

  static int WriterOf(uint8_t meta) {
    return static_cast<int>(meta & kWriterMask) - 1;
  }

  /// Per-worker doom flag plus commit-progress marker, padded to avoid
  /// false sharing between slots. `progress` and `doomed` form a Dekker
  /// pair (both seq_cst): a committing transaction publishes kCommitting
  /// before checking doomed, and a doomer dooms before checking progress,
  /// so at least one side observes the other — a doomer therefore only
  /// waits for writers that might already be flushing, and safely
  /// displaces ones that are guaranteed to abort.
  struct alignas(kCacheLineBytes) TxSlot {
    static constexpr uint8_t kActive = 0;
    static constexpr uint8_t kCommitting = 1;
    std::atomic<bool> doomed{false};
    std::atomic<uint8_t> progress{kActive};
  };

  /// Dooms `slot` and reports whether the caller must wait for its line
  /// ownership to drain (true) or may displace it immediately (false).
  bool DoomMustWait(int slot) {
    // Requester wins: doom the owner. If it already published kCommitting
    // it may be flushing its buffer, so the caller must wait for the
    // ownership to drain; otherwise the Dekker handshake guarantees it
    // will observe the doom at its commit point and abort, so it can be
    // displaced now.
    slots_[slot].doomed.store(true, std::memory_order_seq_cst);
    return slots_[slot].progress.load(std::memory_order_seq_cst) ==
           TxSlot::kCommitting;
  }

  /// Multiply-high maps the hash's well-mixed top bits onto
  /// [0, num_entries_) without a power-of-two entry count.
  uint64_t EntryIndex(uintptr_t line) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(HashLine(line)) * num_entries_) >> 64);
  }
  Entry EntryAt(uint64_t index) const {
    Bucket& b = table_[index / kEntriesPerBucket];
    const uint64_t lane = index % kEntriesPerBucket;
    return Entry{&b.meta[lane], &b.readers[lane]};
  }
  Entry EntryFor(uintptr_t line) const { return EntryAt(EntryIndex(line)); }

  static uint64_t HashLine(uintptr_t line) {
    uint64_t z = static_cast<uint64_t>(line) * 0x9e3779b97f4a7c15ULL;
    return z ^ (z >> 29);
  }

  /// Takes `e`'s spin bit and returns its writer slot (-1 = none).
  static int LockEntry(Entry e) {
    Backoff backoff;
    while (true) {
      const uint8_t meta =
          e.meta().fetch_or(kEntryLockBit, std::memory_order_acquire);
      if ((meta & kEntryLockBit) == 0) return WriterOf(meta);
      while (e.meta().load(std::memory_order_relaxed) & kEntryLockBit) {
        backoff.Pause();
      }
    }
  }
  /// Publishes `writer` (-1 = none) and drops the spin bit in one store.
  /// Contenders only ever set the already-set spin bit, so the holder
  /// owns the byte until this store.
  static void UnlockEntry(Entry e, int writer) {
    e.meta().store(static_cast<uint8_t>(writer + 1),
                   std::memory_order_release);
  }

  /// Dooms the writer (if foreign) and all foreign readers of a locked
  /// entry whose writer the caller holds in `*writer` (set to -1 when the
  /// writer is displaced). Returns -1 when the line is clear, or the slot
  /// of a foreign owner past its commit point that must drain first; the
  /// entry stays locked either way.
  ///
  /// A committing writer always drains first. A committing reader drains
  /// first only for a non-transactional requester (self_slot < 0): the
  /// reader is serialized before the plain write, but its own buffered
  /// writes to *other* lines may not be flushed yet, and the code after a
  /// lock-word CAS reads those lines with plain loads. Real XEND is
  /// atomic and has no such window. A transactional requester never
  /// needs to wait for a reader: its own writes stay buffered until it
  /// commits. Committing readers keep their bit either way, so a later
  /// non-transactional requester still finds them.
  int ClearForeignOwners(Entry e, int* writer, int self_slot) {
    if (*writer >= 0 && *writer != self_slot) {
      if (DoomMustWait(*writer)) return *writer;
      *writer = -1;  // Displace.
    }
    const uint64_t readers = e.readers().load(std::memory_order_relaxed);
    const uint64_t self_bit =
        self_slot >= 0 ? uint64_t{1} << self_slot : uint64_t{0};
    uint64_t keep = readers & self_bit;
    uint64_t foreign = readers & ~self_bit;
    while (foreign != 0) {
      const int slot = std::countr_zero(foreign);
      if (DoomMustWait(slot)) {
        if (self_slot < 0) return slot;
        keep |= uint64_t{1} << slot;
      }
      foreign &= foreign - 1;
    }
    e.readers().store(keep, std::memory_order_relaxed);
    return -1;
  }

  /// Waits (yielding) until `slot` no longer owns `e` past its commit
  /// point: it released the line (committed or aborted) or began anew.
  /// The caller then re-locks the entry, which orders the slot's flush
  /// before anything the caller does next.
  void WaitForDrain(Entry e, int slot, Backoff& backoff) {
    const uint64_t bit = uint64_t{1} << slot;
    while ((e.Writer(std::memory_order_acquire) == slot ||
            (e.readers().load(std::memory_order_acquire) & bit) != 0) &&
           slots_[slot].progress.load(std::memory_order_seq_cst) ==
               TxSlot::kCommitting) {
      backoff.Pause();
    }
  }

  HtmConfig config_;
  uint64_t num_buckets_;
  uint64_t num_entries_;
  Bucket* table_;
  TxSlot slots_[kMaxHtmThreads];
};

/// Per-thread transaction handle. Reusable across transactions; all
/// buffers are pre-allocated at construction, the hot path is
/// allocation-free.
template <typename FailpointsT>
class BasicEmulatedHtm<FailpointsT>::Tx {
 public:
  /// `slot` must be unique among concurrently active Tx handles.
  Tx(BasicEmulatedHtm& htm, int slot) : htm_(htm), slot_(slot) {
    TUFAST_CHECK(slot >= 0 && slot < kMaxHtmThreads);
    const HtmConfig& cfg = htm_.config_;
    const uint64_t rec_cap =
        htm_internal::NextPow2(uint64_t{cfg.MaxLines()} * 4);
    rec_mask_ = rec_cap - 1;
    rec_keys_.assign(rec_cap, kEmptyKey);
    rec_index_.assign(rec_cap, 0);
    rec_store_.reserve(cfg.MaxLines() + 1);
    rec_list_.reserve(cfg.MaxLines() + 1);
    set_counts_.assign(cfg.num_sets, 0);
    const uint64_t wb_cap =
        htm_internal::NextPow2(uint64_t{cfg.MaxLines()} * 16);
    wb_mask_ = wb_cap - 1;
    wb_keys_.assign(wb_cap, kEmptyKey);
    wb_vals_.assign(wb_cap, 0);
    wb_list_.reserve(cfg.MaxLines() * 8);
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(Tx);

  /// Two-phase commit hook (MVCC version installation). `pre_publish`
  /// runs once the commit is guaranteed (doom check passed) but before
  /// the write-back buffer is flushed — live memory still holds the
  /// pre-images of every written word; `post_publish` runs after the
  /// flush while line ownership is still held; `on_begin` runs at every
  /// (re)begin, including segment boundaries, so per-attempt recorder
  /// state can be reset. Hooks must not throw. Null members are skipped,
  /// and the default (all null) leaves Commit() bit-identical.
  struct Hooks {
    void (*on_begin)(void* ctx) = nullptr;
    void (*pre_publish)(void* ctx) = nullptr;
    void (*post_publish)(void* ctx) = nullptr;
    void* ctx = nullptr;
  };
  void SetHooks(const Hooks& hooks) { hooks_ = hooks; }

  /// Runs `body` as one hardware transaction: either it commits (returns
  /// Ok) or the body's effects are discarded and the abort status is
  /// returned. `body` may only touch shared state via Load/Store and may
  /// be re-executed by callers; it must be idempotent on private state.
  template <typename Body>
  AbortStatus Execute(Body&& body) {
    Begin();
    try {
      body();
      Commit();
      return AbortStatus::Ok();
    } catch (const TxAbortSignal& signal) {
      return signal.status;
    } catch (...) {
      // Foreign (user) exception unwinding through an active hardware
      // transaction: discard the speculative state exactly like an abort
      // before propagating — leaking the line ownerships would doom or
      // deadlock every later transaction touching those lines. Mirrors
      // real HTM, where any trap/exception aborts the transaction.
      if (active_) {
        ReleaseAndReset();
        active_ = false;
        stats_.RecordAbort(AbortStatus::Other());
      }
      throw;
    }
  }

  /// Transactional load of one shared word. Only valid inside Execute.
  TmWord Load(const TmWord* addr) {
    TUFAST_CHECK(active_);
    CheckDoom();
    if constexpr (Failpoints::kEnabled) {
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmLoad, slot_));
    }
    const uintptr_t line = htm_internal::LineOf(addr);
    Record& rec = FindOrInsertRecord(line);
    if ((rec.flags & (kReadFlag | kWriteFlag)) == 0) {
      AcquireForRead(htm_.EntryFor(line));
      rec.flags |= kReadFlag;
    }
    if (rec.flags & kWriteFlag) {
      if (const TmWord* buffered =
              WriteBufferFind(reinterpret_cast<uintptr_t>(addr))) {
        return *buffered;
      }
    }
    return __atomic_load_n(addr, __ATOMIC_ACQUIRE);
  }

  /// Transactional (buffered) store of one shared word.
  void Store(TmWord* addr, TmWord value) {
    TUFAST_CHECK(active_);
    CheckDoom();
    if constexpr (Failpoints::kEnabled) {
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmStore, slot_));
    }
    const uintptr_t line = htm_internal::LineOf(addr);
    Record& rec = FindOrInsertRecord(line);
    if ((rec.flags & kWriteFlag) == 0) {
      AcquireForWrite(htm_.EntryFor(line));
      rec.flags |= kWriteFlag;
    }
    WriteBufferPut(reinterpret_cast<uintptr_t>(addr), value);
  }

  /// Commits the current hardware transaction and immediately starts a
  /// new one. Used by O mode every `period` operations (paper Fig. 9).
  /// Read/write subscriptions of the finished segment are released.
  void SegmentBoundary() {
    Commit();  // Throws TxAbortSignal if this segment was doomed.
    Begin();
  }

  /// Aborts with AbortCause::kExplicit carrying `kCode`. Does not return.
  /// (Template mirrors native XABORT, whose code is an immediate.)
  template <uint8_t kCode>
  [[noreturn]] void ExplicitAbort() {
    DoExplicitAbort(kCode);
  }

  bool InTx() const { return active_; }
  int slot() const { return slot_; }
  const HtmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = HtmStats{}; }

  /// Distinct cache lines touched by the current transaction so far.
  uint32_t FootprintLines() const {
    return static_cast<uint32_t>(rec_list_.size());
  }

 private:
  struct Record {
    uintptr_t line;
    uint8_t flags;  // kReadFlag | kWriteFlag
  };
  static constexpr uint8_t kReadFlag = 1;
  static constexpr uint8_t kWriteFlag = 2;
  static constexpr uintptr_t kEmptyKey = ~uintptr_t{0};

  void Begin() {
    TUFAST_CHECK(!active_);
    htm_.slots_[slot_].progress.store(TxSlot::kActive,
                                      std::memory_order_seq_cst);
    htm_.slots_[slot_].doomed.store(false, std::memory_order_seq_cst);
    active_ = true;
    ++stats_.begins;
    if (TUFAST_UNLIKELY(hooks_.on_begin != nullptr)) {
      hooks_.on_begin(hooks_.ctx);
    }
  }

  void Commit() {
    TUFAST_CHECK(active_);
    if constexpr (Failpoints::kEnabled) {
      // Injected before the commit point: models a conflict that dooms us
      // in the window between the body's last access and XEND.
      InterpretHtmAction(Failpoints::Hit(FailSite::kHtmCommit, slot_));
    }
    // Commit point: publish kCommitting *before* checking doomed (Dekker
    // handshake with DoomMustWait). Any doom sequenced before the
    // check forces an abort; a doom after it means the conflicting
    // transaction either waits for our flush (writers) or serializes
    // after us (readers). See DESIGN.md.
    htm_.slots_[slot_].progress.store(TxSlot::kCommitting,
                                      std::memory_order_seq_cst);
    if (htm_.slots_[slot_].doomed.load(std::memory_order_seq_cst)) {
      ThrowAbort(AbortStatus::Conflict());
    }
    // The commit is now guaranteed; live memory still holds pre-images.
    if (TUFAST_UNLIKELY(hooks_.pre_publish != nullptr)) {
      hooks_.pre_publish(hooks_.ctx);
    }
    // Publish buffered writes. All written lines are exclusively owned,
    // and conflicting accessors wait for ownership to drain, so this is
    // atomic with respect to every transactional reader.
    for (uint32_t pos : wb_list_) {
      __atomic_store_n(reinterpret_cast<TmWord*>(wb_keys_[pos]),
                       wb_vals_[pos], __ATOMIC_RELEASE);
    }
    if (TUFAST_UNLIKELY(hooks_.post_publish != nullptr)) {
      hooks_.post_publish(hooks_.ctx);
    }
    ReleaseAndReset();
    active_ = false;
    ++stats_.commits;
  }

  [[noreturn]] void DoExplicitAbort(uint8_t code) {
    TUFAST_CHECK(active_);
    ThrowAbort(AbortStatus::Explicit(code));
  }

  [[noreturn]] void ThrowAbort(AbortStatus status) {
    ReleaseAndReset();
    active_ = false;
    stats_.RecordAbort(status);
    throw TxAbortSignal{status};
  }

  void ReleaseAndReset() {
    for (uint32_t key_pos : rec_list_) {
      const Record& rec = rec_store_[rec_index_[key_pos]];
      const Entry e = htm_.EntryFor(rec.line);
      int writer = LockEntry(e);
      if ((rec.flags & kWriteFlag) && writer == slot_) writer = -1;
      if (rec.flags & kReadFlag) {
        e.readers().fetch_and(~(uint64_t{1} << slot_),
                              std::memory_order_relaxed);
      }
      UnlockEntry(e, writer);
      rec_keys_[key_pos] = kEmptyKey;
      set_counts_[rec.line & (htm_.config_.num_sets - 1)] = 0;
    }
    // set_counts_ entries were zeroed above only for touched sets;
    // decrement semantics are unnecessary because we fully reset per
    // transaction.
    rec_list_.clear();
    rec_store_.clear();
    for (uint32_t pos : wb_list_) wb_keys_[pos] = kEmptyKey;
    wb_list_.clear();
  }

  /// Throws on doom (conflict) — the emulated equivalent of the hardware
  /// asynchronously aborting us.
  void CheckDoom() {
    if (TUFAST_UNLIKELY(
            htm_.slots_[slot_].doomed.load(std::memory_order_seq_cst))) {
      ThrowAbort(AbortStatus::Conflict());
    }
  }

  /// Maps an injected failpoint action onto the hardware abort it models.
  void InterpretHtmAction(FailAction action) {
    switch (action) {
      case FailAction::kAbortConflict:
        ThrowAbort(AbortStatus::Conflict());
      case FailAction::kAbortCapacity:
        ThrowAbort(AbortStatus::Capacity());
      default:
        break;
    }
  }

  Record& FindOrInsertRecord(uintptr_t line) {
    uint64_t pos = HashLine(line) & rec_mask_;
    while (true) {
      const uintptr_t key = rec_keys_[pos];
      if (key == line) return rec_store_[rec_index_[pos]];
      if (key == kEmptyKey) break;
      pos = (pos + 1) & rec_mask_;
    }
    // New line: charge it against the modeled L1 set before admitting it.
    const HtmConfig& cfg = htm_.config_;
    const uint32_t set = static_cast<uint32_t>(line) & (cfg.num_sets - 1);
    if (TUFAST_UNLIKELY(set_counts_[set] >= cfg.num_ways)) {
      ThrowAbort(AbortStatus::Capacity());
    }
    ++set_counts_[set];
    rec_keys_[pos] = line;
    rec_index_[pos] = static_cast<uint32_t>(rec_store_.size());
    rec_store_.push_back(Record{line, 0});
    rec_list_.push_back(static_cast<uint32_t>(pos));
    return rec_store_.back();
  }

  void AcquireForRead(Entry entry) {
    Backoff backoff;
    uint32_t spins = 0;
    while (true) {
      const int writer = LockEntry(entry);
      if (writer < 0 || writer == slot_ || !htm_.DoomMustWait(writer)) {
        entry.readers().fetch_or(uint64_t{1} << slot_,
                                 std::memory_order_relaxed);
        // A foreign writer doomed before its commit point is displaced.
        UnlockEntry(entry, writer == slot_ ? writer : -1);
        return;
      }
      UnlockEntry(entry, writer);
      while (entry.Writer(std::memory_order_acquire) == writer) {
        CheckDoom();
        if (++spins > htm_.config_.max_conflict_spins) {
          ThrowAbort(AbortStatus::Conflict());
        }
        backoff.Pause();
      }
    }
  }

  void AcquireForWrite(Entry entry) {
    Backoff backoff;
    uint32_t spins = 0;
    while (true) {
      int writer = LockEntry(entry);
      const int drain = htm_.ClearForeignOwners(entry, &writer, slot_);
      if (drain < 0) {
        UnlockEntry(entry, slot_);
        return;
      }
      UnlockEntry(entry, writer);
      while (entry.Writer(std::memory_order_acquire) == drain) {
        CheckDoom();
        if (++spins > htm_.config_.max_conflict_spins) {
          ThrowAbort(AbortStatus::Conflict());
        }
        backoff.Pause();
      }
    }
  }

  TmWord* WriteBufferFind(uintptr_t word_addr) {
    uint64_t pos = HashLine(word_addr) & wb_mask_;
    while (true) {
      const uintptr_t key = wb_keys_[pos];
      if (key == word_addr) return &wb_vals_[pos];
      if (key == kEmptyKey) return nullptr;
      pos = (pos + 1) & wb_mask_;
    }
  }

  void WriteBufferPut(uintptr_t word_addr, TmWord value) {
    uint64_t pos = HashLine(word_addr) & wb_mask_;
    while (true) {
      const uintptr_t key = wb_keys_[pos];
      if (key == word_addr) {
        wb_vals_[pos] = value;
        return;
      }
      if (key == kEmptyKey) {
        wb_keys_[pos] = word_addr;
        wb_vals_[pos] = value;
        wb_list_.push_back(static_cast<uint32_t>(pos));
        return;
      }
      pos = (pos + 1) & wb_mask_;
    }
  }

  BasicEmulatedHtm& htm_;
  const int slot_;
  bool active_ = false;
  HtmStats stats_;
  Hooks hooks_;

  // Open-addressed line-record map (line id -> index into rec_store_).
  std::vector<uintptr_t> rec_keys_;
  std::vector<uint32_t> rec_index_;
  std::vector<Record> rec_store_;
  std::vector<uint32_t> rec_list_;  // used key-slot positions, for reset
  uint64_t rec_mask_;

  // Modeled L1: distinct lines currently mapped into each set.
  std::vector<uint16_t> set_counts_;

  // Word-granularity write buffer (open-addressed).
  std::vector<uintptr_t> wb_keys_;
  std::vector<TmWord> wb_vals_;
  std::vector<uint32_t> wb_list_;
  uint64_t wb_mask_;
};

/// The production instantiation: no failpoints, zero instrumentation
/// cost. Pre-instantiated in emulated_htm.cc so most translation units
/// only pay for the template once.
using EmulatedHtm = BasicEmulatedHtm<NullFailpoints>;

extern template class BasicEmulatedHtm<NullFailpoints>;

}  // namespace tufast

#endif  // TUFAST_HTM_EMULATED_HTM_H_
