#ifndef TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_
#define TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/compiler.h"
#include "common/spin.h"
#include "common/types.h"
#include "graph/builder.h"
#include "graph/dynamic/edge_update.h"
#include "graph/graph.h"
#include "htm/htm_config.h"
#include "tm/batch_executor.h"
#include "tm/outcome.h"

namespace tufast {

/// One vertex's adjacency as observed by a single committed transaction:
/// the degree counter and every live slot, read atomically together.
struct VertexSnapshot {
  TmWord degree = 0;
  std::vector<std::pair<VertexId, uint32_t>> edges;
};

/// Mutable, concurrently-updatable directed graph whose every structural
/// mutation is one TuFast transaction (DESIGN.md "Dynamic-graph
/// subsystem").
///
/// Layout: per-vertex unrolled adjacency lists. Each block is exactly one
/// cache line — a `next` link word plus kSlotsPerBlock edge slots — so a
/// low-degree insert/delete touches O(1) lines and fits H mode. Slots
/// pack (target, weight) into one TmWord; deletes tombstone the slot in
/// place and later inserts reuse tombstones. Blocks live in a chunked
/// arena addressed by index (never by raw pointer), are never freed or
/// recycled while transactions run, and `next` words are write-once
/// (0 -> index), so a concurrent traversal can never follow a dangling or
/// cyclic chain even from a doomed optimistic read.
///
/// Concurrency contract: all words of vertex u (head, degree, every slot
/// of its chain) are guarded by u's lock in the shared per-vertex
/// LockTable, i.e. every transactional access passes `u` as the lock
/// vertex. A mutation therefore locks exactly one vertex, declares write
/// intent up front (ReadForUpdate), and can never deadlock — safe under
/// all three deadlock policies, including kPrevention's no-upgrade
/// contract. Read-only snapshots take shared mode only.
///
/// The live degree counter doubles as the `size_hint` source for
/// TuFast::Run() (SizeHintFor): low-degree vertices route to H, hubs to
/// O/L, exactly the paper's §IV degree heuristic applied to writes.
///
/// Quiesced-only operations (Freeze, LoadCsrQuiesced, CompactQuiesced,
/// TotalLiveEdges, CheckInvariantsQuiesced) require that no transaction
/// is in flight; they scan or rebuild without instrumentation.
class DynamicGraph {
 public:
  static constexpr int kSlotsPerBlock = 7;

  struct Options {
    /// Weighted graphs store and Freeze() per-edge weights; unweighted
    /// ones ignore the weight operand everywhere.
    bool weighted = false;
  };

  explicit DynamicGraph(VertexId capacity)
      : DynamicGraph(capacity, Options{}) {}
  DynamicGraph(VertexId capacity, Options options);
  ~DynamicGraph();
  TUFAST_DISALLOW_COPY_AND_MOVE(DynamicGraph);

  /// Builds a dynamic store pre-loaded from an immutable CSR (quiesced
  /// bulk load, no transactions). Duplicate (u, v) edges in the source
  /// collapse to one slot keeping the first weight; capacity is
  /// `g.NumVertices() + extra_capacity` to leave room for AddVertex.
  static std::unique_ptr<DynamicGraph> FromCsr(const Graph& g,
                                               VertexId extra_capacity = 0);

  VertexId capacity() const { return capacity_; }
  VertexId NumVertices() const {
    return num_vertices_.load(std::memory_order_acquire);
  }
  bool HasWeights() const { return weighted_; }

  /// Racy (relaxed) live degree — the Run() size-hint source. Exact only
  /// when quiesced.
  uint32_t ApproxDegree(VertexId v) const {
    return static_cast<uint32_t>(
        __atomic_load_n(&degree_[v], __ATOMIC_RELAXED));
  }

  /// Degree-derived transaction size hint: a mutation scans every slot of
  /// the chain (live + tombstones) plus the link/degree words, so the
  /// live degree is the cheap lower bound that routes hub-vertex
  /// mutations out of H mode (paper §IV degree heuristic).
  uint64_t SizeHintFor(VertexId v) const {
    return uint64_t{ApproxDegree(v)} + kSlotsPerBlock + 2;
  }

  /// Sum of all degree counters. Exact when quiesced; racy otherwise.
  uint64_t TotalLiveEdges() const;

  /// Arena introspection (tests: tombstone reuse, compaction).
  uint64_t AllocatedBlocks() const {
    return allocated_blocks_.load(std::memory_order_acquire);
  }
  uint64_t FreeListBlocks() const;

  // -------------------------------------------------------------------
  // Transactional mutation API. Every call is one (or, for ApplyBatch,
  // one per source-vertex group) scheduler transaction; `worker` is the
  // caller's worker slot, `tm` any scheduler with the Run(worker, hint,
  // body) shape (TuFast or any baseline).

  /// Inserts edge (u, v). Returns true if the edge is new; if it already
  /// exists this is an upsert (weight rewritten on weighted graphs) and
  /// returns false.
  template <typename Scheduler>
  bool InsertEdge(Scheduler& tm, int worker, VertexId u, VertexId v,
                  uint32_t weight = 0) {
    const EdgeUpdate up = EdgeUpdate::Insert(u, v, weight);
    ApplyResult result;
    ApplyGroup(tm, worker, {&up, 1}, &result);
    return result.inserted == 1;
  }

  /// Deletes edge (u, v). Returns true if it was present.
  template <typename Scheduler>
  bool DeleteEdge(Scheduler& tm, int worker, VertexId u, VertexId v) {
    const EdgeUpdate up = EdgeUpdate::Delete(u, v);
    ApplyResult result;
    ApplyGroup(tm, worker, {&up, 1}, &result);
    return result.removed == 1;
  }

  /// Rewrites the weight of an existing edge; never inserts. Returns true
  /// if the edge was present.
  template <typename Scheduler>
  bool UpdateWeight(Scheduler& tm, int worker, VertexId u, VertexId v,
                    uint32_t weight) {
    const EdgeUpdate up = EdgeUpdate::Reweight(u, v, weight);
    ApplyResult result;
    ApplyGroup(tm, worker, {&up, 1}, &result);
    return result.updated == 1;
  }

  /// Appends a fresh vertex (empty adjacency) and returns its id. The id
  /// is claimed atomically; the transaction formalizes the (already
  /// zeroed) per-vertex words so the new vertex is born under TM
  /// visibility rules.
  template <typename Scheduler>
  VertexId AddVertex(Scheduler& tm, int worker) {
    const VertexId id = num_vertices_.fetch_add(1, std::memory_order_acq_rel);
    TUFAST_CHECK(id < capacity_);
    tm.Run(worker, 2, [&](auto& txn) {
      txn.Write(id, &heads_[id], 0);
      txn.Write(id, &degree_[id], 0);
    });
    return id;
  }

  /// Applies a batch of mixed updates, grouping them by source vertex so
  /// each group is ONE transaction that walks the vertex's chain once for
  /// all of its updates (amortizing Run() overhead, lock traffic and the
  /// hub-chain scan across a vertex's updates). Groups preserve the
  /// relative order of a vertex's updates and produce exactly what
  /// applying them one at a time would; cross-vertex order is not
  /// preserved (each group commits independently). Groups run through
  /// the batch executor (tm/batch_executor.h), so on TuFast several small
  /// groups fuse into one H-mode region; per-group private state (spares,
  /// walk state, tallies) keeps each group independently idempotent as
  /// the fused contract requires.
  template <typename Scheduler>
  ApplyResult ApplyBatch(Scheduler& tm, int worker,
                         std::span<const EdgeUpdate> updates) {
    ApplyResult result;
    if (updates.empty()) return result;
    // Stable order-by-source keeps each vertex's update order intact.
    std::vector<EdgeUpdate> sorted(updates.begin(), updates.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const EdgeUpdate& a, const EdgeUpdate& b) {
                       return a.src < b.src;
                     });
    std::vector<GroupCtx> groups;
    groups.reserve(sorted.size());
    for (size_t i = 0; i < sorted.size();) {
      size_t end = i + 1;
      while (end < sorted.size() && sorted[end].src == sorted[i].src) ++end;
      PrepareGroup(std::span<const EdgeUpdate>(sorted).subspan(i, end - i),
                   &groups.emplace_back());
      i = end;
    }
    RunBatch(
        tm, worker, 0, groups.size(),
        [&](uint64_t g) {
          return SizeHintFor(groups[g].u) + 2 * groups[g].updates.size();
        },
        [&](auto& txn, uint64_t g) { ApplyGroupInTxn(txn, groups[g]); });
    // RunBatch only returns after every group committed (no user aborts
    // here), so the private tallies reflect the committed executions.
    for (GroupCtx& ctx : groups) FinishGroup(ctx, &result);
    return result;
  }

  /// Walks vertex u's adjacency chain inside an already-open transaction
  /// (or MVCC snapshot) context, invoking `visit(target, weight)` for
  /// every live slot. Returns false iff the walk was cut short — the
  /// chain outran `bound` or a link pointed at an unpublished block.
  /// On a consistent read that means the bound itself was stale (the
  /// arena grew since it was computed), never a real cycle: links are
  /// write-once and blocks are not recycled while transactions run. On a
  /// doomed optimistic read the dangling values are garbage and commit
  /// will fail anyway.
  template <typename Txn, typename Visitor>
  bool VisitAdjacencyInTxn(Txn& txn, VertexId u, uint64_t bound,
                           Visitor&& visit) const {
    TmWord link = txn.Read(u, &heads_[u]);
    uint64_t steps = 0;
    while (link != 0) {
      if (steps++ >= bound) return false;
      const Block* b = BlockAt(link - 1);
      if (b == nullptr) return false;
      for (int s = 0; s < kSlotsPerBlock; ++s) {
        const TmWord sw = txn.Read(u, &b->slots[s]);
        if (SlotLive(sw)) visit(SlotTarget(sw), SlotWeight(sw));
      }
      link = txn.Read(u, &b->next);
    }
    return true;
  }

  /// Reads one vertex's degree counter and live adjacency in a single
  /// transaction (shared mode only — never blocks writers into upgrade
  /// deadlocks). The committed snapshot is per-vertex atomic: the stress
  /// suite checks `out->degree == out->edges.size()` and target
  /// uniqueness against it.
  ///
  /// A truncated walk must never surface as success: if the transaction
  /// COMMITTED but the chain outran the traversal bound, the reads were
  /// provably consistent (validation passed), so the bound was stale —
  /// the walk is retried with a widened bound instead of silently
  /// returning partial edges. Doomed-read garbage never reaches the
  /// caller because those transactions fail validation and re-execute.
  template <typename Scheduler>
  RunOutcome ReadVertexSnapshot(Scheduler& tm, int worker, VertexId u,
                                VertexSnapshot* out) const {
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = false;
      RunOutcome rc = tm.Run(worker, SizeHintFor(u), [&](auto& txn) {
        out->edges.clear();
        out->degree = txn.Read(u, &degree_[u]);
        complete = VisitAdjacencyInTxn(
            txn, u, TraversalBound() + slack, [&](VertexId t, uint32_t w) {
              out->edges.emplace_back(t, w);
            });
      });
      if (!rc.committed || complete) return rc;
      // A consistent chain is never longer than the arena, so a fresh
      // bound + doubling slack must terminate; the cap is a backstop.
      TUFAST_CHECK(attempt < 64);
      slack = slack == 0 ? TraversalBound() : slack * 2;
    }
  }

  /// Read-only variant running under Scheduler::RunReadOnly: with MVCC
  /// enabled it resolves every word against one commit-timestamp
  /// snapshot and can never abort; without MVCC it degrades to
  /// ReadVertexSnapshot semantics through an ordinary transaction.
  template <typename Scheduler>
  RunOutcome ReadVertexSnapshotRO(Scheduler& tm, int worker, VertexId u,
                                  VertexSnapshot* out) const {
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = false;
      RunOutcome rc = tm.RunReadOnly(worker, SizeHintFor(u), [&](auto& txn) {
        out->edges.clear();
        out->degree = txn.Read(u, &degree_[u]);
        complete = VisitAdjacencyInTxn(
            txn, u, TraversalBound() + slack, [&](VertexId t, uint32_t w) {
              out->edges.emplace_back(t, w);
            });
      });
      if (!rc.committed || complete) return rc;
      TUFAST_CHECK(attempt < 64);
      slack = slack == 0 ? TraversalBound() : slack * 2;
    }
  }

  /// Transactionally frozen CSR: one read-only transaction scans every
  /// vertex, so with MVCC enabled this is a globally consistent cut of a
  /// LIVE graph (writers keep committing; the snapshot can never abort
  /// them or be aborted). Without MVCC the scan is one giant transaction
  /// — correct, but it serializes against every writer; prefer quiescing
  /// + Freeze() there. Neighbors come out sorted like Freeze().
  template <typename Scheduler>
  Graph FreezeSnapshotRO(Scheduler& tm, int worker) const {
    const VertexId n = NumVertices();
    std::vector<std::vector<std::pair<VertexId, uint32_t>>> adj;
    const uint64_t hint = TotalLiveEdges() + 2 * uint64_t{n} + 2;
    uint64_t slack = 0;
    for (int attempt = 0;; ++attempt) {
      bool complete = true;
      RunOutcome rc = tm.RunReadOnly(worker, hint, [&](auto& txn) {
        adj.assign(n, {});
        complete = true;
        const uint64_t bound = TraversalBound() + slack;
        for (VertexId u = 0; u < n && complete; ++u) {
          complete = VisitAdjacencyInTxn(
              txn, u, bound, [&](VertexId t, uint32_t w) {
                adj[u].emplace_back(t, w);
              });
        }
      });
      if (rc.committed && complete) break;
      TUFAST_CHECK(attempt < 64);
      if (rc.committed) slack = slack == 0 ? TraversalBound() : slack * 2;
    }
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (const auto& [target, weight] : adj[u]) {
        if (weighted_) {
          builder.AddEdge(u, target, weight);
        } else {
          builder.AddEdge(u, target);
        }
      }
    }
    return builder.Build({.remove_self_loops = false,
                          .remove_duplicate_edges = false,
                          .sort_neighbors = true});
  }

  // -------------------------------------------------------------------
  // Quiesced operations (no transactions may be in flight).

  /// Immutable CSR snapshot: the existing algorithm suite and engines run
  /// on it unchanged. Neighbors come out sorted by target; weights are
  /// emitted iff the graph is weighted.
  Graph Freeze() const;

  /// Bulk-replaces the contents from a CSR (see FromCsr).
  void LoadCsrQuiesced(const Graph& g);

  /// Rebuilds every adjacency chain without tombstones or slack blocks
  /// and resets the arena — the reclamation pass for delete-heavy
  /// streams. Degrees and the frozen view are unchanged.
  void CompactQuiesced();

  /// Structural audit: degree counters match live-slot counts, no
  /// duplicate targets, chains are in-range and acyclic. Returns a
  /// violation description, or nullopt when consistent.
  std::optional<std::string> CheckInvariantsQuiesced() const;

  /// Applies one update without any transaction machinery (quiesced
  /// bulk path): WAL recovery replays committed records through this so
  /// the rebuild neither takes locks nor re-logs.
  void ApplyQuiescedUpdate(const EdgeUpdate& up, ApplyResult* res = nullptr);

  /// Grows the live-vertex count to at least `n` (quiesced), formalizing
  /// the zeroed per-vertex words like AddVertex does transactionally.
  void EnsureVerticesQuiesced(VertexId n);

 private:
  /// One cache line: a link word (block index + 1, 0 = end of chain)
  /// followed by kSlotsPerBlock edge slots.
  struct alignas(kCacheLineBytes) Block {
    TmWord next;
    TmWord slots[kSlotsPerBlock];
  };
  static_assert(sizeof(Block) == kCacheLineBytes);

  static constexpr uint64_t kBlocksPerChunk = 4096;
  static constexpr uint64_t kMaxChunks = 16384;

  // Slot encoding: 0 = never used, low-32 all-ones = tombstone, else
  // low 32 bits = target + 1 and high 32 bits = weight. Capacity is
  // checked at construction so target + 1 never collides with the
  // tombstone pattern.
  static constexpr TmWord kTombstoneSlot = 0xFFFFFFFFull;
  static TmWord EncodeSlot(VertexId target, uint32_t weight) {
    return (TmWord{weight} << 32) | (TmWord{target} + 1);
  }
  static bool SlotLive(TmWord sw) {
    const uint32_t low = static_cast<uint32_t>(sw);
    return low != 0 && low != 0xFFFFFFFFu;
  }
  static VertexId SlotTarget(TmWord sw) {
    return static_cast<VertexId>(static_cast<uint32_t>(sw) - 1);
  }
  static uint32_t SlotWeight(TmWord sw) {
    return static_cast<uint32_t>(sw >> 32);
  }

  Block* BlockAt(uint64_t idx) {
    if (TUFAST_UNLIKELY(idx >= kMaxChunks * kBlocksPerChunk)) return nullptr;
    Block* chunk =
        chunks_[idx / kBlocksPerChunk].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : chunk + idx % kBlocksPerChunk;
  }
  const Block* BlockAt(uint64_t idx) const {
    return const_cast<DynamicGraph*>(this)->BlockAt(idx);
  }

 public:
  /// Upper bound on any consistent chain length, used to cut short
  /// traversals running on doomed (to-be-aborted) optimistic reads.
  /// Public so external chain walkers (VisitAdjacencyInTxn callers) can
  /// compute the bound themselves.
  uint64_t TraversalBound() const {
    const uint64_t forced =
        forced_traversal_bound_.load(std::memory_order_relaxed);
    if (TUFAST_UNLIKELY(forced != 0)) return forced;
    return allocated_blocks_.load(std::memory_order_acquire) + 2;
  }

 public:
  /// Test seam: forces TraversalBound() to `bound` (0 restores the real
  /// arena-derived bound). Lets the regression suite exercise the
  /// chain-outruns-bound path, which a fresh bound can otherwise never
  /// hit on a consistent read.
  void SetTraversalBoundForTest(uint64_t bound) {
    forced_traversal_bound_.store(bound, std::memory_order_relaxed);
  }

 private:

  /// Pops from the free list or bump-allocates (growing the arena by one
  /// zeroed chunk when crossed). Returned blocks are always all-zero.
  uint64_t AllocateBlock();
  void GrabSpares(size_t count, std::vector<uint64_t>* out);
  void ReturnSpares(std::span<const uint64_t> spares);

  /// Non-transactional chain writer for bulk load / compaction. `edges`
  /// must be duplicate-free.
  void WriteChainQuiesced(VertexId u,
                          std::span<const std::pair<VertexId, uint32_t>> edges);
  void ResetArenaQuiesced();
  void CollectLiveQuiesced(
      VertexId u, std::vector<std::pair<VertexId, uint32_t>>* out) const;

  /// Walk state of one group's distinct destination: the live slot
  /// holding it (nullptr = absent) with its word and chain position.
  struct Target {
    VertexId dst = 0;
    TmWord* slot = nullptr;
    TmWord word = 0;
    uint64_t pos = 0;
  };
  /// A dead (empty or tombstoned) slot an insert may fill, keyed by its
  /// chain position: inserts always take the earliest one, as a
  /// head-to-tail scan would.
  struct FreeSlot {
    uint64_t pos;
    TmWord* slot;
    bool operator>(const FreeSlot& o) const { return pos > o.pos; }
  };

  /// One source-vertex group's private state. Everything is sized by the
  /// group's update count k (never by degree) and allocated by
  /// PrepareGroup before the transaction: allocation inside a hardware
  /// region would abort real HTM. ApplyGroupInTxn resets the per-attempt
  /// parts, so bodies are idempotent across re-executions; unconsumed
  /// spares return to the free list still zeroed because every scheduler
  /// buffers writes until commit.
  struct GroupCtx {
    VertexId u = 0;
    std::span<const EdgeUpdate> updates;
    std::vector<Target> targets;      // distinct dsts, sorted by dst
    uint64_t dst_bits = 0;            // bit (dst & 63) set per target
    std::vector<FreeSlot> free;       // min-heap on pos; capacity reserved
    size_t inserts = 0;
    std::vector<uint64_t> spares;
    size_t spares_used = 0;
    ApplyResult local;
  };

  /// Fills `ctx` for `group` (every update has the same src): distinct
  /// targets, free-pool capacity and the worst-case spare blocks.
  void PrepareGroup(std::span<const EdgeUpdate> group, GroupCtx* ctx);
  /// Returns unconsumed spares and merges the committed tallies.
  void FinishGroup(GroupCtx& ctx, ApplyResult* result);

  /// One source-vertex group as a single transaction.
  template <typename Scheduler>
  void ApplyGroup(Scheduler& tm, int worker, std::span<const EdgeUpdate> group,
                  ApplyResult* result) {
    GroupCtx ctx;
    PrepareGroup(group, &ctx);
    tm.Run(worker, SizeHintFor(ctx.u) + 2 * group.size(),
           [&](auto& txn) { ApplyGroupInTxn(txn, ctx); });
    // Run() only returns after a commit (no user aborts here), so the
    // private tallies reflect the committed execution.
    FinishGroup(ctx, result);
  }

  /// Applies every update of `g` in one walk of u's chain; the result is
  /// exactly that of applying them one at a time, in order. The walk
  /// reads the chain head to tail, recording each target's live slot and
  /// the first `g.inserts` dead slots, and stops as soon as every target
  /// is found (a lone delete or reweight reads up to its slot, an insert
  /// of an absent edge reads the whole chain, as a per-update scan
  /// would). The updates then replay against that state: deletes return
  /// their slot to the free pool, inserts take the earliest free slot or
  /// append a spare block at the tail. Every read declares write intent
  /// so L mode takes the exclusive lock immediately (no shared->exclusive
  /// upgrade can deadlock).
  template <typename Txn>
  void ApplyGroupInTxn(Txn& txn, GroupCtx& g) {
    // Every access below is guarded by g.u, so TuFast runs a group that
    // leaves H in L: O's commit would take u's exclusive lock anyway.
    if constexpr (requires { txn.OnlyVertex(g.u); }) txn.OnlyVertex(g.u);
    // Durable builds: stage the logical mutations for the WAL. Staging is
    // idempotent across re-executions — aborted attempts clear the stage
    // (Reset / on_begin hook) before the body re-runs, so exactly the
    // committed execution's notes publish. Recovery's replay shim has no
    // WalNote, so replayed updates are not re-logged.
    if constexpr (requires { txn.WalNote(g.updates[0]); }) {
      for (const EdgeUpdate& up : g.updates) txn.WalNote(up);
    }
    const VertexId u = g.u;
    g.local = ApplyResult{};
    g.spares_used = 0;
    g.free.clear();
    for (Target& t : g.targets) t.slot = nullptr;

    size_t unfound = g.targets.size();
    TmWord* link_addr = &heads_[u];
    TmWord link = txn.ReadForUpdate(u, link_addr);
    uint64_t blocks = 0;
    const uint64_t bound = TraversalBound();
    while (link != 0 && unfound != 0 && blocks < bound) {
      Block* b = BlockAt(link - 1);
      if (b == nullptr) break;  // Doomed-read garbage; commit will fail.
      const uint64_t base = blocks++ * kSlotsPerBlock;
      for (int s = 0; s < kSlotsPerBlock && unfound != 0; ++s) {
        const TmWord sw = txn.ReadForUpdate(u, &b->slots[s]);
        if (SlotLive(sw)) {
          Target* t = FindTarget(g, SlotTarget(sw));
          if (t != nullptr && t->slot == nullptr) {
            *t = Target{t->dst, &b->slots[s], sw, base + s};
            --unfound;
          }
        } else if (g.free.size() < g.inserts) {
          // Chain order is ascending, so appending keeps the heap valid.
          g.free.push_back(FreeSlot{base + s, &b->slots[s]});
        }
      }
      if (unfound == 0) break;
      link_addr = &b->next;
      link = txn.ReadForUpdate(u, link_addr);
    }

    for (const EdgeUpdate& up : g.updates) {
      Target& t = *FindTarget(g, up.dst);
      switch (up.op) {
        case EdgeUpdate::Op::kInsert:
          if (t.slot != nullptr) {  // Upsert.
            SetWeight(txn, u, t, up.weight);
            ++g.local.updated;
            break;
          }
          if (g.free.empty()) {
            // No dead slot anywhere, so the walk reached the tail: an
            // early stop means every destination was live, and an insert
            // can then only follow a delete of its own destination,
            // which freed a slot. Append a spare at the tail.
            TUFAST_CHECK(g.spares_used < g.spares.size());
            const uint64_t idx = g.spares[g.spares_used++];
            Block* nb = BlockAt(idx);
            txn.Write(u, link_addr, idx + 1);  // Publish: 0 -> index + 1.
            link_addr = &nb->next;
            const uint64_t base = blocks++ * kSlotsPerBlock;
            for (int s = 0; s < kSlotsPerBlock; ++s) {
              PushFree(g, FreeSlot{base + s, &nb->slots[s]});
            }
          }
          std::pop_heap(g.free.begin(), g.free.end(), std::greater<>());
          t.slot = g.free.back().slot;
          t.pos = g.free.back().pos;
          g.free.pop_back();
          t.word = EncodeSlot(up.dst, weighted_ ? up.weight : 0);
          txn.Write(u, t.slot, t.word);
          ++g.local.inserted;
          break;
        case EdgeUpdate::Op::kDelete:
          if (t.slot == nullptr) {
            ++g.local.missing;
            break;
          }
          txn.Write(u, t.slot, kTombstoneSlot);
          PushFree(g, FreeSlot{t.pos, t.slot});
          t.slot = nullptr;
          ++g.local.removed;
          break;
        case EdgeUpdate::Op::kUpdateWeight:
          if (t.slot == nullptr) {
            ++g.local.missing;
            break;
          }
          SetWeight(txn, u, t, up.weight);
          ++g.local.updated;
          break;
      }
    }
    if (g.local.inserted != 0 || g.local.removed != 0) {
      const TmWord d = txn.ReadForUpdate(u, &degree_[u]);
      txn.Write(u, &degree_[u], d + g.local.inserted - g.local.removed);
    }
  }

  static Target* FindTarget(GroupCtx& g, VertexId dst) {
    // The bit filter spares most slots of a hub chain the search.
    if (((g.dst_bits >> (dst & 63)) & 1) == 0) return nullptr;
    const auto it = std::lower_bound(
        g.targets.begin(), g.targets.end(), dst,
        [](const Target& t, VertexId d) { return t.dst < d; });
    return it != g.targets.end() && it->dst == dst ? &*it : nullptr;
  }

  static void PushFree(GroupCtx& g, FreeSlot f) {
    TUFAST_DCHECK(g.free.size() < g.free.capacity());  // Never allocates.
    g.free.push_back(f);
    std::push_heap(g.free.begin(), g.free.end(), std::greater<>());
  }

  template <typename Txn>
  void SetWeight(Txn& txn, VertexId u, Target& t, uint32_t weight) {
    if (weighted_ && SlotWeight(t.word) != weight) {
      t.word = EncodeSlot(t.dst, weight);
      txn.Write(u, t.slot, t.word);
    }
  }

  const VertexId capacity_;
  const bool weighted_;
  std::atomic<VertexId> num_vertices_{0};

  /// Per-vertex chain head (block index + 1, 0 = empty) and live degree,
  /// both guarded by the vertex's lock.
  std::vector<TmWord> heads_;
  std::vector<TmWord> degree_;

  /// Chunked block arena: stable addresses, lock-free reads, growth
  /// under alloc_lock_. Blocks are recycled only through the free list
  /// (always zeroed) or a quiesced arena reset.
  std::unique_ptr<std::atomic<Block*>[]> chunks_;
  std::atomic<uint64_t> allocated_blocks_{0};
  std::atomic<uint64_t> forced_traversal_bound_{0};  // Test seam; 0 = off.
  mutable SpinLock alloc_lock_;  // Guards free_blocks_ + chunk growth.
  std::vector<uint64_t> free_blocks_;
};

}  // namespace tufast

#endif  // TUFAST_GRAPH_DYNAMIC_DYNAMIC_GRAPH_H_
