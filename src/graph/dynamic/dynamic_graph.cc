#include "graph/dynamic/dynamic_graph.h"

#include <algorithm>

#include "graph/builder.h"

namespace tufast {

DynamicGraph::DynamicGraph(VertexId capacity, Options options)
    : capacity_(capacity),
      weighted_(options.weighted),
      heads_(capacity, 0),
      degree_(capacity, 0),
      chunks_(new std::atomic<Block*>[kMaxChunks]) {
  // target + 1 must stay clear of the tombstone pattern (low 32 = ~0).
  TUFAST_CHECK(capacity < 0xFFFFFFFEu);
  for (uint64_t c = 0; c < kMaxChunks; ++c) {
    chunks_[c].store(nullptr, std::memory_order_relaxed);
  }
}

DynamicGraph::~DynamicGraph() {
  for (uint64_t c = 0; c < kMaxChunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
  }
}

std::unique_ptr<DynamicGraph> DynamicGraph::FromCsr(const Graph& g,
                                                    VertexId extra_capacity) {
  auto dyn = std::make_unique<DynamicGraph>(
      g.NumVertices() + extra_capacity, Options{.weighted = g.HasWeights()});
  dyn->LoadCsrQuiesced(g);
  return dyn;
}

uint64_t DynamicGraph::TotalLiveEdges() const {
  uint64_t total = 0;
  const VertexId n = NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    total += __atomic_load_n(&degree_[v], __ATOMIC_RELAXED);
  }
  return total;
}

uint64_t DynamicGraph::FreeListBlocks() const {
  SpinLockGuard guard(alloc_lock_);
  return free_blocks_.size();
}

uint64_t DynamicGraph::AllocateBlock() {
  {
    SpinLockGuard guard(alloc_lock_);
    if (!free_blocks_.empty()) {
      const uint64_t idx = free_blocks_.back();
      free_blocks_.pop_back();
      return idx;
    }
  }
  const uint64_t idx = allocated_blocks_.fetch_add(1, std::memory_order_acq_rel);
  TUFAST_CHECK(idx < kMaxChunks * kBlocksPerChunk);
  const uint64_t chunk = idx / kBlocksPerChunk;
  if (chunks_[chunk].load(std::memory_order_acquire) == nullptr) {
    SpinLockGuard guard(alloc_lock_);
    if (chunks_[chunk].load(std::memory_order_relaxed) == nullptr) {
      // Value-initialized: every slot of a fresh chunk reads as empty.
      chunks_[chunk].store(new Block[kBlocksPerChunk](),
                           std::memory_order_release);
    }
  }
  return idx;
}

void DynamicGraph::GrabSpares(size_t count, std::vector<uint64_t>* out) {
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) out->push_back(AllocateBlock());
}

void DynamicGraph::ReturnSpares(std::span<const uint64_t> spares) {
  if (spares.empty()) return;
  SpinLockGuard guard(alloc_lock_);
  free_blocks_.insert(free_blocks_.end(), spares.begin(), spares.end());
}

void DynamicGraph::WriteChainQuiesced(
    VertexId u, std::span<const std::pair<VertexId, uint32_t>> edges) {
  heads_[u] = 0;
  degree_[u] = edges.size();
  TmWord* link_addr = &heads_[u];
  size_t i = 0;
  while (i < edges.size()) {
    const uint64_t idx = AllocateBlock();
    Block* b = BlockAt(idx);
    for (int s = 0; s < kSlotsPerBlock && i < edges.size(); ++s, ++i) {
      b->slots[s] = EncodeSlot(edges[i].first,
                               weighted_ ? edges[i].second : 0);
    }
    *link_addr = idx + 1;
    link_addr = &b->next;
  }
  *link_addr = 0;
}

void DynamicGraph::ResetArenaQuiesced() {
  for (uint64_t c = 0; c < kMaxChunks; ++c) {
    delete[] chunks_[c].load(std::memory_order_relaxed);
    chunks_[c].store(nullptr, std::memory_order_relaxed);
  }
  allocated_blocks_.store(0, std::memory_order_relaxed);
  SpinLockGuard guard(alloc_lock_);
  free_blocks_.clear();
}

void DynamicGraph::CollectLiveQuiesced(
    VertexId u, std::vector<std::pair<VertexId, uint32_t>>* out) const {
  out->clear();
  TmWord link = heads_[u];
  while (link != 0) {
    const Block* b = BlockAt(link - 1);
    TUFAST_CHECK(b != nullptr);
    for (int s = 0; s < kSlotsPerBlock; ++s) {
      const TmWord sw = b->slots[s];
      if (SlotLive(sw)) out->emplace_back(SlotTarget(sw), SlotWeight(sw));
    }
    link = b->next;
  }
}

void DynamicGraph::LoadCsrQuiesced(const Graph& g) {
  TUFAST_CHECK(g.NumVertices() <= capacity_);
  ResetArenaQuiesced();
  std::fill(heads_.begin(), heads_.end(), 0);
  std::fill(degree_.begin(), degree_.end(), 0);
  num_vertices_.store(g.NumVertices(), std::memory_order_release);

  std::vector<std::pair<VertexId, uint32_t>> scratch;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    scratch.clear();
    const auto neighbors = g.OutNeighbors(u);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      scratch.emplace_back(neighbors[i],
                           g.HasWeights() ? g.OutWeights(u)[i] : 0);
    }
    // Upsert semantics require duplicate-free chains: collapse duplicate
    // targets keeping the first weight.
    std::stable_sort(scratch.begin(), scratch.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    scratch.erase(std::unique(scratch.begin(), scratch.end(),
                              [](const auto& a, const auto& b) {
                                return a.first == b.first;
                              }),
                  scratch.end());
    WriteChainQuiesced(u, scratch);
  }
}

Graph DynamicGraph::Freeze() const {
  const VertexId n = NumVertices();
  GraphBuilder builder(n);
  builder.Reserve(TotalLiveEdges());
  std::vector<std::pair<VertexId, uint32_t>> scratch;
  for (VertexId u = 0; u < n; ++u) {
    CollectLiveQuiesced(u, &scratch);
    for (const auto& [target, weight] : scratch) {
      if (weighted_) {
        builder.AddEdge(u, target, weight);
      } else {
        builder.AddEdge(u, target);
      }
    }
  }
  // The dynamic store already owns dedup/self-loop policy; the snapshot
  // must reflect its contents verbatim (sorted for the algorithm suite).
  return builder.Build({.remove_self_loops = false,
                        .remove_duplicate_edges = false,
                        .sort_neighbors = true});
}

void DynamicGraph::CompactQuiesced() {
  const VertexId n = NumVertices();
  std::vector<std::vector<std::pair<VertexId, uint32_t>>> live(n);
  for (VertexId u = 0; u < n; ++u) CollectLiveQuiesced(u, &live[u]);
  ResetArenaQuiesced();
  for (VertexId u = 0; u < n; ++u) WriteChainQuiesced(u, live[u]);
}

namespace {

/// Transaction-shaped shim over plain memory for the quiesced apply
/// path. Deliberately has no WalNote: replaying a recovered record must
/// not re-log it.
struct QuiescedShim {
  TmWord Read(VertexId /*v*/, const TmWord* addr) { return *addr; }
  TmWord ReadForUpdate(VertexId /*v*/, const TmWord* addr) { return *addr; }
  void Write(VertexId /*v*/, TmWord* addr, TmWord value) { *addr = value; }
};

}  // namespace

void DynamicGraph::PrepareGroup(std::span<const EdgeUpdate> group,
                                GroupCtx* ctx) {
  TUFAST_DCHECK(!group.empty());
  ctx->u = group.front().src;
  TUFAST_DCHECK(ctx->u < NumVertices());
  ctx->updates = group;
  size_t deletes = 0;
  ctx->targets.reserve(group.size());
  for (const EdgeUpdate& up : group) {
    TUFAST_DCHECK(up.src == ctx->u);
    TUFAST_DCHECK(up.dst < capacity_);
    if (up.op == EdgeUpdate::Op::kInsert) ++ctx->inserts;
    if (up.op == EdgeUpdate::Op::kDelete) ++deletes;
    ctx->targets.push_back(Target{.dst = up.dst});
    ctx->dst_bits |= uint64_t{1} << (up.dst & 63);
  }
  std::sort(ctx->targets.begin(), ctx->targets.end(),
            [](const Target& a, const Target& b) { return a.dst < b.dst; });
  ctx->targets.erase(std::unique(ctx->targets.begin(), ctx->targets.end(),
                                 [](const Target& a, const Target& b) {
                                   return a.dst == b.dst;
                                 }),
                     ctx->targets.end());
  if (ctx->inserts > 0) {
    GrabSpares((ctx->inserts + kSlotsPerBlock - 1) / kSlotsPerBlock,
               &ctx->spares);
  }
  // Free-pool bound: the walk collects at most `inserts` dead slots,
  // every delete frees at most one, and every spare adds a block's worth.
  ctx->free.reserve(ctx->inserts + deletes +
                    kSlotsPerBlock * ctx->spares.size());
}

void DynamicGraph::FinishGroup(GroupCtx& ctx, ApplyResult* result) {
  ReturnSpares(std::span<const uint64_t>(ctx.spares).subspan(ctx.spares_used));
  result->Merge(ctx.local);
}

void DynamicGraph::ApplyQuiescedUpdate(const EdgeUpdate& up,
                                       ApplyResult* res) {
  TUFAST_CHECK(up.src < NumVertices());
  TUFAST_CHECK(up.dst < capacity_);
  GroupCtx ctx;
  PrepareGroup({&up, 1}, &ctx);
  QuiescedShim shim;
  ApplyGroupInTxn(shim, ctx);
  ApplyResult local;
  FinishGroup(ctx, res != nullptr ? res : &local);
}

void DynamicGraph::EnsureVerticesQuiesced(VertexId n) {
  TUFAST_CHECK(n <= capacity_);
  const VertexId cur = num_vertices_.load(std::memory_order_relaxed);
  if (n <= cur) return;
  for (VertexId v = cur; v < n; ++v) {
    heads_[v] = 0;
    degree_[v] = 0;
  }
  num_vertices_.store(n, std::memory_order_release);
}

std::optional<std::string> DynamicGraph::CheckInvariantsQuiesced() const {
  const VertexId n = NumVertices();
  const uint64_t allocated = AllocatedBlocks();
  std::vector<VertexId> targets;
  for (VertexId u = 0; u < n; ++u) {
    targets.clear();
    uint64_t chain_len = 0;
    TmWord link = heads_[u];
    while (link != 0) {
      if (link - 1 >= allocated) {
        return "vertex " + std::to_string(u) + ": block index " +
               std::to_string(link - 1) + " out of range";
      }
      if (++chain_len > allocated) {
        return "vertex " + std::to_string(u) + ": adjacency chain cycle";
      }
      const Block* b = BlockAt(link - 1);
      for (int s = 0; s < kSlotsPerBlock; ++s) {
        if (SlotLive(b->slots[s])) targets.push_back(SlotTarget(b->slots[s]));
      }
      link = b->next;
    }
    if (targets.size() != degree_[u]) {
      return "vertex " + std::to_string(u) + ": degree counter " +
             std::to_string(degree_[u]) + " != " +
             std::to_string(targets.size()) + " live slots";
    }
    std::sort(targets.begin(), targets.end());
    if (std::adjacent_find(targets.begin(), targets.end()) != targets.end()) {
      return "vertex " + std::to_string(u) + ": duplicate live target";
    }
    for (const VertexId t : targets) {
      if (t >= capacity_) {
        return "vertex " + std::to_string(u) + ": target " +
               std::to_string(t) + " out of range";
      }
    }
  }
  return std::nullopt;
}

}  // namespace tufast
