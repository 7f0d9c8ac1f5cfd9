#ifndef TUFAST_SHARDING_SHARD_MAP_H_
#define TUFAST_SHARDING_SHARD_MAP_H_

#include <cstdint>

#include "common/compiler.h"
#include "common/types.h"

namespace tufast {

/// Static vertex -> shard -> owning-worker map for the delegation layer's
/// owner cells (DESIGN.md "Delegation").
///
/// Vertices are dealt to shards cyclically (v % num_shards) rather than
/// in contiguous ranges: power-law generators (RMAT) concentrate hubs at
/// low ids, and a range split would hand one shard nearly all the
/// contention.
///
/// Shards are in turn dealt cyclically to the owning workers
/// (s % num_workers), so any shard count >= the worker count load-
/// balances; shard counts below the worker count simply leave the excess
/// workers ownerless (they still execute local transactions — ownership
/// only steers *message* traffic).
///
/// Edge cases are all well-defined by the arithmetic: a vertex count not
/// divisible by the shard count leaves shard sizes differing by at most
/// one; num_shards == 1 degenerates to the unsharded world (every vertex
/// local to worker 0's shard); more shards than vertices leaves the tail
/// shards empty.
class ShardMap {
 public:
  ShardMap(uint32_t num_shards, uint32_t num_workers)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        num_workers_(num_workers == 0 ? 1 : num_workers),
        shard_mask_(IsPow2(num_shards_) ? num_shards_ - 1 : 0),
        pow2_(IsPow2(num_shards_)) {}

  uint32_t num_shards() const { return num_shards_; }
  uint32_t num_workers() const { return num_workers_; }

  /// Shard owning vertex `v` (cyclic deal; pow2 shard counts take the
  /// mask fast path — the hot router query).
  TUFAST_ALWAYS_INLINE uint32_t ShardOf(VertexId v) const {
    return pow2_ ? (v & shard_mask_) : (v % num_shards_);
  }

  /// Worker owning shard `s` (cyclic deal over the worker set).
  uint32_t OwnerWorker(uint32_t s) const { return s % num_workers_; }

  /// Worker owning vertex `v`'s shard — the router's ship-or-local test.
  TUFAST_ALWAYS_INLINE uint32_t OwnerOf(VertexId v) const {
    return OwnerWorker(ShardOf(v));
  }

 private:
  static constexpr bool IsPow2(uint32_t x) { return (x & (x - 1)) == 0; }

  uint32_t num_shards_;
  uint32_t num_workers_;
  uint32_t shard_mask_;
  bool pow2_;
};

}  // namespace tufast

#endif  // TUFAST_SHARDING_SHARD_MAP_H_
