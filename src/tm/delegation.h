#ifndef TUFAST_TM_DELEGATION_H_
#define TUFAST_TM_DELEGATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/compiler.h"
#include "common/spin.h"
#include "common/types.h"
#include "sharding/mailbox.h"
#include "sharding/shard_map.h"
#include "tm/contention_history.h"

namespace tufast {

/// One delegation cell (DESIGN.md "Delegation"): a bounded ring of
/// active messages plus the try-lock that serializes its drains. Any
/// worker may drain any cell; the lock only keeps two drainers from
/// splitting one group-commit batch. Cache-line aligned so drain traffic
/// on one cell does not false-share with its neighbor.
struct alignas(kCacheLineBytes) DelegationCell {
  explicit DelegationCell(uint32_t capacity) : ring(capacity) {}
  TUFAST_DISALLOW_COPY_AND_MOVE(DelegationCell);

  SpinLock drain_lock;
  BoundedMailbox<ActiveMessage> ring;
};

/// The scheduler-owned delegation runtime: where a batch item may be
/// shipped instead of run by its own worker. Two kinds of cell share one
/// type and one drain protocol:
///
///  * owner cells, one per shard (Config::enable_sharding): a cross-shard
///    item goes to its owner's cell, which the owner drains eagerly;
///  * hot cells, one per contention-history bucket
///    (Config::enable_combining): an item homed in a hot region goes to
///    the region's cell, where whichever worker drains it applies every
///    queued operation as one fused batch instead of competing.
///
/// Cells [0, hot_base) are owner cells and [hot_base, num_cells) hot
/// cells. Owner rings hold `mailbox_capacity` messages; hot rings hold
/// one drain batch (`am_batch`), since there is one per history bucket.
/// Constructed only when sharding or combining is on.
class Delegation {
 public:
  struct Options {
    bool sharding = false;
    uint32_t num_shards = 0;  // 0 = one per shard worker
    uint32_t shard_workers = 1;
    uint32_t mailbox_capacity = 1024;
    bool combining = false;
    uint32_t history_buckets = 1024;
    double hot_threshold = 0.5;
    uint32_t am_batch = 32;
  };

  /// Route() result for an item that runs on its own worker.
  static constexpr uint32_t kLocal = ~uint32_t{0};

  explicit Delegation(const Options& opts) {
    if (opts.sharding) {
      const uint32_t workers = opts.shard_workers == 0 ? 1 : opts.shard_workers;
      map_.emplace(opts.num_shards != 0 ? opts.num_shards : workers, workers);
      owned_.resize(workers);
      for (uint32_t s = 0; s < map_->num_shards(); ++s) {
        cells_.push_back(
            std::make_unique<DelegationCell>(opts.mailbox_capacity));
        owned_[map_->OwnerWorker(s)].push_back(s);
      }
    }
    hot_base_ = static_cast<uint32_t>(cells_.size());
    if (opts.combining) {
      history_ = std::make_unique<ContentionHistory>(
          ContentionHistory::Config{opts.history_buckets, opts.hot_threshold});
      for (uint32_t b = 0; b < history_->num_buckets(); ++b) {
        cells_.push_back(std::make_unique<DelegationCell>(opts.am_batch));
      }
    }
  }
  TUFAST_DISALLOW_COPY_AND_MOVE(Delegation);

  /// Where an item homed at `v` and issued by `worker` goes: its owner's
  /// cell when another worker owns v's shard; else v's hot cell when
  /// v's region is hot; else kLocal.
  TUFAST_ALWAYS_INLINE uint32_t Route(VertexId v, uint32_t worker) const {
    if (map_ && map_->OwnerOf(v) != worker) return map_->ShardOf(v);
    if (history_ != nullptr) {
      const uint32_t b = history_->BucketOf(v);
      if (history_->BucketIsHot(b)) return hot_base_ + b;
    }
    return kLocal;
  }

  bool IsHotCell(uint32_t c) const { return c >= hot_base_; }
  uint32_t num_cells() const { return static_cast<uint32_t>(cells_.size()); }
  DelegationCell& cell(uint32_t c) { return *cells_[c]; }

  /// Owner cells of `worker` (empty for workers that own no shard — they
  /// only ever send).
  const std::vector<uint32_t>& OwnedCells(int worker) const {
    static const std::vector<uint32_t> kNone;
    const auto idx = static_cast<size_t>(worker);
    return idx < owned_.size() ? owned_[idx] : kNone;
  }

  /// Null unless sharding is on.
  const ShardMap* shard_map() const { return map_ ? &*map_ : nullptr; }
  /// Null unless combining is on.
  ContentionHistory* history() { return history_.get(); }

 private:
  std::optional<ShardMap> map_;
  std::unique_ptr<ContentionHistory> history_;
  uint32_t hot_base_ = 0;
  std::vector<std::unique_ptr<DelegationCell>> cells_;
  std::vector<std::vector<uint32_t>> owned_;
};

}  // namespace tufast

#endif  // TUFAST_TM_DELEGATION_H_
