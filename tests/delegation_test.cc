// Unit tests for the delegation layer (tm/delegation.h +
// TuFastScheduler::RunBatch with sharding and/or combining on): the
// route decision on hand-built ownership and contention history, the
// ring sizing of each cell kind, and the two-worker completion protocol
// — a worker drains another worker's messages, and a sender's RunBatch
// returns only once every message it shipped has run, each exactly once.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "htm/emulated_htm.h"
#include "tm/delegation.h"
#include "tm/tufast.h"

namespace tufast {
namespace {

Delegation::Options Options(bool sharding, bool combining) {
  Delegation::Options opts;
  opts.sharding = sharding;
  opts.num_shards = 2;
  opts.shard_workers = 2;
  opts.mailbox_capacity = 64;
  opts.combining = combining;
  opts.history_buckets = 16;
  opts.am_batch = 8;
  return opts;
}

void Heat(Delegation& d, VertexId v) {
  while (!d.history()->IsHot(v)) d.history()->RecordAttempt(v, true);
}

/// The first vertex of shard `parity` (of two) whose region is cold.
VertexId ColdVertex(Delegation& d, uint32_t parity) {
  VertexId v = parity;
  while (d.history()->IsHot(v)) v += 2;
  return v;
}

TEST(DelegationTest, ShardingRoutesCrossShardItemsToTheirOwner) {
  Delegation d(Options(/*sharding=*/true, /*combining=*/false));
  ASSERT_EQ(d.num_cells(), 2u);
  EXPECT_EQ(d.Route(4, /*worker=*/0), Delegation::kLocal) << "owned";
  EXPECT_EQ(d.Route(5, 0), 1u) << "cross-shard: shard 1's owner cell";
  EXPECT_EQ(d.Route(5, 1), Delegation::kLocal);
  EXPECT_EQ(d.Route(4, 1), 0u);
  // A worker that owns no shard ships every item.
  EXPECT_EQ(d.Route(4, 7), 0u);
  EXPECT_EQ(d.Route(5, 7), 1u);
  EXPECT_FALSE(d.IsHotCell(0));
  EXPECT_FALSE(d.IsHotCell(1));
}

TEST(DelegationTest, CombiningRoutesOnlyHotRegions) {
  Delegation d(Options(/*sharding=*/false, /*combining=*/true));
  ASSERT_EQ(d.num_cells(), 16u);
  const VertexId hot = 3;
  EXPECT_EQ(d.Route(hot, 0), Delegation::kLocal) << "history starts cold";
  Heat(d, hot);
  const VertexId cold = ColdVertex(d, 0);
  const uint32_t c = d.Route(hot, 0);
  EXPECT_EQ(c, d.history()->BucketOf(hot));
  EXPECT_TRUE(d.IsHotCell(c));
  EXPECT_EQ(d.Route(hot, 1), c) << "hot cells belong to no worker";
  EXPECT_EQ(d.Route(cold, 0), Delegation::kLocal);
}

TEST(DelegationTest, CrossShardBeatsHotWhenBothAreOn) {
  Delegation d(Options(/*sharding=*/true, /*combining=*/true));
  ASSERT_EQ(d.num_cells(), 2u + 16u);
  const VertexId owned_hot = 2;  // shard 0, worker 0
  const VertexId remote_hot = 7;  // shard 1, worker 1
  Heat(d, owned_hot);
  Heat(d, remote_hot);
  const VertexId owned_cold = ColdVertex(d, 0);

  const uint32_t c = d.Route(owned_hot, 0);
  EXPECT_TRUE(d.IsHotCell(c));
  EXPECT_EQ(c, 2u + d.history()->BucketOf(owned_hot)) << "after owner cells";
  EXPECT_EQ(d.Route(remote_hot, 0), 1u) << "cross-shard goes to the owner";
  EXPECT_EQ(d.Route(owned_cold, 0), Delegation::kLocal);
}

TEST(DelegationTest, HotRingsHoldOneDrainBatch) {
  Delegation::Options opts = Options(/*sharding=*/true, /*combining=*/true);
  opts.mailbox_capacity = 1024;
  opts.am_batch = 5;
  Delegation d(opts);
  EXPECT_EQ(d.cell(0).ring.capacity(), 1024u) << "owner ring";
  for (uint32_t c = 2; c < d.num_cells(); ++c) {
    ASSERT_EQ(d.cell(c).ring.capacity(), 8u) << "hot ring " << c;
  }
  EXPECT_EQ(d.OwnedCells(0), (std::vector<uint32_t>{0}));
}

// ---------------------------------------------------------------------
// Two-worker completion protocol on TuFast.

using Sched = TuFastScheduler<EmulatedHtm>;
constexpr VertexId kVertices = 64;
constexpr uint64_t kShipped = 12;
constexpr uint64_t kStride = 8;  // One counter per cache line.

Sched::Config TwoShardConfig() {
  Sched::Config config;
  config.enable_sharding = true;
  config.num_shards = 2;
  config.shard_workers = 2;
  return config;
}

/// Batch of kShipped items homed in shard 0 (even vertices) plus one
/// item homed at vertex 17 (shard 1): sent by worker 1, the even items
/// ship to worker 0's cell and the last one runs locally.
struct SenderBatch {
  std::vector<TmWord> counters = std::vector<TmWord>(kVertices * kStride, 0);
  std::vector<std::thread::id> ran_on =
      std::vector<std::thread::id>(kShipped + 1);

  VertexId Home(uint64_t i) const {
    return i < kShipped ? static_cast<VertexId>(2 * (i % 4)) : 17;
  }
  void Run(Sched& tm, int worker, uint64_t lo, uint64_t hi,
           const std::atomic<bool>* gate) {
    auto hint = [&](uint64_t i) -> uint64_t {
      // The local item's hint is read outside any transaction, between
      // the route and flush steps: hold the sender there.
      if (gate != nullptr && i == kShipped) {
        while (!gate->load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
      }
      return 2;
    };
    auto home = [&](uint64_t i) { return Home(i); };
    auto body = [&](auto& txn, uint64_t i) {
      const VertexId v = Home(i);
      TmWord* c = &counters[v * kStride];
      txn.Write(v, c, txn.Read(v, c) + 1);
      ran_on[i] = std::this_thread::get_id();
    };
    tm.RunBatch(worker, lo, hi, hint, home, body);
  }
  void ExpectEachItemOnce() const {
    std::vector<TmWord> want(kVertices * kStride, 0);
    for (uint64_t i = 0; i <= kShipped; ++i) ++want[Home(i) * kStride];
    EXPECT_EQ(counters, want);
  }
};

uint64_t RingDepth(Sched& tm, uint32_t c) {
  return tm.delegation()->cell(c).ring.ApproxDepth();
}

TEST(DelegationExactlyOnceTest, OwnerDrainsAnotherWorkersMessages) {
  EmulatedHtm htm;
  Sched tm(htm, kVertices, TwoShardConfig());
  SenderBatch batch;
  std::atomic<bool> gate{false};
  std::thread sender([&] { batch.Run(tm, 1, 0, kShipped + 1, &gate); });
  while (RingDepth(tm, 0) < kShipped) std::this_thread::yield();

  // Worker 0 runs an empty batch: its eager drain of its owned cell
  // executes every message worker 1 shipped.
  batch.Run(tm, 0, 0, 0, nullptr);
  EXPECT_EQ(RingDepth(tm, 0), 0u);
  for (uint64_t i = 0; i < kShipped; ++i) {
    EXPECT_EQ(batch.ran_on[i], std::this_thread::get_id()) << "item " << i;
  }
  gate.store(true, std::memory_order_release);
  sender.join();
  EXPECT_NE(batch.ran_on[kShipped], std::this_thread::get_id());
  batch.ExpectEachItemOnce();

  const SchedulerStats stats = tm.AggregatedStats();
  EXPECT_EQ(stats.shard_messages_sent, kShipped);
  EXPECT_EQ(stats.shard_messages_drained, kShipped);
  EXPECT_EQ(stats.commits, kShipped + 1);
}

TEST(DelegationExactlyOnceTest, SenderWaitsForItsOwnCount) {
  EmulatedHtm htm;
  Sched tm(htm, kVertices, TwoShardConfig());
  SenderBatch batch;
  std::atomic<bool> returned{false};
  // Holding cell 0's drain lock keeps every drainer — the sender's own
  // flush included — away from the shipped messages.
  DelegationCell& cell = tm.delegation()->cell(0);
  cell.drain_lock.Lock();
  std::thread sender([&] {
    batch.Run(tm, 1, 0, kShipped + 1, nullptr);
    returned.store(true, std::memory_order_release);
  });
  while (RingDepth(tm, 0) < kShipped) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load(std::memory_order_acquire))
      << "RunBatch returned with shipped messages still queued";
  EXPECT_EQ(RingDepth(tm, 0), kShipped);

  cell.drain_lock.Unlock();
  sender.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(RingDepth(tm, 0), 0u);
  batch.ExpectEachItemOnce();
  // Worker 1 is the only slot that ever ran, so it drained everything.
  EXPECT_EQ(tm.AggregatedStats().shard_messages_drained, kShipped)
      << "the sender helped";
}

}  // namespace
}  // namespace tufast
