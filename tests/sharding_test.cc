// Unit tests for the shard-per-core ownership pieces (src/sharding/ and
// the owner cells of tm/delegation.h): the static vertex->shard->worker
// map and its documented edge cases, the bounded active-message ring,
// and the owner-cell wiring.

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sharding/mailbox.h"
#include "sharding/shard_map.h"
#include "tm/delegation.h"

namespace tufast {
namespace {

// ---------------------------------------------------------------------------
// ShardMap

/// Vertices of [0, n) dealt to each shard.
std::vector<VertexId> ShardSizes(const ShardMap& map, VertexId n) {
  std::vector<VertexId> sizes(map.num_shards(), 0);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t s = map.ShardOf(v);
    EXPECT_LT(s, map.num_shards()) << "vertex " << v;
    if (s < sizes.size()) ++sizes[s];
  }
  return sizes;
}

TEST(ShardMapTest, CyclicDealRoundTripsEveryVertex) {
  // Every vertex lands in exactly one in-range shard, the shard v % k.
  for (const auto& [n, shards] : std::vector<std::pair<VertexId, uint32_t>>{
           {100, 1}, {100, 4}, {100, 7}, {97, 8}, {64, 64}, {1, 3}}) {
    ShardMap map(shards, /*num_workers=*/3);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(map.ShardOf(v), v % shards) << "n=" << n << " k=" << shards;
    }
    VertexId total = 0;
    for (const VertexId size : ShardSizes(map, n)) total += size;
    EXPECT_EQ(total, n) << "n=" << n << " shards=" << shards;
  }
}

TEST(ShardMapTest, NonDivisibleVertexCountSpreadsRemainderEvenly) {
  // 10 vertices over 3 shards: sizes differ by at most one and the low
  // shards take the extras (cyclic deal).
  EXPECT_EQ(ShardSizes(ShardMap(3, 1), 10), (std::vector<VertexId>{4, 3, 3}));
}

TEST(ShardMapTest, SingleShardDegeneratesToUnsharded) {
  ShardMap map(1, 4);
  for (VertexId v = 0; v < 7; ++v) {
    EXPECT_EQ(map.ShardOf(v), 0u);
    EXPECT_EQ(map.OwnerOf(v), 0u);
  }
}

TEST(ShardMapTest, MoreShardsThanVerticesLeavesTailShardsEmpty) {
  EXPECT_EQ(ShardSizes(ShardMap(8, 2), 3),
            (std::vector<VertexId>{1, 1, 1, 0, 0, 0, 0, 0}));
}

TEST(ShardMapTest, ShardCountExceedingWorkerCountDealsCyclically) {
  ShardMap map(8, 3);
  // 8 shards over 3 workers: worker 0 gets {0,3,6}, 1 gets {1,4,7},
  // 2 gets {2,5} — counts differ by at most one.
  for (uint32_t s = 0; s < 8; ++s) EXPECT_EQ(map.OwnerWorker(s), s % 3);
}

TEST(ShardMapTest, ZeroCountsClampToOne) {
  ShardMap map(0, 0);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.num_workers(), 1u);
  EXPECT_EQ(map.ShardOf(9), 0u);
  EXPECT_EQ(map.OwnerOf(9), 0u);
}

TEST(ShardMapTest, Pow2FastPathMatchesModulo) {
  ShardMap map(16, 4);
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_EQ(map.ShardOf(v), v % 16);
  }
}

// ---------------------------------------------------------------------------
// BoundedMailbox

TEST(BoundedMailboxTest, CapacityRoundsUpToPowerOfTwoMinFour) {
  EXPECT_EQ(BoundedMailbox<uint64_t>(0).capacity(), 4u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(1).capacity(), 4u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(5).capacity(), 8u);
  EXPECT_EQ(BoundedMailbox<uint64_t>(1024).capacity(), 1024u);
}

TEST(BoundedMailboxTest, FifoOrderAndEmptyTracking) {
  BoundedMailbox<uint64_t> box(8);
  EXPECT_TRUE(box.Empty());
  for (uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(box.TryEnqueue(i));
  EXPECT_FALSE(box.Empty());
  EXPECT_EQ(box.ApproxDepth(), 5u);
  uint64_t out;
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(box.TryDequeue(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(box.Empty());
  EXPECT_FALSE(box.TryDequeue(&out));
}

TEST(BoundedMailboxTest, FullRingRejectsUntilDrained) {
  BoundedMailbox<uint64_t> box(4);
  for (uint64_t i = 0; i < 4; ++i) ASSERT_TRUE(box.TryEnqueue(i));
  EXPECT_FALSE(box.TryEnqueue(99));  // Lossless contract: caller bounces.
  uint64_t out;
  ASSERT_TRUE(box.TryDequeue(&out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(box.TryEnqueue(99));
  EXPECT_FALSE(box.TryEnqueue(100));
}

TEST(BoundedMailboxTest, SequenceNumbersSurviveManyLaps) {
  BoundedMailbox<uint64_t> box(4);
  uint64_t out;
  for (uint64_t lap = 0; lap < 100; ++lap) {
    for (uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(box.TryEnqueue(lap * 3 + i));
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(box.TryDequeue(&out));
      EXPECT_EQ(out, lap * 3 + i);
    }
  }
  EXPECT_TRUE(box.Empty());
}

TEST(BoundedMailboxTest, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 2000;
  BoundedMailbox<uint64_t> box(64);
  std::vector<uint64_t> seen_count(kProducers * kPerProducer, 0);
  std::atomic<int> live{kProducers};
  std::thread consumer([&] {
    uint64_t out;
    while (live.load(std::memory_order_acquire) > 0 || !box.Empty()) {
      if (box.TryDequeue(&out)) {
        ++seen_count[out];
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i;
        while (!box.TryEnqueue(value)) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  for (size_t v = 0; v < seen_count.size(); ++v) {
    ASSERT_EQ(seen_count[v], 1u) << "value " << v << " lost or duplicated";
  }
}

// ---------------------------------------------------------------------------
// ShardRuntime: the owner-cell half of the delegation runtime

Delegation::Options ShardedOptions(uint32_t shards, uint32_t workers) {
  Delegation::Options opts;
  opts.sharding = true;
  opts.num_shards = shards;
  opts.shard_workers = workers;
  opts.mailbox_capacity = 16;
  return opts;
}

TEST(ShardRuntimeTest, OwnedShardListsFollowTheCyclicDeal) {
  Delegation d(ShardedOptions(/*shards=*/8, /*workers=*/3));
  EXPECT_EQ(d.num_cells(), 8u);
  EXPECT_EQ(d.OwnedCells(0), (std::vector<uint32_t>{0, 3, 6}));
  EXPECT_EQ(d.OwnedCells(1), (std::vector<uint32_t>{1, 4, 7}));
  EXPECT_EQ(d.OwnedCells(2), (std::vector<uint32_t>{2, 5}));
  // Workers past shard_workers own nothing (they only ever send).
  EXPECT_TRUE(d.OwnedCells(3).empty());
  EXPECT_TRUE(d.OwnedCells(-1).empty());
  EXPECT_EQ(d.cell(0).ring.capacity(), 16u);
  EXPECT_FALSE(d.IsHotCell(7));
  EXPECT_EQ(d.history(), nullptr);
}

TEST(ShardRuntimeTest, FewerShardsThanWorkersLeavesWorkersOwnerless) {
  Delegation d(ShardedOptions(/*shards=*/2, /*workers=*/4));
  EXPECT_EQ(d.OwnedCells(0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(d.OwnedCells(1), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(d.OwnedCells(2).empty());
  EXPECT_TRUE(d.OwnedCells(3).empty());
}

}  // namespace
}  // namespace tufast
