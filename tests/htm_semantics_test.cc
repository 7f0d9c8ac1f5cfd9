// Deeper emulated-HTM semantics: cache-line granularity (false sharing),
// word-level write buffering within lines, segment/write interactions,
// stats accounting and the conflict table's bucket layout — the
// properties the TuFast modes rely on beyond the basics covered in
// htm_emulated_test.cc.

#include <sys/mman.h>

#include <cerrno>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "htm/emulated_htm.h"
#include "sync/lock_table.h"

namespace tufast {
namespace {

TEST(HtmSemantics, FalseSharingWithinOneLineConflicts) {
  // Two transactions touching DIFFERENT words of the SAME 64-byte line
  // must conflict — cache-line granularity is the hardware's (and the
  // emulation's) unit of truth.
  EmulatedHtm htm;
  EmulatedHtm::Tx tx1(htm, 0);
  EmulatedHtm::Tx tx2(htm, 1);
  alignas(64) TmWord line[8] = {};

  const AbortStatus s1 = tx1.Execute([&] {
    (void)tx1.Load(&line[0]);
    // tx2 writes a *different word* in the same line and commits.
    const AbortStatus s2 = tx2.Execute([&] { tx2.Store(&line[7], 1); });
    EXPECT_TRUE(s2.ok());
    (void)tx1.Load(&line[0]);  // Must observe the doom.
    ADD_FAILURE() << "false sharing not detected";
  });
  EXPECT_EQ(s1.cause, AbortCause::kConflict);
}

TEST(HtmSemantics, DistinctLinesDoNotConflict) {
  EmulatedHtm htm;
  EmulatedHtm::Tx tx1(htm, 0);
  EmulatedHtm::Tx tx2(htm, 1);
  alignas(64) TmWord a = 0;
  alignas(64) TmWord b = 0;
  const AbortStatus s1 = tx1.Execute([&] {
    tx1.Store(&a, 1);
    const AbortStatus s2 = tx2.Execute([&] { tx2.Store(&b, 2); });
    EXPECT_TRUE(s2.ok());
  });
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
}

TEST(HtmSemantics, WriteBufferIsWordGranular) {
  // Writing word 0 of a line must not clobber word 1 at commit.
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord line[8] = {10, 11, 12, 13, 14, 15, 16, 17};
  const AbortStatus status = tx.Execute([&] {
    tx.Store(&line[0], 100);
    tx.Store(&line[3], 103);
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(line[0], 100u);
  EXPECT_EQ(line[1], 11u);
  EXPECT_EQ(line[3], 103u);
  EXPECT_EQ(line[7], 17u);
}

TEST(HtmSemantics, SegmentBoundaryPublishesEarlierWrites) {
  // XEND publishes; the next segment's abort must not undo them.
  EmulatedHtm htm;
  EmulatedHtm::Tx tx(htm, 0);
  alignas(64) TmWord a = 0;
  alignas(64) TmWord b = 0;
  const AbortStatus status = tx.Execute([&] {
    tx.Store(&a, 1);
    tx.SegmentBoundary();  // Commits segment 1: a published.
    tx.Store(&b, 2);
    tx.ExplicitAbort<0x5>();  // Aborts only segment 2.
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&a), 1u) << "segment 1 was committed";
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&b), 0u) << "segment 2 was aborted";
}

TEST(HtmSemantics, StatsCountCausesSeparately) {
  HtmConfig config;
  config.num_sets = 4;
  config.num_ways = 1;
  EmulatedHtm htm(config);
  EmulatedHtm::Tx tx(htm, 0);
  std::vector<TmWord> data(4 * 8 * 4, 0);

  (void)tx.Execute([&] { tx.ExplicitAbort<1>(); });
  (void)tx.Execute([&] {
    // Two lines in the same modeled set: capacity with 1 way.
    (void)tx.Load(&data[0]);
    (void)tx.Load(&data[4 * 8]);
  });
  (void)tx.Execute([&] {});  // Commit.

  const HtmStats& stats = tx.stats();
  EXPECT_EQ(stats.begins, 3u);
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.explicit_aborts, 1u);
  EXPECT_EQ(stats.capacity_aborts, 1u);
  EXPECT_EQ(stats.TotalAborts(), 2u);
}

TEST(HtmSemantics, ReusedTxHandleStartsClean) {
  // Footprint/buffers from an aborted transaction must not leak into the
  // next one (the router reuses handles across attempts).
  HtmConfig config;
  config.num_sets = 4;
  config.num_ways = 2;
  EmulatedHtm htm(config);
  EmulatedHtm::Tx tx(htm, 0);
  std::vector<TmWord> data(4 * 8 * 8, 0);

  const AbortStatus first = tx.Execute([&] {
    for (size_t line = 0; line < 16; ++line) (void)tx.Load(&data[line * 8]);
  });
  EXPECT_EQ(first.cause, AbortCause::kCapacity);

  // Exactly-at-capacity transaction must now succeed from a clean slate.
  const AbortStatus second = tx.Execute([&] {
    for (size_t line = 0; line < 8; ++line) (void)tx.Load(&data[line * 8]);
    tx.Store(&data[0], 42);
  });
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(data[0], 42u);
}

TEST(HtmSemantics, ManyShortTransactionsAcrossThreadsAreExact) {
  // Smoke-stress of the line-table protocol under rapid reuse.
  EmulatedHtm htm;
  constexpr int kThreads = 6;
  constexpr int kEach = 3000;
  struct alignas(64) Cell {
    TmWord value = 0;
  };
  std::vector<Cell> cells(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EmulatedHtm::Tx tx(htm, t);
      for (int i = 0; i < kEach; ++i) {
        const int c = (t + i) % 8;
        while (true) {
          const AbortStatus status = tx.Execute([&] {
            tx.Store(&cells[c].value, tx.Load(&cells[c].value) + 1);
          });
          if (status.ok()) break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  TmWord total = 0;
  for (const Cell& c : cells) total += c.value;
  EXPECT_EQ(total, static_cast<TmWord>(kThreads) * kEach);
}

TEST(HtmSemantics, BucketNeighboursDoNotConflict) {
  // Two distinct lines whose entries share one bucket (one cache line of
  // the table) but not one entry: a writer on one and a reader on the
  // other must not doom each other, in either interleaving.
  HtmConfig config;
  config.table_bits = 12;
  EmulatedHtm htm(config);
  struct alignas(64) Line {
    TmWord word[8] = {};
  };
  std::vector<Line> lines(1024);
  size_t first = 0;
  size_t second = 0;
  for (size_t i = 0; i < lines.size() && second == 0; ++i) {
    const uint64_t ei = htm.EntryIndexForTest(&lines[i]);
    for (size_t j = i + 1; j < lines.size(); ++j) {
      const uint64_t ej = htm.EntryIndexForTest(&lines[j]);
      if (ei != ej && ei / EmulatedHtm::kEntriesPerBucket ==
                          ej / EmulatedHtm::kEntriesPerBucket) {
        first = i;
        second = j;
        break;
      }
    }
  }
  ASSERT_NE(second, 0u) << "no two lines share a bucket";
  TmWord* a = &lines[first].word[0];
  TmWord* b = &lines[second].word[0];
  b[0] = 5;

  EmulatedHtm::Tx writer(htm, 0);
  EmulatedHtm::Tx reader(htm, 1);
  const AbortStatus w1 = writer.Execute([&] {
    writer.Store(a, 7);
    const AbortStatus r1 = reader.Execute([&] {
      EXPECT_EQ(reader.Load(b), 5u);
    });
    EXPECT_TRUE(r1.ok());
    writer.Store(a, 8);  // Still live: the neighbour's read doomed nothing.
  });
  EXPECT_TRUE(w1.ok());

  const AbortStatus r2 = reader.Execute([&] {
    (void)reader.Load(b);
    const AbortStatus w2 = writer.Execute([&] { writer.Store(a, 9); });
    EXPECT_TRUE(w2.ok());
    EXPECT_EQ(reader.Load(b), 5u);  // Would throw if the commit doomed us.
  });
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(EmulatedHtm::NonTxLoad(a), 9u);
}

TEST(HtmSemantics, FreshTableIsEmptyAndWorksOnZeroPages) {
  EmulatedHtm htm;
  const uint64_t n = htm.NumEntries();
  ASSERT_GE(n, uint64_t{1} << htm.config().table_bits);
  auto expect_empty = [&](uint64_t i) {
    const EmulatedHtm::EntryState e = htm.EntryStateForTest(i);
    return !e.locked && e.writer == -1 && e.readers == 0;
  };
  uint64_t busy = 0;
  for (uint64_t i = 0; i < n; ++i) busy += expect_empty(i) ? 0 : 1;
  EXPECT_EQ(busy, 0u) << "a fresh table must read all-empty";

  // A writer, a reader and a lock-word CAS on never-touched entries.
  struct alignas(64) Line {
    TmWord word[8] = {};
  };
  std::vector<Line> lines(2);
  lines[1].word[0] = 5;
  EmulatedHtm::Tx tx(htm, 0);
  EXPECT_TRUE(tx.Execute([&] { tx.Store(&lines[0].word[0], 1); }).ok());
  EXPECT_TRUE(tx.Execute([&] {
    EXPECT_EQ(tx.Load(&lines[1].word[0]), 5u);
  }).ok());
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&lines[0].word[0]), 1u);

  LockTable<EmulatedHtm> locks(htm, 4);
  // The CAS must still doom a transaction subscribed to the lock word.
  const AbortStatus doomed = tx.Execute([&] {
    (void)tx.Load(locks.WordAddr(3));
    EXPECT_TRUE(locks.TryLockExclusive(3));
    (void)tx.Load(&lines[1].word[0]);
    ADD_FAILURE() << "lock-word CAS did not doom the subscriber";
  });
  EXPECT_EQ(doomed.cause, AbortCause::kConflict);
  locks.UnlockExclusive(3);

  for (const void* addr : {static_cast<const void*>(&lines[0]),
                           static_cast<const void*>(&lines[1]),
                           static_cast<const void*>(locks.WordAddr(3))}) {
    EXPECT_TRUE(expect_empty(htm.EntryIndexForTest(addr)));
  }
}

TEST(HtmSemantics, DefaultTableFitsItsBudgetAndIsUnmappedOnDestruction) {
  const void* base = nullptr;
  {
    EmulatedHtm htm;
    EXPECT_GE(htm.NumEntries(), uint64_t{1} << htm.config().table_bits);
    EXPECT_LE(htm.TableBytes(), size_t{92} * 1024 * 1024 / 10);
    base = htm.TableBaseForTest();
    unsigned char resident = 0;
    EXPECT_EQ(mincore(const_cast<void*>(base), 4096, &resident), 0);
  }
  // mincore fails with ENOMEM on an address range that is not mapped.
  unsigned char resident = 0;
  errno = 0;
  EXPECT_EQ(mincore(const_cast<void*>(base), 4096, &resident), -1);
  EXPECT_EQ(errno, ENOMEM);
}

}  // namespace
}  // namespace tufast
