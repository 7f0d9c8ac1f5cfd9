// White-box unit tests of the three TuFast mode contexts (HTxn / OTxn /
// LTxn) against the shared lock table: lock-compatibility checks,
// O-mode validation and lock-busy outcomes, segment accounting, and
// L-mode buffering — exercised directly, below the router.

#include <thread>

#include <gtest/gtest.h>

#include "htm/emulated_htm.h"
#include "sync/lock_manager.h"
#include "sync/lock_table.h"
#include "tm/modes.h"

namespace tufast {
namespace {

class ModesTest : public ::testing::Test {
 protected:
  static constexpr VertexId kVertices = 64;
  EmulatedHtm htm_;
  LockTable<EmulatedHtm> locks_{htm_, kVertices};
  LockManager<EmulatedHtm> manager_{locks_};
  EmulatedHtm::Tx htx_{htm_, 0};
  std::vector<TmWord> data_ = std::vector<TmWord>(kVertices, 0);
};

TEST_F(ModesTest, HModeAbortsOnExclusivelyLockedVertexRead) {
  ASSERT_TRUE(locks_.TryLockExclusive(5));
  HTxn<EmulatedHtm> txn(htx_, locks_);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    ADD_FAILURE() << "read of exclusively locked vertex must abort";
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, kAbortCodeLockBusy);
  locks_.UnlockExclusive(5);
}

TEST_F(ModesTest, HModeReadsThroughSharedLockButWontWrite) {
  ASSERT_TRUE(locks_.TryLockShared(5));
  HTxn<EmulatedHtm> read_txn(htx_, locks_);
  const AbortStatus read_status =
      htx_.Execute([&] { (void)read_txn.Read(5, &data_[5]); });
  EXPECT_TRUE(read_status.ok()) << "shared lock is read-compatible";

  HTxn<EmulatedHtm> write_txn(htx_, locks_);
  const AbortStatus write_status = htx_.Execute([&] {
    write_txn.Write(5, &data_[5], 1);
    ADD_FAILURE() << "write under a shared holder must abort";
  });
  EXPECT_EQ(write_status.cause, AbortCause::kExplicit);
  locks_.UnlockShared(5);
}

TEST_F(ModesTest, OModeCommitPublishesAndReleases) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/100);
  const AbortStatus status = htx_.Execute([&] {
    const TmWord v = txn.Read(3, &data_[3]);
    txn.Write(3, &data_[3], v + 7);
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[3]), 7u);
  // The exclusive lock taken during publication must be released.
  EXPECT_TRUE(locks_.TryLockExclusive(3));
  locks_.UnlockExclusive(3);
}

TEST_F(ModesTest, OModeValidationFailsWhenReadValueChanged) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(2, &data_[2]);
    txn.Write(4, &data_[4], 1);
  });
  ASSERT_TRUE(status.ok());
  // A committer changes the read value between XEND and validation.
  htm_.NonTxStore(&data_[2], 99);
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kValidationFail);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[4]), 0u) << "write not published";
  EXPECT_TRUE(locks_.TryLockExclusive(4)) << "locks released on failure";
  locks_.UnlockExclusive(4);
}

TEST_F(ModesTest, OModeCommitLockBusyWhenWriteVertexHeld) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100);
  const AbortStatus status =
      htx_.Execute([&] { txn.Write(6, &data_[6], 1); });
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(locks_.TryLockShared(6));  // Somebody else holds it.
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kLockBusy);
  locks_.UnlockShared(6);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[6]), 0u);
}

TEST_F(ModesTest, OModeValidationToleratesSharedReaders) {
  // Algorithm 2 line 45: shared holders on a READ vertex are compatible.
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(100);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(8, &data_[8]);
    txn.Write(9, &data_[9], 5);
  });
  ASSERT_TRUE(status.ok());
  ASSERT_TRUE(locks_.TryLockShared(8));
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  locks_.UnlockShared(8);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[9]), 5u);
}

TEST_F(ModesTest, OModeSegmentsRollAtPeriod) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/4);
  const AbortStatus status = htx_.Execute([&] {
    // 12 reads with period 4: at least two segment boundaries must have
    // happened without losing read-set entries.
    for (int i = 0; i < 12; ++i) {
      (void)txn.Read(static_cast<VertexId>(i % kVertices),
                     &data_[i % kVertices]);
    }
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(txn.ops(), 12u);
  EXPECT_EQ(txn.CommitSoftware(), OCommitResult::kOk);
  EXPECT_GE(htx_.stats().begins, 3u);  // Initial + >= 2 boundaries.
}

TEST_F(ModesTest, OModeRereadOfVertexLockedMidSegmentNeverCommits) {
  // The second read of vertex 5 skips the lock-word load (one
  // subscription per vertex per segment). The lock line is still in the
  // segment's read set, so the acquisition in between must doom it.
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/100);
  bool locked = false;
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    std::thread([&] { locked = locks_.TryLockExclusive(5); }).join();
    (void)txn.Read(5, &data_[5]);
    txn.Write(6, &data_[6], 1);
  });
  ASSERT_TRUE(locked);
  if (status.ok()) {
    EXPECT_NE(txn.CommitSoftware(), OCommitResult::kOk);
  } else {
    EXPECT_EQ(status.cause, AbortCause::kConflict);
  }
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[6]), 0u) << "write not published";
  locks_.UnlockExclusive(5);
}

TEST_F(ModesTest, OModeSegmentBoundaryResubscribesTheLockWord) {
  // Period 2: the second read of vertex 5 first rolls the segment. The
  // new segment's begin hook locks vertex 5 — after the old segment,
  // which had subscribed it, committed — so nothing is doomed, and only
  // a fresh subscription in the new segment can see the lock.
  struct HookCtx {
    LockTable<EmulatedHtm>* locks;
    int begins = 0;
    bool locked = false;
  } ctx{&locks_};
  EmulatedHtm::Tx::Hooks hooks;
  hooks.on_begin = [](void* p) {
    auto* c = static_cast<HookCtx*>(p);
    if (++c->begins == 2) c->locked = c->locks->TryLockExclusive(5);
  };
  hooks.ctx = &ctx;
  htx_.SetHooks(hooks);
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/2);
  const AbortStatus status = htx_.Execute([&] {
    (void)txn.Read(5, &data_[5]);
    (void)txn.Read(5, &data_[5]);
    ADD_FAILURE() << "read of a vertex locked since the boundary must abort";
  });
  htx_.SetHooks({});
  ASSERT_TRUE(ctx.locked);
  EXPECT_EQ(ctx.begins, 2);
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, kAbortCodeLockBusy);
  locks_.UnlockExclusive(5);
}

TEST_F(ModesTest, LModeBuffersWritesUntilCommit) {
  LTxn<EmulatedHtm> txn(htm_, /*slot=*/0, manager_);
  txn.Reset();
  txn.Write(1, &data_[1], 11);
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 0u) << "buffered, not applied";
  EXPECT_EQ(txn.Read(1, &data_[1]), 11u) << "read-own-write";
  txn.CommitApplyAndRelease();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[1]), 11u);
  EXPECT_TRUE(locks_.TryLockExclusive(1)) << "locks released";
  locks_.UnlockExclusive(1);
}

TEST_F(ModesTest, LModeReleaseAllDiscardsBufferedWrites) {
  LTxn<EmulatedHtm> txn(htm_, 0, manager_);
  txn.Reset();
  txn.Write(2, &data_[2], 22);
  (void)txn.Read(3, &data_[3]);
  txn.ReleaseAll();  // Abort path.
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[2]), 0u);
  EXPECT_TRUE(locks_.TryLockExclusive(2));
  EXPECT_TRUE(locks_.TryLockExclusive(3));
  locks_.UnlockExclusive(2);
  locks_.UnlockExclusive(3);
}

TEST_F(ModesTest, LModeReadForUpdateTakesExclusiveImmediately) {
  LTxn<EmulatedHtm> txn(htm_, 0, manager_);
  txn.Reset();
  (void)txn.ReadForUpdate(4, &data_[4]);
  EXPECT_FALSE(locks_.TryLockShared(4)) << "exclusive from first touch";
  txn.ReleaseAll();
  EXPECT_TRUE(locks_.TryLockShared(4));
  locks_.UnlockShared(4);
}

TEST_F(ModesTest, OModeOnlyVertexLeavesBeforeAnyRead) {
  OTxn<EmulatedHtm> txn(htm_, htx_, locks_);
  txn.Reset(/*period=*/100);
  const AbortStatus status = htx_.Execute([&] {
    txn.OnlyVertex(3);
    ADD_FAILURE() << "O mode must route a one-vertex body out";
  });
  EXPECT_EQ(status.cause, AbortCause::kExplicit);
  EXPECT_EQ(status.user_code, kAbortCodeOnlyVertex);
  EXPECT_EQ(txn.ops(), 0u);
}

TEST_F(ModesTest, HAndLModesRunOnlyVertexBodiesUnchanged) {
  HTxn<EmulatedHtm> htxn(htx_, locks_);
  const AbortStatus status = htx_.Execute([&] {
    htxn.OnlyVertex(3);
    htxn.Write(3, &data_[3], htxn.Read(3, &data_[3]) + 1);
  });
  EXPECT_TRUE(status.ok());

  LTxn<EmulatedHtm> ltxn(htm_, 0, manager_);
  ltxn.Reset();
  ltxn.OnlyVertex(3);
  ltxn.Write(3, &data_[3], ltxn.ReadForUpdate(3, &data_[3]) + 1);
  ltxn.CommitApplyAndRelease();
  EXPECT_EQ(EmulatedHtm::NonTxLoad(&data_[3]), 2u);
  // Reset forgets the declaration: a new transaction may touch any vertex.
  ltxn.Reset();
  (void)ltxn.Read(4, &data_[4]);
  ltxn.ReleaseAll();
}

}  // namespace
}  // namespace tufast
