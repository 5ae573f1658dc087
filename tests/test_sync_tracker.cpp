#include "fl/sync_tracker.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace gluefl {
namespace {

BitMask mask_of(size_t dim, std::initializer_list<uint32_t> idx) {
  return BitMask::from_indices(dim, std::vector<uint32_t>(idx));
}

TEST(SyncTracker, NeverSyncedClientNeedsFullModel) {
  SyncTracker t(4, 100);
  EXPECT_EQ(t.stale_positions(0, 0), 100u);
  EXPECT_EQ(t.stale_mask(0, 0).count(), 100u);
  EXPECT_EQ(t.staleness(0, 0), -1);
}

TEST(SyncTracker, CurrentClientNeedsNothing) {
  SyncTracker t(4, 100);
  t.mark_synced(1, 0);
  EXPECT_EQ(t.stale_positions(1, 0), 0u);
  EXPECT_FALSE(t.stale_mask(1, 0).any());
  EXPECT_EQ(t.staleness(1, 0), 0);
}

TEST(SyncTracker, SingleRoundDiff) {
  SyncTracker t(4, 100);
  t.mark_synced(0, 0);
  t.record_round_changes(0, mask_of(100, {1, 2, 3}));
  EXPECT_EQ(t.stale_positions(0, 1), 3u);
  EXPECT_TRUE(t.stale_mask(0, 1) == mask_of(100, {1, 2, 3}));
  EXPECT_EQ(t.staleness(0, 1), 1);
}

TEST(SyncTracker, UnionAccumulatesOverMissedRounds) {
  SyncTracker t(2, 100);
  t.mark_synced(0, 0);
  t.record_round_changes(0, mask_of(100, {1, 2}));
  t.record_round_changes(1, mask_of(100, {2, 3}));
  t.record_round_changes(2, mask_of(100, {10}));
  // Union {1,2} | {2,3} | {10} = {1,2,3,10}.
  EXPECT_EQ(t.stale_positions(0, 3), 4u);
}

TEST(SyncTracker, OverlappingMasksDoNotDoubleCount) {
  SyncTracker t(2, 50);
  t.mark_synced(0, 0);
  for (int r = 0; r < 5; ++r) {
    t.record_round_changes(r, mask_of(50, {7, 8, 9}));
  }
  EXPECT_EQ(t.stale_positions(0, 5), 3u);
}

TEST(SyncTracker, ReSyncResetsTheDiff) {
  SyncTracker t(2, 50);
  t.mark_synced(0, 0);
  t.record_round_changes(0, mask_of(50, {1}));
  t.record_round_changes(1, mask_of(50, {2}));
  t.mark_synced(0, 2);
  t.record_round_changes(2, mask_of(50, {3}));
  EXPECT_EQ(t.stale_positions(0, 3), 1u);
}

TEST(SyncTracker, FullModelCapsTheDiff) {
  SyncTracker t(2, 10);
  t.mark_synced(0, 0);
  BitMask all(10);
  all.set_all();
  t.record_round_changes(0, all);
  EXPECT_EQ(t.stale_positions(0, 1), 10u);
  EXPECT_TRUE(t.stale_mask(0, 1) == all);
}

TEST(SyncTracker, WindowEvictionForcesFullSync) {
  SyncTracker t(2, 100, /*window=*/3);
  t.mark_synced(0, 0);
  for (int r = 0; r < 5; ++r) {
    t.record_round_changes(r, mask_of(100, {static_cast<uint32_t>(r)}));
  }
  // Rounds 0-1 have been evicted from the window; client 0 synced at 0.
  EXPECT_EQ(t.stale_positions(0, 5), 100u);
  // A fresher client is still served incrementally.
  t.mark_synced(1, 3);
  EXPECT_EQ(t.stale_positions(1, 5), 2u);
}

TEST(SyncTracker, RejectsNonConsecutiveRounds) {
  SyncTracker t(2, 10);
  t.record_round_changes(0, mask_of(10, {1}));
  EXPECT_THROW(t.record_round_changes(2, mask_of(10, {1})), CheckError);
}

TEST(SyncTracker, RejectsWrongDimension) {
  SyncTracker t(2, 10);
  EXPECT_THROW(t.record_round_changes(0, mask_of(11, {1})), CheckError);
}

TEST(SyncTracker, ChangedUnionQueriesArbitraryWindows) {
  SyncTracker t(2, 100);
  t.record_round_changes(0, mask_of(100, {1, 2}));
  t.record_round_changes(1, mask_of(100, {2, 3}));
  t.record_round_changes(2, mask_of(100, {50}));
  EXPECT_EQ(t.changed_union(0, 1), 2u);
  EXPECT_EQ(t.changed_union(0, 2), 3u);
  EXPECT_EQ(t.changed_union(0, 3), 4u);
  EXPECT_EQ(t.changed_union(1, 3), 3u);
  EXPECT_EQ(t.changed_union(2, 2), 0u);
  EXPECT_THROW(t.changed_union(0, 4), CheckError);
}

TEST(SyncTracker, StalenessGrowsPerRound) {
  SyncTracker t(2, 10);
  t.mark_synced(0, 2);
  EXPECT_EQ(t.staleness(0, 2), 0);
  EXPECT_EQ(t.staleness(0, 7), 5);
  EXPECT_EQ(t.last_synced_round(0), 2);
  EXPECT_EQ(t.last_synced_round(1), -1);
}

}  // namespace
}  // namespace gluefl
