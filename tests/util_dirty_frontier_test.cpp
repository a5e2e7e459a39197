// Tests for the level-bucketed dirty-set helper the incremental engine
// drains its moment and SSTA waves through.

#include "util/dirty_frontier.hpp"

#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace spsta::util {
namespace {

TEST(DirtyFrontier, StartsEmptyAndMarksDeduplicate) {
  DirtyFrontier frontier({0, 1, 1, 2});
  EXPECT_FALSE(frontier.any());
  EXPECT_EQ(frontier.pending(), 0u);

  EXPECT_TRUE(frontier.mark(1));
  EXPECT_FALSE(frontier.mark(1));  // already pending
  EXPECT_TRUE(frontier.any());
  EXPECT_EQ(frontier.pending(), 1u);
  EXPECT_TRUE(frontier.marked(1));
  EXPECT_FALSE(frontier.marked(2));
}

TEST(DirtyFrontier, TakeLevelReturnsMarkOrderAndClearsFlags) {
  DirtyFrontier frontier({0, 1, 1, 1, 2});
  frontier.mark(3);
  frontier.mark(1);
  frontier.mark(2);

  std::vector<std::uint32_t> batch;
  frontier.take_level(1, batch);
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{3, 1, 2}));  // mark order
  EXPECT_FALSE(frontier.any());
  EXPECT_FALSE(frontier.marked(3));

  // A taken id can be re-marked (the next wave's view is fresh).
  EXPECT_TRUE(frontier.mark(3));
  EXPECT_EQ(frontier.pending(), 1u);
}

TEST(DirtyFrontier, FirstLevelTracksLowestPendingBucket) {
  DirtyFrontier frontier({0, 1, 2, 3});
  frontier.mark(2);
  frontier.mark(3);
  EXPECT_EQ(frontier.first_level(), 2u);

  std::vector<std::uint32_t> batch;
  frontier.take_level(2, batch);
  EXPECT_EQ(batch, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(frontier.first_level(), 3u);
  frontier.take_level(3, batch);
  EXPECT_FALSE(frontier.any());
}

TEST(DirtyFrontier, DrainWithInWaveMarksVisitsLevelsInOrder) {
  // Simulated propagation: taking level L may mark ids at levels > L —
  // the exact shape the engines' fanout marking produces.
  DirtyFrontier frontier({0, 0, 1, 1, 2, 3});
  frontier.mark(0);
  frontier.mark(1);

  std::vector<std::size_t> levels_seen;
  std::vector<std::uint32_t> batch;
  while (frontier.any()) {
    const std::size_t level = frontier.first_level();
    frontier.take_level(level, batch);
    ASSERT_FALSE(batch.empty());
    levels_seen.push_back(level);
    for (const std::uint32_t id : batch) {
      if (id == 0) frontier.mark(2);
      if (id == 1) frontier.mark(3);
      if (id == 2) frontier.mark(4);
      if (id == 4) frontier.mark(5);
    }
  }
  EXPECT_EQ(levels_seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(DirtyFrontier, ResetRekeysTopologyAndDropsMarks) {
  DirtyFrontier frontier({0, 1});
  frontier.mark(1);
  frontier.reset({0, 0, 5});
  EXPECT_FALSE(frontier.any());
  EXPECT_TRUE(frontier.mark(2));
  EXPECT_EQ(frontier.first_level(), 5u);
}

TEST(DirtyFrontier, MarkOutOfRangeThrows) {
  DirtyFrontier frontier({0, 1});
  EXPECT_THROW(frontier.mark(2), std::out_of_range);
  DirtyFrontier empty;
  EXPECT_THROW(empty.mark(0), std::out_of_range);
}

}  // namespace
}  // namespace spsta::util
