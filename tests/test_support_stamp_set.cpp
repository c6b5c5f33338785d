// StampSet unit tests.
#include <gtest/gtest.h>

#include "support/stamp_set.hpp"

namespace rumor {
namespace {

TEST(StampSet, InsertAndContains) {
  StampSet s(10);
  EXPECT_FALSE(s.contains(3));
  s.insert(3);
  EXPECT_TRUE(s.contains(3));
  EXPECT_FALSE(s.contains(4));
}

TEST(StampSet, AdvanceClearsInConstantTime) {
  StampSet s(5);
  s.insert(0);
  s.insert(4);
  s.advance();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(s.contains(i));
  s.insert(2);
  EXPECT_TRUE(s.contains(2));
}

TEST(StampSet, ManyEpochsStayCorrect) {
  StampSet s(3);
  for (int epoch = 0; epoch < 1000; ++epoch) {
    s.insert(epoch % 3);
    EXPECT_TRUE(s.contains(epoch % 3));
    EXPECT_FALSE(s.contains((epoch + 1) % 3));
    s.advance();
  }
}

// advance() clears only the words of the logical size: a set shrunk after
// a large one must read as empty over its new range, and again once it
// regrows over the words the shrink left alone.
TEST(StampSet, SmallSizeAfterLargeReadsEmpty) {
  StampSet s(1000);
  for (std::size_t i = 0; i < 1000; i += 7) s.insert(i);
  s.reset(100);
  EXPECT_EQ(s.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i)) << i;
  s.insert(99);
  s.advance();
  EXPECT_FALSE(s.contains(99));
  s.reset(1000);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_FALSE(s.contains(i)) << i;
}

}  // namespace
}  // namespace rumor
