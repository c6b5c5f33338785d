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

}  // namespace
}  // namespace rumor
