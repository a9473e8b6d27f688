#include "rng/splitmix.hpp"

#include <gtest/gtest.h>

namespace ksw::rng {
namespace {

TEST(SplitMix64, KnownAnswerSequence) {
  // Reference values for seed 1234567 from the public-domain SplitMix64
  // reference implementation.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);
}

TEST(SplitMix64, ZeroSeedIsFine) {
  SplitMix64 sm(0);
  EXPECT_NE(sm.next(), 0ULL);
}

}  // namespace
}  // namespace ksw::rng
