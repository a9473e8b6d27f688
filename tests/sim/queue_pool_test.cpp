// Unit tests for the flat arena-backed queue pool and the active-set
// scheduler backing the network hot path.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "rng/xoshiro.hpp"
#include "sim/active_set.hpp"
#include "sim/queue_pool.hpp"

namespace ksw::sim {
namespace {

TEST(QueuePool, FifoPerQueue) {
  QueuePool<int> pool(3);
  pool.push(1, 10);
  pool.push(1, 11);
  pool.push(1, 12);
  EXPECT_TRUE(pool.empty(0));
  EXPECT_EQ(pool.size(1), 3u);
  EXPECT_EQ(pool.front(1), 10);
  pool.pop(1);
  EXPECT_EQ(pool.front(1), 11);
  pool.pop(1);
  pool.push(1, 13);
  EXPECT_EQ(pool.front(1), 12);
  pool.pop(1);
  EXPECT_EQ(pool.front(1), 13);
  pool.pop(1);
  EXPECT_TRUE(pool.empty(1));
}

TEST(QueuePool, GrowthPreservesOrderAcrossWrap) {
  // Push/pop interleaving forces the ring head away from slot 0, then a
  // burst forces capacity doubling while the ring is wrapped.
  QueuePool<std::uint64_t> pool(1, 4);
  for (std::uint64_t i = 0; i < 3; ++i) pool.push(0, i);
  pool.pop(0);
  pool.pop(0);  // head is now mid-ring
  for (std::uint64_t i = 3; i < 40; ++i) pool.push(0, i);
  EXPECT_EQ(pool.size(0), 38u);
  for (std::uint64_t want = 2; want < 40; ++want) {
    EXPECT_EQ(pool.front(0), want);
    pool.pop(0);
  }
  EXPECT_TRUE(pool.empty(0));
}

TEST(QueuePool, ManyQueuesInterleavedMatchDeque) {
  // Randomized differential test against std::deque on 17 queues.
  constexpr std::size_t kQueues = 17;
  QueuePool<std::uint32_t> pool(kQueues);
  std::vector<std::deque<std::uint32_t>> ref(kQueues);
  rng::Xoshiro256 gen(7);
  for (std::uint32_t step = 0; step < 20'000; ++step) {
    const auto q = static_cast<std::size_t>(gen.uniform_int(kQueues));
    if (gen.uniform() < 0.55 || ref[q].empty()) {
      pool.push(q, step);
      ref[q].push_back(step);
    } else {
      ASSERT_EQ(pool.front(q), ref[q].front());
      pool.pop(q);
      ref[q].pop_front();
    }
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    ASSERT_EQ(pool.size(q), ref[q].size());
    for (std::size_t i = 0; i < ref[q].size(); ++i)
      EXPECT_EQ(pool.at(q, i), ref[q][i]);
  }
}

TEST(QueuePool, AtIndexesFromHead) {
  QueuePool<int> pool(2, 4);
  for (int i = 0; i < 6; ++i) pool.push(0, i);
  pool.pop(0);
  ASSERT_EQ(pool.size(0), 5u);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_EQ(pool.at(0, i), static_cast<int>(i) + 1);
}

TEST(QueuePool, FixedModeWrapsWithinCapacity) {
  // Fixed pools never reallocate; the ring must still wrap cleanly when
  // the head circles the full capacity many times.
  QueuePool<int> pool(2, 4, /*fixed=*/true);
  int next = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 4; ++i) pool.push(1, next + i);
    ASSERT_EQ(pool.size(1), 4u);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(pool.front(1), next + i);
      pool.pop(1);
    }
    next += 4;
  }
  EXPECT_TRUE(pool.empty(1));
  EXPECT_EQ(pool.capacity(1), 4u);
}

TEST(QueuePool, FixedModePushBeyondCapacityThrows) {
  // An overflow in fixed mode is a flow-control bug, not a resize: the
  // pool must fail loudly instead of silently doubling.
  QueuePool<int> pool(1, 4, /*fixed=*/true);
  for (int i = 0; i < 4; ++i) pool.push(0, i);
  EXPECT_THROW(pool.push(0, 99), std::logic_error);
  // The ring is unchanged after the rejected push.
  EXPECT_EQ(pool.size(0), 4u);
  EXPECT_EQ(pool.front(0), 0);
}

std::vector<std::uint32_t> candidates(ActiveSet& set) {
  std::vector<std::uint32_t> out;
  set.for_each_candidate([&](std::uint32_t a) { out.push_back(a); });
  return out;
}

TEST(ActiveSet, YieldsOccupiedInAscendingOrder) {
  // Ascending order is load-bearing: the stats accumulators are
  // order-sensitive, so the scan must visit ports exactly like the full
  // sweep the seed engine used.
  ActiveSet set(130);  // spans three 64-bit words
  for (std::uint32_t a : {129u, 0u, 64u, 63u, 5u, 128u}) set.mark_occupied(a);
  EXPECT_EQ(candidates(set),
            (std::vector<std::uint32_t>{0, 5, 63, 64, 128, 129}));
}

TEST(ActiveSet, BusyPortsAreSkippedUntilExpiry) {
  ActiveSet set(8);
  set.mark_occupied(2);
  set.mark_occupied(5);
  set.mark_busy(2, /*clear_at=*/10);
  set.expire(9);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{5}));
  set.expire(10);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{2, 5}));
}

TEST(ActiveSet, ClearOccupiedRemovesCandidate) {
  ActiveSet set(8);
  set.mark_occupied(1);
  set.mark_occupied(6);
  set.clear_occupied(6);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1}));
}

TEST(ActiveSet, WheelReleasesAtTheExactCycle) {
  // Span 4: a busy period of d <= 4 cycles lives in slot (t + d) mod 4
  // and must be released by expire(t + d), not a cycle earlier or later.
  for (std::int64_t d = 1; d <= 4; ++d) {
    SCOPED_TRACE("d = " + std::to_string(d));
    ActiveSet set(70, 4);
    set.mark_occupied(66);
    for (std::int64_t t = 0; t < 5; ++t) set.expire(t);
    set.mark_busy(66, 4 + d);
    EXPECT_EQ(set.overflow_size(), 0u);
    for (std::int64_t t = 5; t < 4 + d; ++t) {
      set.expire(t);
      EXPECT_TRUE(candidates(set).empty()) << "released early at " << t;
    }
    set.expire(4 + d);
    EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{66}));
  }
}

TEST(ActiveSet, ServiceLongerThanSpanTakesOverflow) {
  ActiveSet set(8, ActiveSet::span_for(3));  // span 4
  set.mark_occupied(1);
  set.mark_occupied(2);
  set.expire(0);
  set.mark_busy(1, 3);   // 3 cycles: wheel
  set.mark_busy(2, 10);  // 10 cycles: longer than the span
  EXPECT_EQ(set.overflow_size(), 1u);
  for (std::int64_t t = 1; t < 10; ++t) {
    set.expire(t);
    // Port 2's slot (10 mod 4 == 2) is passed at t = 2 and t = 6; only
    // the overflow heap may release it, at t = 10.
    EXPECT_EQ(candidates(set), t < 3 ? std::vector<std::uint32_t>{}
                                     : std::vector<std::uint32_t>{1});
  }
  set.expire(10);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(set.overflow_size(), 0u);
}

TEST(ActiveSet, ExpireCatchesUpAfterSkippedCycles) {
  ActiveSet set(128, 8);
  set.mark_occupied(3);
  set.mark_occupied(100);
  set.expire(0);
  set.mark_busy(3, 5);
  set.mark_busy(100, 8);
  set.expire(6);  // cycles 1..5 skipped: port 3 released, 100 still busy
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3}));
  set.mark_busy(3, 9);
  set.expire(40);  // skips more than a whole revolution
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3, 100}));
  // The wheel is clean afterwards: a new period still ends on time.
  set.mark_busy(3, 42);
  set.expire(41);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{100}));
  set.expire(42);
  EXPECT_EQ(candidates(set), (std::vector<std::uint32_t>{3, 100}));
}

TEST(ActiveSet, SpanIsAPowerOfTwoCappedForLongServices) {
  EXPECT_EQ(ActiveSet::span_for(1), 1u);
  EXPECT_EQ(ActiveSet::span_for(4), 4u);
  EXPECT_EQ(ActiveSet::span_for(5), 8u);
  EXPECT_EQ(ActiveSet::span_for(100), ActiveSet::kMaxSpan);
  EXPECT_EQ(ActiveSet::span_for(UINT32_MAX), ActiveSet::kMaxSpan);
}

}  // namespace
}  // namespace ksw::sim
