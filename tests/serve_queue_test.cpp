// Tests for the serving tier's bounded MPMC queue and overflow
// policies (serve/bounded_queue.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "serve/bounded_queue.h"

namespace bp::serve {
namespace {

// Pops one item; nullopt once the queue is closed and drained.
template <typename T>
std::optional<T> pop_one(BoundedQueue<T>& queue) {
  std::vector<T> batch;
  if (queue.pop_batch(batch, 1) == 0) return std::nullopt;
  return std::move(batch.front());
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(8, OverflowPolicy::kBlock);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.push(i), PushResult::kAccepted);
  EXPECT_EQ(queue.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pop_one(queue), i);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, PopBatchCapsAtMaxAndDrainsFifo) {
  BoundedQueue<int> queue(16, OverflowPolicy::kBlock);
  for (int i = 0; i < 10; ++i) queue.push(i);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch(batch, 4), 4u);
  EXPECT_EQ(std::vector<int>(batch.begin(), batch.begin() + 4),
            (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(queue.pop_batch(batch, 100), 6u);
  EXPECT_EQ(batch.front(), 4);
  EXPECT_EQ(batch[5], 9);
}

TEST(BoundedQueue, RejectRefusesWhenFull) {
  BoundedQueue<int> queue(2, OverflowPolicy::kReject);
  EXPECT_EQ(queue.push(0), PushResult::kAccepted);
  EXPECT_EQ(queue.push(1), PushResult::kAccepted);
  EXPECT_EQ(queue.push(2), PushResult::kRejected);
  EXPECT_EQ(queue.size(), 2u);  // rejected item was not enqueued
  ASSERT_EQ(pop_one(queue), 0);
  EXPECT_EQ(queue.push(2), PushResult::kAccepted);  // space freed
}

TEST(BoundedQueue, BlockPolicyWaitsForSpace) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  EXPECT_EQ(queue.push(0), PushResult::kAccepted);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.push(1), PushResult::kAccepted);
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  ASSERT_EQ(pop_one(queue), 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(pop_one(queue), 1);
}

TEST(BoundedQueue, CloseUnblocksBlockedProducer) {
  BoundedQueue<int> queue(1, OverflowPolicy::kBlock);
  queue.push(0);
  std::thread blocked_producer([&] {
    // Nobody ever pops, so the only way out of the full-queue wait is
    // the close.
    EXPECT_EQ(queue.push(1), PushResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  blocked_producer.join();
  EXPECT_EQ(queue.push(7), PushResult::kClosed);
}

TEST(BoundedQueue, CloseUnblocksConsumerAfterDraining) {
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  queue.push(42);
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    while (pop_one(queue)) popped.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();  // wakes the empty-queue wait; pop returns false
  consumer.join();
  EXPECT_EQ(popped.load(), 1);  // the queued item was drained, not lost
}

TEST(BoundedQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'000;
  BoundedQueue<int> queue(64, OverflowPolicy::kBlock);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      while (const std::size_t n = queue.pop_batch(batch, 16)) {
        for (const int v : std::span(batch).first(n)) {
          sum.fetch_add(static_cast<std::uint64_t>(v));
          count.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_EQ(queue.push(p * kPerProducer + i), PushResult::kAccepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), kTotal);
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kTotal) * (kTotal - 1) / 2);
}

// Items of varying length through a 7-slot ring for 60 laps, pushed in
// bursts and popped in batches of varying size.  Item i always lands in
// slot i % 7, so every slot alternates a 28-element item with a
// 3-element one: a copy into a slot that kept a longer buffer must not
// leak its stale tail, and the batch elements swapped back into the
// ring must not either.
TEST(BoundedQueue, FifoAcrossManyWrapsWithVaryingItemLengths) {
  constexpr std::size_t kCapacity = 7;
  constexpr int kItems = 60 * static_cast<int>(kCapacity);
  BoundedQueue<std::vector<int>> queue(kCapacity, OverflowPolicy::kBlock);
  const auto item = [](int i) {
    const std::size_t lap = static_cast<std::size_t>(i) / kCapacity;
    std::vector<int> v(lap % 2 == 0 ? 28 : 3);
    for (std::size_t j = 0; j < v.size(); ++j) {
      v[j] = i * 100 + static_cast<int>(j);
    }
    return v;
  };
  std::vector<std::vector<int>> batch;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; popped < kItems; ++round) {
    const int burst = 1 + round % 5;
    for (int b = 0; b < burst && pushed < kItems &&
                    queue.size() < kCapacity;
         ++b) {
      ASSERT_EQ(queue.push(item(pushed++)), PushResult::kAccepted);
    }
    const std::size_t n =
        queue.pop_batch(batch, 1 + static_cast<std::size_t>(round % 4));
    ASSERT_GT(n, 0u);
    for (const std::vector<int>& got : std::span(batch).first(n)) {
      ASSERT_EQ(got, item(popped)) << "item " << popped;
      ++popped;
    }
  }
  EXPECT_EQ(pushed, kItems);
  EXPECT_EQ(queue.size(), 0u);
}

// kReject on a full ring whose occupied range straddles the seam (the
// last slot to the first): one pop frees exactly one slot, the next
// push lands across the seam, and order holds.
TEST(BoundedQueue, RejectFreesOneSlotAcrossTheSeam) {
  BoundedQueue<int> queue(4, OverflowPolicy::kReject);
  for (int i = 0; i < 2; ++i) ASSERT_EQ(queue.push(-1), PushResult::kAccepted);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch(batch, 2), 2u);  // head now mid-ring
  for (int i = 0; i < 4; ++i) ASSERT_EQ(queue.push(i), PushResult::kAccepted);
  EXPECT_EQ(queue.push(4), PushResult::kRejected);
  ASSERT_EQ(pop_one(queue), 0);
  EXPECT_EQ(queue.push(4), PushResult::kAccepted);
  EXPECT_EQ(queue.push(5), PushResult::kRejected);
  ASSERT_EQ(queue.pop_batch(batch, 8), 4u);
  EXPECT_EQ(std::vector<int>(batch.begin(), batch.begin() + 4),
            (std::vector<int>{1, 2, 3, 4}));
}

// 4 producers and 2 consumers with close() arriving mid-stream: every
// accepted item is popped exactly once (intact: each carries its id
// and its complement), and once a producer has seen kClosed every
// later push is kClosed too.
TEST(BoundedQueue, CloseMidStreamPopsEveryAcceptedItemExactlyOnce) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 1'000'000;
  BoundedQueue<std::vector<std::uint32_t>> queue(16, OverflowPolicy::kBlock);
  std::vector<std::uint32_t> accepted[kProducers];
  std::vector<std::uint32_t> popped[2];
  std::atomic<std::size_t> popped_total{0};
  std::atomic<int> corrupted{0};
  std::atomic<int> pushes_after_close_accepted{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<std::vector<std::uint32_t>> batch;
      while (const std::size_t n = queue.pop_batch(batch, 8)) {
        for (const auto& got : std::span(batch).first(n)) {
          if (got.size() != 2 || got[1] != ~got[0]) corrupted.fetch_add(1);
          if (!got.empty()) popped[c].push_back(got[0]);
        }
        popped_total.fetch_add(n);
      }
    });
  }
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      PushResult result = PushResult::kAccepted;
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        const std::uint32_t id = p * kPerProducer + i;
        result = queue.push({id, ~id});
        if (result != PushResult::kAccepted) break;
        accepted[p].push_back(id);
      }
      EXPECT_EQ(result, PushResult::kClosed);
      for (int k = 0; k < 3; ++k) {
        if (queue.push({0, ~0u}) != PushResult::kClosed) {
          pushes_after_close_accepted.fetch_add(1);
        }
      }
    });
  }
  while (popped_total.load() < 20'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(corrupted.load(), 0);
  EXPECT_EQ(pushes_after_close_accepted.load(), 0);
  std::vector<std::uint32_t> want;
  for (const auto& ids : accepted) want.insert(want.end(), ids.begin(), ids.end());
  std::vector<std::uint32_t> got = popped[0];
  got.insert(got.end(), popped[1].begin(), popped[1].end());
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_LT(want.size(), kProducers * kPerProducer) << "close() came too late";
  EXPECT_EQ(got, want);
}

// max_batch 0 takes one item per call: a `while (pop_batch(out, 0))`
// loop drains the queue and ends instead of spinning on empty batches.
TEST(BoundedQueue, PopBatchOfZeroTakesOneItemAndCannotSpin) {
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  for (int i = 0; i < 3; ++i) ASSERT_EQ(queue.push(i), PushResult::kAccepted);
  queue.close();
  std::vector<int> batch;
  int popped = 0;
  while (const std::size_t n = queue.pop_batch(batch, 0)) {
    ASSERT_EQ(n, 1u);
    EXPECT_EQ(batch.front(), popped);
    ASSERT_LE(++popped, 3);
  }
  EXPECT_EQ(popped, 3);
}

}  // namespace
}  // namespace bp::serve
