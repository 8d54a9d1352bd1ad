// Tests for the serving tier's bounded MPMC queue and overflow
// policies (serve/bounded_queue.h).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "serve/bounded_queue.h"

namespace bp::serve {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(8, OverflowPolicy::kBlock);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(queue.push(i), PushResult::kAccepted);
  EXPECT_EQ(queue.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueue, PopBatchCapsAtMaxAndDrainsFifo) {
  BoundedQueue<int> queue(16, OverflowPolicy::kBlock);
  for (int i = 0; i < 10; ++i) queue.push(i);
  std::vector<int> batch;
  ASSERT_TRUE(queue.pop_batch(batch, 4));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(queue.pop_batch(batch, 100));
  EXPECT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch.front(), 4);
  EXPECT_EQ(batch.back(), 9);
}

TEST(BoundedQueue, RejectRefusesWhenFull) {
  BoundedQueue<int> queue(2, OverflowPolicy::kReject);
  EXPECT_EQ(queue.push(0), PushResult::kAccepted);
  EXPECT_EQ(queue.push(1), PushResult::kAccepted);
  EXPECT_EQ(queue.push(2), PushResult::kRejected);
  EXPECT_EQ(queue.size(), 2u);  // rejected item was not enqueued
  int out = -1;
  ASSERT_TRUE(queue.pop(out));
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
  int out = -1;
  ASSERT_TRUE(queue.pop(out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
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
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, CloseUnblocksConsumerAfterDraining) {
  BoundedQueue<int> queue(4, OverflowPolicy::kBlock);
  queue.push(42);
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    int out = -1;
    while (queue.pop(out)) popped.fetch_add(1);
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
      while (queue.pop_batch(batch, 16)) {
        for (int v : batch) {
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

}  // namespace
}  // namespace bp::serve
