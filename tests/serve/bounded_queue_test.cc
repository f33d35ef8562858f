/**
 * Contract tests of the serving runtime's bounded MPMC admission
 * queue (serve/ticket_ring.hh): FIFO order, shedding when full,
 * blocking push/pop, and close() draining then stopping.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "serve/ticket_ring.hh"

namespace wsearch {
namespace {

TEST(BoundedQueue, FifoOrder)
{
    TicketRing<int> q(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(q.tryPush(std::move(i)));
    EXPECT_EQ(q.depth(), 5u);
    int out;
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(q.pop(out));
        EXPECT_EQ(out, i);
    }
    EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, TryPushShedsWhenFull)
{
    TicketRing<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // full: shed
    int out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_TRUE(q.tryPush(3)); // space again
}

TEST(BoundedQueue, TryPushLeavesValueIntactOnShed)
{
    TicketRing<std::vector<int>> q(1);
    EXPECT_TRUE(q.tryPush({1}));
    std::vector<int> v{1, 2, 3};
    EXPECT_FALSE(q.tryPush(std::move(v)));
    // Shed must not have moved the value out.
    EXPECT_EQ(v.size(), 3u);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace)
{
    TicketRing<int> q(1);
    EXPECT_TRUE(q.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // blocks until the pop below
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    int out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 2);
}

TEST(BoundedQueue, PopBlocksUntilPush)
{
    TicketRing<int> q(4);
    std::atomic<int> got{-1};
    std::thread consumer([&] {
        int out;
        EXPECT_TRUE(q.pop(out));
        got.store(out);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(got.load(), -1);
    EXPECT_TRUE(q.tryPush(42));
    consumer.join();
    EXPECT_EQ(got.load(), 42);
}

TEST(BoundedQueue, CloseDrainsThenStops)
{
    TicketRing<int> q(8);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.tryPush(3)); // closed: refused
    EXPECT_FALSE(q.push(4));
    int out;
    EXPECT_TRUE(q.pop(out)); // queued items still drain
    EXPECT_EQ(out, 1);
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(q.pop(out)); // drained + closed: shutdown signal
}

TEST(BoundedQueue, CloseUnblocksBlockedPush)
{
    TicketRing<int> q(1);
    EXPECT_TRUE(q.tryPush(1));
    std::atomic<bool> returned{false};
    std::thread blocked_push([&] {
        EXPECT_FALSE(q.push(2)); // full, then closed: refused
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    q.close();
    blocked_push.join();
    EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, CloseUnblocksBlockedPop)
{
    TicketRing<int> q(1);
    std::atomic<bool> returned{false};
    std::thread blocked_pop([&] {
        int out;
        EXPECT_FALSE(q.pop(out)); // empty, then closed: shutdown
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    q.close();
    blocked_pop.join();
    EXPECT_TRUE(returned.load());
}

TEST(BoundedQueue, MpmcStressPreservesItems)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;
    TicketRing<int> q(64);
    std::atomic<long long> sum{0};
    std::atomic<int> popped{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&q, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                ASSERT_TRUE(q.push(std::move(v)));
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            int out;
            while (q.pop(out)) {
                sum.fetch_add(out);
                popped.fetch_add(1);
            }
        });
    }
    for (int p = 0; p < kProducers; ++p)
        threads[p].join();
    q.close();
    for (size_t t = kProducers; t < threads.size(); ++t)
        threads[t].join();

    const long long n = kProducers * kPerProducer;
    EXPECT_EQ(popped.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_EQ(q.depth(), 0u);
}

} // namespace
} // namespace wsearch
