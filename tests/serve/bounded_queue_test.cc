/**
 * Tests of the serving runtime's bounded MPMC admission queue
 * (serve/bounded_queue.hh): the contract (FIFO order, shedding when
 * full, blocking push/pop, close() draining then stopping, join()
 * waiting for done()), then stress cases that race producers,
 * consumers and close(). Carries the "serve" ctest label, so CI's
 * TSan leg runs every test here.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/bounded_queue.hh"

namespace wsearch {
namespace {

TEST(BoundedQueue, FifoOrder)
{
    BoundedQueue<int> q(8);
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
    BoundedQueue<int> q(2);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_FALSE(q.tryPush(3)); // full: shed
    int out;
    EXPECT_TRUE(q.pop(out));
    EXPECT_TRUE(q.tryPush(3)); // space again
}

TEST(BoundedQueue, TryPushLeavesValueIntactOnShed)
{
    BoundedQueue<std::vector<int>> q(1);
    EXPECT_TRUE(q.tryPush({1}));
    std::vector<int> v{1, 2, 3};
    EXPECT_FALSE(q.tryPush(std::move(v)));
    // Shed must not have moved the value out.
    EXPECT_EQ(v.size(), 3u);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace)
{
    BoundedQueue<int> q(1);
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
    BoundedQueue<int> q(4);
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
    BoundedQueue<int> q(8);
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
    BoundedQueue<int> q(1);
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
    BoundedQueue<int> q(1);
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

/** join() waits for done() on every popped item, counting an item
 *  that a blocked push lands later, and returns at once when nothing
 *  is in flight. */
TEST(BoundedQueue, JoinWaitsForDone)
{
    BoundedQueue<int> q(1);
    q.join(); // empty: returns at once

    EXPECT_TRUE(q.tryPush(1));
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2)); // full: lands after the first pop
        pushed.store(true);
    });
    std::atomic<bool> joined{false};
    std::thread joiner([&] {
        q.join();
        joined.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_FALSE(joined.load()); // item 1 queued

    int out;
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, 1);
    producer.join(); // item 2 landed
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(joined.load()); // item 1 popped, not done
    q.done();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(joined.load()); // item 2 queued
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, 2);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(joined.load()); // item 2 popped, not done
    q.done();
    joiner.join();
    EXPECT_TRUE(joined.load());
    q.join(); // nothing in flight again
}

TEST(BoundedQueue, MpmcStressPreservesItems)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 2000;
    BoundedQueue<int> q(64);
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

/** Per-producer FIFO must survive producer contention: with one
 *  consumer observing the stream sequentially, every producer's items
 *  must arrive in strictly increasing order, none lost, none
 *  duplicated. (Cross-consumer delivery totals are covered by the
 *  MPMC tests.) */
TEST(BoundedQueue, PerProducerOrderPreservedUnderContention)
{
    constexpr int kProducers = 4;
    constexpr uint64_t kPerProducer = 5000;
    BoundedQueue<uint64_t> q(32);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (uint64_t i = 1; i <= kPerProducer; ++i) {
                uint64_t v =
                    (static_cast<uint64_t>(p) << 32) | i;
                ASSERT_TRUE(q.push(std::move(v)));
            }
        });
    }
    uint64_t popped = 0;
    uint64_t last_seq[kProducers] = {};
    std::thread consumer([&] {
        uint64_t out;
        while (q.pop(out)) {
            const int p = static_cast<int>(out >> 32);
            const uint64_t seq = out & 0xffffffffu;
            EXPECT_GT(seq, last_seq[p]);
            last_seq[p] = seq;
            ++popped;
        }
    });
    for (auto &t : producers)
        t.join();
    q.close();
    consumer.join();

    EXPECT_EQ(popped, kProducers * kPerProducer);
    for (int p = 0; p < kProducers; ++p)
        EXPECT_EQ(last_seq[p], kPerProducer);
    EXPECT_EQ(q.depth(), 0u);
}

/** Capacity 1 is the degenerate queue: it must never hold 2 items,
 *  under real concurrency. */
TEST(BoundedQueue, CapacityOneNeverOverfills)
{
    BoundedQueue<int> q(1);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> pushed{0}, popped{0};
    std::atomic<int> depth_violations{0};

    std::thread producer([&] {
        while (!stop.load()) {
            int v = 7;
            if (q.tryPush(std::move(v)))
                pushed.fetch_add(1);
            if (q.depth() > 1)
                depth_violations.fetch_add(1);
        }
    });
    std::thread consumer([&] {
        int out;
        while (q.pop(out)) {
            EXPECT_EQ(out, 7);
            popped.fetch_add(1);
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true);
    producer.join();
    q.close();
    consumer.join();

    EXPECT_EQ(pushed.load(), popped.load());
    EXPECT_EQ(depth_violations.load(), 0);
    EXPECT_EQ(q.depth(), 0u);
}

/**
 * The close-drain guarantee under racing producers: every push that
 * REPORTED success is delivered to a consumer, even when close()
 * lands mid-push.
 */
TEST(BoundedQueue, CloseRaceLosesNoAcceptedItems)
{
    for (int round = 0; round < 50; ++round) {
        constexpr int kProducers = 4;
        constexpr int kConsumers = 2;
        BoundedQueue<uint64_t> q(8);
        std::atomic<uint64_t> accepted_sum{0};
        std::atomic<uint64_t> popped_sum{0};
        std::atomic<bool> stop{false};

        std::vector<std::thread> threads;
        for (int p = 0; p < kProducers; ++p) {
            threads.emplace_back([&, p] {
                uint64_t i = 1;
                while (!stop.load()) {
                    uint64_t v =
                        (static_cast<uint64_t>(p) << 32) | i++;
                    if (q.tryPush(std::move(v)))
                        accepted_sum.fetch_add(v);
                }
            });
        }
        for (int c = 0; c < kConsumers; ++c) {
            threads.emplace_back([&] {
                uint64_t out;
                while (q.pop(out))
                    popped_sum.fetch_add(out);
            });
        }
        // Close in the middle of the producer storm.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        q.close();
        stop.store(true);
        for (auto &t : threads)
            t.join();

        EXPECT_EQ(popped_sum.load(), accepted_sum.load())
            << "round " << round;
        EXPECT_EQ(q.depth(), 0u);
    }
}

/** Drain interleaving: blocked pushers must either deliver or report
 *  refusal once close() lands -- never hang, never double-count. */
TEST(BoundedQueue, CloseWithBlockedPushersAccountsExactly)
{
    for (int round = 0; round < 20; ++round) {
        BoundedQueue<int> q(2);
        // Fill to capacity so every push below blocks.
        ASSERT_TRUE(q.tryPush(1));
        ASSERT_TRUE(q.tryPush(2));

        constexpr int kBlocked = 4;
        std::atomic<int> delivered{0}, refused{0};
        std::vector<std::thread> pushers;
        for (int i = 0; i < kBlocked; ++i) {
            pushers.emplace_back([&] {
                int v = 100;
                if (q.push(std::move(v)))
                    delivered.fetch_add(1);
                else
                    refused.fetch_add(1);
            });
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

        // One concurrent pop may free a slot for one blocked pusher;
        // close() refuses the rest.
        int out;
        ASSERT_TRUE(q.pop(out));
        q.close();
        for (auto &t : pushers)
            t.join();

        // Drain whatever was accepted.
        int drained = 0;
        while (q.pop(out))
            ++drained;

        EXPECT_EQ(delivered.load() + refused.load(), kBlocked);
        // 1 popped above + drained == 2 preloaded + delivered.
        EXPECT_EQ(1 + drained, 2 + delivered.load());
        EXPECT_EQ(q.depth(), 0u);
    }
}

/** Mixed blocking/non-blocking producers against consumers, with the
 *  totals reconciled: pushed == popped, nothing stranded. */
TEST(BoundedQueue, MixedPushModesReconcile)
{
    constexpr int kPairs = 3;
    constexpr uint64_t kPerProducer = 4000;
    BoundedQueue<uint64_t> q(16);
    std::atomic<uint64_t> pushed{0}, shed{0}, popped{0};

    std::vector<std::thread> threads;
    for (int p = 0; p < kPairs; ++p) {
        // Blocking producer: everything it submits is delivered.
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                uint64_t v = i;
                ASSERT_TRUE(q.push(std::move(v)));
                pushed.fetch_add(1);
            }
        });
        // Open-loop producer: shed when full, counted either way.
        threads.emplace_back([&] {
            for (uint64_t i = 0; i < kPerProducer; ++i) {
                uint64_t v = i;
                if (q.tryPush(std::move(v)))
                    pushed.fetch_add(1);
                else
                    shed.fetch_add(1);
            }
        });
        threads.emplace_back([&] {
            uint64_t out;
            while (q.pop(out))
                popped.fetch_add(1);
        });
    }
    for (size_t t = 0; t < threads.size(); ++t)
        if (t % 3 != 2)
            threads[t].join();
    q.close();
    for (size_t t = 2; t < threads.size(); t += 3)
        threads[t].join();

    EXPECT_EQ(pushed.load() + shed.load(),
              2 * kPairs * kPerProducer);
    EXPECT_EQ(popped.load(), pushed.load());
    EXPECT_EQ(q.depth(), 0u);
}

} // namespace
} // namespace wsearch
