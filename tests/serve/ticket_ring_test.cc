/**
 * Stress suite for the Vyukov ticket ring behind the serving queue
 * (the contract tests live in bounded_queue_test.cc; this file
 * hammers the lock-free fast paths and the close/drain
 * interleavings). Carries
 * the "serve" ctest label, so CI's TSan leg runs every test here with
 * full race detection over the ring protocol.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serve/ticket_ring.hh"

namespace wsearch {
namespace {

/** Per-producer FIFO must survive producer contention: with one
 *  consumer observing the stream sequentially, every producer's items
 *  must arrive in strictly increasing order, none lost, none
 *  duplicated. (Cross-consumer delivery totals are covered by the
 *  MPMC tests below and in bounded_queue_test.cc.) */
TEST(TicketRing, PerProducerOrderPreservedUnderContention)
{
    constexpr int kProducers = 4;
    constexpr uint64_t kPerProducer = 5000;
    TicketRing<uint64_t> q(32);

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

/** Capacity 1 is the degenerate ring (2 internal slots, gate at 1):
 *  the ring must never hold 2 items, under real concurrency. */
TEST(TicketRing, CapacityOneNeverOverfills)
{
    TicketRing<int> q(1);
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
 * lands mid-push -- a claimed-but-unpublished slot must be waited
 * out, not declared empty.
 */
TEST(TicketRing, CloseRaceLosesNoAcceptedItems)
{
    for (int round = 0; round < 50; ++round) {
        constexpr int kProducers = 4;
        constexpr int kConsumers = 2;
        TicketRing<uint64_t> q(8);
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
TEST(TicketRing, CloseWithBlockedPushersAccountsExactly)
{
    for (int round = 0; round < 20; ++round) {
        TicketRing<int> q(2);
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
TEST(TicketRing, MixedPushModesReconcile)
{
    constexpr int kPairs = 3;
    constexpr uint64_t kPerProducer = 4000;
    TicketRing<uint64_t> q(16);
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
