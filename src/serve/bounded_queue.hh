/**
 * @file
 * Bounded MPMC FIFO: the admission queue of a leaf worker pool. One
 * mutex guards a circular buffer of exactly `capacity` slots,
 * allocated once at construction, so steady traffic allocates nothing
 * per request. Three condition variables carry the blocking:
 *
 *  - push() waits on notFull_ while the queue is full (closed-loop
 *    clients); tryPush() sheds instead (open-loop admission control);
 *  - pop() waits on notEmpty_ while the queue is empty, and returns
 *    false once it is closed AND empty -- every item a push reported
 *    as accepted is still delivered after close();
 *  - join() waits on idle_ until every pushed item has been popped
 *    and marked done() by its consumer, the task_done()/join() pair of
 *    Python's queue.Queue. A pool drains by joining its queue.
 *
 * The leaf's traffic is light for a lock: perfbench drives each pool
 * from one generator thread at up to ~14k queries/s, and bench_serve's
 * busiest row runs 16 closed-loop clients against 8 workers. One lock
 * keeps the whole protocol visible to ThreadSanitizer.
 */

#ifndef WSEARCH_SERVE_BOUNDED_QUEUE_HH
#define WSEARCH_SERVE_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>

#include "util/logging.hh"

namespace wsearch {

/** Mutex-guarded bounded FIFO with blocking, shedding and join(). */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(size_t capacity)
        : capacity_(capacity), slots_(std::make_unique<T[]>(capacity))
    {
        wsearch_assert(capacity >= 1);
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Blocking push: waits while full. @return false (and leaves @p v
     * untouched) when the queue was closed.
     */
    bool
    push(T &&v)
    {
        {
            std::unique_lock<std::mutex> lk(mu_);
            notFull_.wait(lk,
                          [this] { return closed_ || size_ < capacity_; });
            if (closed_)
                return false;
            append(std::move(v));
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Non-blocking push: @return false (shed; @p v untouched) when full
     * or closed.
     */
    bool
    tryPush(T &&v)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (closed_ || size_ == capacity_)
                return false;
            append(std::move(v));
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Blocking pop: waits for an item. @return false only when the
     * queue is closed and empty (consumer shutdown signal). Each item
     * popped stays in flight until its consumer calls done().
     */
    bool
    pop(T &out)
    {
        {
            std::unique_lock<std::mutex> lk(mu_);
            notEmpty_.wait(lk, [this] { return closed_ || size_ > 0; });
            if (size_ == 0)
                return false;
            out = std::move(slots_[head_]);
            slots_[head_] = T{}; // release what the slot still holds
            head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
            --size_;
        }
        notFull_.notify_one();
        return true;
    }

    /** Mark one popped item finished; wakes join() at zero. */
    void
    done()
    {
        // Notify under the lock: a joiner may destroy the queue as
        // soon as it can observe zero.
        std::lock_guard<std::mutex> lk(mu_);
        wsearch_assert(inFlight_ > 0);
        if (--inFlight_ == 0)
            idle_.notify_all();
    }

    /** Wait until every pushed item has been popped and done(). */
    void
    join()
    {
        std::unique_lock<std::mutex> lk(mu_);
        idle_.wait(lk, [this] { return inFlight_ == 0; });
    }

    /** Begin shutdown: refuse new items, wake every blocked thread. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** Items queued and not yet popped. */
    size_t
    depth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return size_;
    }

    bool
    closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

  private:
    /** Store @p v at the tail; caller holds mu_ and checked space. */
    void
    append(T &&v)
    {
        size_t tail = head_ + size_;
        if (tail >= capacity_)
            tail -= capacity_;
        slots_[tail] = std::move(v);
        ++size_;
        ++inFlight_;
    }

    const size_t capacity_;
    std::unique_ptr<T[]> slots_;

    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::condition_variable idle_;
    size_t head_ = 0;     ///< slot of the oldest item
    size_t size_ = 0;     ///< items queued
    size_t inFlight_ = 0; ///< items pushed and not yet done()
    bool closed_ = false;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_BOUNDED_QUEUE_HH
