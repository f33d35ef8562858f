/**
 * @file
 * A TouchSink that keeps every touch, for tests that inspect or
 * compare the executor's memory-reference stream.
 */

#ifndef WSEARCH_TESTS_SEARCH_RECORDING_SINK_HH
#define WSEARCH_TESTS_SEARCH_RECORDING_SINK_HH

#include <vector>

#include "search/touch.hh"

namespace wsearch {

/** Sink recording every touch for inspection. */
class RecordingSink : public TouchSink
{
  public:
    struct T
    {
        uint64_t addr;
        uint32_t bytes;
        AccessKind kind;
        bool write;

        bool operator==(const T &) const = default;
    };
    std::vector<T> touches;

    void
    touch(uint64_t addr, uint32_t bytes, AccessKind kind,
          bool is_write) override
    {
        touches.push_back({addr, bytes, kind, is_write});
    }
};

} // namespace wsearch

#endif // WSEARCH_TESTS_SEARCH_RECORDING_SINK_HH
