// Live heap accounting for the footprint tests. live_heap.cc replaces the
// global operator new/delete to track the bytes and blocks currently
// allocated in the process; link it into a test binary of its own, so no
// other test shares the counters.
#ifndef MK_TESTS_LIVE_HEAP_H_
#define MK_TESTS_LIVE_HEAP_H_

#include <cstdint>

namespace mk {

// Requested bytes (allocator overhead excluded) and blocks now live.
std::int64_t LiveHeapBytes();
std::int64_t LiveHeapAllocs();

}  // namespace mk

#endif  // MK_TESTS_LIVE_HEAP_H_
