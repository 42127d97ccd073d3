#include "live_heap.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Each block carries its requested size in a 16-byte header, which keeps the
// returned pointer at the default new alignment.
constexpr std::size_t kHeader = 16;
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_live_allocs{0};

}  // namespace

void* operator new(std::size_t n) {
  auto* p = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  *reinterpret_cast<std::size_t*>(p) = n;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n), std::memory_order_relaxed);
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p + kHeader;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* q) noexcept {
  if (q == nullptr) {
    return;
  }
  unsigned char* p = static_cast<unsigned char*>(q) - kHeader;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(p)),
                         std::memory_order_relaxed);
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* q, std::size_t) noexcept { ::operator delete(q); }
void operator delete[](void* q) noexcept { ::operator delete(q); }
void operator delete[](void* q, std::size_t) noexcept { ::operator delete(q); }

namespace mk {

std::int64_t LiveHeapBytes() { return g_live_bytes.load(std::memory_order_relaxed); }
std::int64_t LiveHeapAllocs() { return g_live_allocs.load(std::memory_order_relaxed); }

}  // namespace mk
