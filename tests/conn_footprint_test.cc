// Host-memory footprint of a held keep-alive connection: the heap a client
// stack, a server stack and an HttpServer keep alive per idle connection
// after it has served one request. Counts every operator new/delete in the
// process (its own binary, so no other test shares the counters), the same
// idiom as bench/microbench.cc, but tracking live requested bytes.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/task.h"

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

namespace mk::apps {
namespace {

using sim::Task;

constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 1, 1);
const net::MacAddr kSrvMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kCliMac{2, 0, 0, 1, 0, 1};
constexpr int kHeld = 2000;
// Before the lazy TCP queues and the slim keep-alive handler a held
// connection cost 4,631 bytes in 15 allocations: the two std::deque queues
// of each TcpConn kept their maps and nodes (~1.1 KiB a side), plus an
// 832 B ServeConnectionKeepAlive frame and a 480 B ServeConnection wrapper
// frame. Now it is 999 bytes in 5 allocations (DESIGN.md §15).
constexpr double kMaxBytesPerConn = 1536;

// Opens the held connections one after another. Each connects, sends one
// request, reads the whole keep-alive response and stays open.
Task<> HoldAll(net::NetStack& client, std::size_t response_bytes,
               std::vector<net::NetStack::TcpConn*>& held) {
  for (int i = 0; i < kHeld; ++i) {
    net::NetStack::TcpConn* conn = co_await client.TcpConnect(kSrvIp, 80);
    if (conn == nullptr) {
      co_return;
    }
    co_await client.TcpSend(*conn, "GET / HTTP/1.1\r\nHost: bench\r\n\r\n");
    std::size_t got = 0;
    while (got < response_bytes) {
      std::vector<std::uint8_t> chunk = co_await conn->Read();
      if (chunk.empty()) {
        co_return;
      }
      got += chunk.size();
    }
    held.push_back(conn);
  }
}

TEST(ConnFootprint, HeldKeepAliveConnectionStaysUnderBudget) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd2x2());
  net::NetStack server(machine, 3, kSrvIp, kSrvMac);
  net::NetStack client(machine, 0, kCliIp, kCliMac);
  server.AddArp(kCliIp, kCliMac);
  client.AddArp(kSrvIp, kSrvMac);
  server.SetOutput([&client](net::Packet p) -> Task<> { co_await client.Input(std::move(p)); });
  client.SetOutput([&server](net::Packet p) -> Task<> { co_await server.Input(std::move(p)); });
  HttpServer http(machine, server, 80, nullptr, 8'000);
  HttpServer::KeepAlive ka;
  ka.enabled = true;
  ka.header_deadline = 1'500'000;  // armed only while a request is partial
  http.SetKeepAlive(ka);
  HttpResponse page;
  page.body = StaticIndexPage();
  const std::size_t response_bytes = RenderHttpResponse11(page, true).size();
  std::vector<net::NetStack::TcpConn*> held;
  held.reserve(kHeld);
  exec.Spawn(http.Serve());
  exec.Run();

  const std::int64_t bytes_before = g_live_bytes.load();
  const std::int64_t allocs_before = g_live_allocs.load();
  exec.Spawn(HoldAll(client, response_bytes, held));
  exec.Run();
  const double bytes = static_cast<double>(g_live_bytes.load() - bytes_before) / kHeld;
  const double allocs = static_cast<double>(g_live_allocs.load() - allocs_before) / kHeld;

  ASSERT_EQ(held.size(), static_cast<std::size_t>(kHeld));
  EXPECT_EQ(http.requests_served(), static_cast<std::uint64_t>(kHeld));
  EXPECT_EQ(server.established_count(), kHeld);
  EXPECT_EQ(exec.pending_events(), 0u);
  std::printf("held keep-alive connection: %.0f live heap bytes, %.2f live allocations\n",
              bytes, allocs);
  EXPECT_LE(bytes, kMaxBytesPerConn);
}

}  // namespace
}  // namespace mk::apps
