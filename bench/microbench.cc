// Wall-time microbenchmarks of the simulator itself (google-benchmark).
//
// Unlike every other bench target (which reports *simulated* cycles, the
// paper's metric), this one measures how fast the discrete-event simulator
// and its core data structures run on the host — useful when growing the
// experiments.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "skb/skb.h"
#include "urpc/channel.h"

// Global allocation counters: every operator new/delete in the process bumps
// one, so a benchmark can report exact heap-allocation counts for a measured
// region (see BM_ExecutorSteadyStateAllocs) and, from their difference, the
// allocations still live (see BM_HeldConnectionFootprint).
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_free_count{0};

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) {
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_free_count.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace mk;
using sim::Cycles;
using sim::Task;

void BM_ExecutorEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(static_cast<Cycles>(i), [&sink] { ++sink; });
    }
    exec.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorEventDispatch);

// Far-tier stress: timestamps spread across a 50k-cycle horizon, so most
// events enter the far heap and migrate into the near ring as the clock
// approaches them.
void BM_ExecutorFarHorizon(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(static_cast<Cycles>((i * 37) % 50000), [&sink] { ++sink; });
    }
    exec.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ExecutorFarHorizon);

// Steady-state allocation audit: a long-lived executor dispatching inline
// callbacks must do zero heap allocations per event once its node freelist
// has warmed up. Reports allocations per thousand dispatched events.
void BM_ExecutorSteadyStateAllocs(benchmark::State& state) {
  sim::Executor exec;
  int sink = 0;
  // Warm-up: grow the node freelist and the far heap past the working set.
  for (int i = 0; i < 4000; ++i) {
    exec.CallAt(static_cast<Cycles>(i % 2000), [&sink] { ++sink; });
  }
  exec.Run();
  const std::uint64_t events_before = exec.events_dispatched();
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Cycles base = exec.now();
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(base + 1 + static_cast<Cycles>(i % 700), [&sink] { ++sink; });
    }
    exec.Run();
  }
  const std::uint64_t events = exec.events_dispatched() - events_before;
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_1k_events"] =
      1000.0 * static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}
BENCHMARK(BM_ExecutorSteadyStateAllocs);

// As above, but with a tracer installed and every category enabled: the
// trace hot path must also be allocation-free once the per-core rings exist.
void BM_ExecutorSteadyStateAllocsTraced(benchmark::State& state) {
  trace::Tracer tracer(/*capacity_per_core=*/1 << 12);
  tracer.Install();
  sim::Executor exec;
  int sink = 0;
  // Warm-up: grow the node freelist and allocate the executor's trace ring.
  for (int i = 0; i < 4000; ++i) {
    exec.CallAt(static_cast<Cycles>(i % 2000), [&sink] { ++sink; });
  }
  exec.Run();
  const std::uint64_t events_before = exec.events_dispatched();
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const Cycles base = exec.now();
    for (int i = 0; i < 1000; ++i) {
      exec.CallAt(base + 1 + static_cast<Cycles>(i % 700), [&sink] { ++sink; });
    }
    exec.Run();
  }
  const std::uint64_t events = exec.events_dispatched() - events_before;
  const std::uint64_t allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  tracer.Uninstall();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["allocs_per_1k_events"] =
      1000.0 * static_cast<double>(allocs) / static_cast<double>(events ? events : 1);
}
BENCHMARK(BM_ExecutorSteadyStateAllocsTraced);

// Raw cost of one trace point with an active tracer (mask test + 40-byte
// ring store).
void BM_TraceEmit(benchmark::State& state) {
  trace::Tracer tracer(/*capacity_per_core=*/1 << 12);
  tracer.Install();
  Cycles cycle = 0;
  for (auto _ : state) {
    trace::Emit<trace::Category::kExec>(trace::EventId::kExecCycle, ++cycle, 0, 1);
  }
  tracer.Uninstall();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

Task<> DelayLoop(sim::Executor& exec, int n) {
  for (int i = 0; i < n; ++i) {
    co_await exec.Delay(10);
  }
}

void BM_CoroutineDelayLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    exec.Spawn(DelayLoop(exec, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineDelayLoop);

Task<> WriteLoop(hw::Machine& m, sim::Addr addr, int n) {
  for (int i = 0; i < n; ++i) {
    co_await m.mem().Write(i % 4, addr);
  }
}

void BM_CoherenceTransactions(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    auto addr = m.mem().AllocLines(0, 1);
    exec.Spawn(WriteLoop(m, addr, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoherenceTransactions);

Task<> Stream(urpc::Channel& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await ch.SendPosted(urpc::Message{});
  }
}

Task<> Drain(urpc::Channel& ch, int n) {
  for (int i = 0; i < n; ++i) {
    (void)co_await ch.Recv();
  }
}

void BM_UrpcChannelStream(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    urpc::Channel ch(m, 0, 4);
    exec.Spawn(Stream(ch, 1000));
    exec.Spawn(Drain(ch, 1000));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_UrpcChannelStream);

Task<> PingClient(urpc::Channel& req, urpc::Channel& resp, int n) {
  for (int i = 0; i < n; ++i) {
    co_await req.SendPosted(urpc::Message{});
    (void)co_await resp.Recv();
  }
}

Task<> PingServer(urpc::Channel& req, urpc::Channel& resp, int n) {
  for (int i = 0; i < n; ++i) {
    (void)co_await req.Recv();
    co_await resp.SendPosted(urpc::Message{});
  }
}

// Round-trip URPC: request and response channels between two cores, the
// paper's ping-pong shape. Exercises the executor's wake-up path (Event
// signal -> schedule -> resume) once per message in each direction.
void BM_UrpcPingPong(benchmark::State& state) {
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd4x4());
    urpc::Channel req(m, 0, 4);
    urpc::Channel resp(m, 4, 0);
    exec.Spawn(PingClient(req, resp, 500));
    exec.Spawn(PingServer(req, resp, 500));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // two messages per round trip
}
BENCHMARK(BM_UrpcPingPong);

void BM_SkbRouteConstruction(benchmark::State& state) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  skb::Skb skb(m);
  skb.PopulateFromHardware();
  for (auto _ : state) {
    auto route = skb.BuildMulticastRoute(0, true);
    benchmark::DoNotOptimize(route);
  }
}
BENCHMARK(BM_SkbRouteConstruction);

void BM_RngThroughput(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc ^= rng.Next();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngThroughput);

// --- Held keep-alive connections: host memory per connection ---

constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 1, 1);
const net::MacAddr kSrvMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kCliMac{2, 0, 0, 1, 0, 1};
const char kKeepAliveRequest[] = "GET / HTTP/1.1\r\nHost: bench\r\n\r\n";

// Opens `n` connections one after another; each serves one request, reads
// the whole response, and is then held idle.
Task<> HoldConnections(net::NetStack& client, int n, std::size_t response_bytes,
                       std::vector<net::NetStack::TcpConn*>& held) {
  for (int i = 0; i < n; ++i) {
    net::NetStack::TcpConn* conn = co_await client.TcpConnect(kSrvIp, 80);
    if (conn == nullptr) {
      co_return;
    }
    co_await client.TcpSend(*conn, kKeepAliveRequest);
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

Task<> CloseConnections(net::NetStack& client, std::vector<net::NetStack::TcpConn*>& held) {
  for (net::NetStack::TcpConn* conn : held) {
    co_await client.TcpClose(*conn);
    client.Release(conn);
  }
}

std::size_t MallocInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

// What one held keep-alive connection costs the host: a client stack and a
// server stack with an HttpServer (the keepalive-100k shape), 1,000
// connections that each served one request and now idle.
// Reports malloc's in-use bytes (allocator overhead included) and live
// allocations per connection; the time is the ramp plus the close.
void BM_HeldConnectionFootprint(benchmark::State& state) {
  constexpr int kHeld = 1000;
  apps::HttpResponse page;
  page.body = apps::StaticIndexPage();
  const std::size_t response_bytes =
      apps::RenderHttpResponse(page, /*http11=*/true, /*keep_alive=*/true).size();
  double bytes_per_conn = 0;
  double allocs_per_conn = 0;
  for (auto _ : state) {
    sim::Executor exec;
    hw::Machine m(exec, hw::Amd2x2());
    net::NetStack server(m, 3, kSrvIp, kSrvMac);
    net::NetStack client(m, 0, kCliIp, kCliMac);
    server.AddArp(kCliIp, kCliMac);
    client.AddArp(kSrvIp, kSrvMac);
    server.SetOutput([&client](net::Packet p) -> Task<> { co_await client.Input(std::move(p)); });
    client.SetOutput([&server](net::Packet p) -> Task<> { co_await server.Input(std::move(p)); });
    apps::HttpServer http(m, server, 80, nullptr, 8'000);
    apps::HttpServer::KeepAlive ka;
    ka.enabled = true;
    ka.header_deadline = 1'500'000;
    http.SetKeepAlive(ka);
    std::vector<net::NetStack::TcpConn*> held;
    held.reserve(kHeld);
    exec.Spawn(http.Serve());
    exec.Run();
    const std::size_t bytes_before = MallocInUse();
    const std::uint64_t live_before = g_alloc_count.load() - g_free_count.load();
    exec.Spawn(HoldConnections(client, kHeld, response_bytes, held));
    exec.Run();
    bytes_per_conn = static_cast<double>(MallocInUse() - bytes_before) / kHeld;
    allocs_per_conn =
        static_cast<double>(g_alloc_count.load() - g_free_count.load() - live_before) / kHeld;
    if (held.size() != static_cast<std::size_t>(kHeld)) {
      state.SkipWithError("not every connection was held");
      break;
    }
    exec.Spawn(CloseConnections(client, held));
    exec.Run();
  }
  state.SetItemsProcessed(state.iterations() * kHeld);
  state.counters["heap_bytes_per_conn"] = bytes_per_conn;
  state.counters["live_allocs_per_conn"] = allocs_per_conn;
}
BENCHMARK(BM_HeldConnectionFootprint)->Unit(benchmark::kMillisecond);

// --- Database replicas: host cost of building a replica cluster ---

// Builds an 8-shard DbReplicaCluster (the rack-read backend shape, one shard
// per package of the 8x4 AMD) over an 8,000-item TPC-W catalog and tears it
// down. Replicas share the catalog's tables copy-on-write, so the time and
// heap_bytes (malloc's in-use bytes the built cluster adds, allocator
// overhead included) are the shards' channels, not eight catalog copies.
void BM_ReplicaClusterBuild(benchmark::State& state) {
  constexpr int kShards = 8;
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd8x4());
  apps::Database catalog;
  apps::PopulateTpcw(&catalog, 8'000);
  std::vector<apps::ShardPlacement> placements;
  for (int k = 0; k < kShards; ++k) {
    placements.push_back({4 * k, 4 * k + 1});
  }
  double heap_bytes = 0;
  for (auto _ : state) {
    const std::size_t bytes_before = MallocInUse();
    apps::DbReplicaCluster cluster(m, catalog, placements);
    heap_bytes = static_cast<double>(MallocInUse() - bytes_before);
    benchmark::DoNotOptimize(cluster.num_shards());
  }
  state.counters["heap_bytes"] = heap_bytes;
}
BENCHMARK(BM_ReplicaClusterBuild)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
