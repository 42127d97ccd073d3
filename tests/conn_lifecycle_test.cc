// Tests for the TCP connection lifecycle: true 3-way handshake, FIN/ACK
// close with bounded TIME_WAIT, SYN cookies under a half-open cap, abandoned
// connect sweep with 4-tuple reuse, close-cause accounting, and retransmit
// timers armed only under fault injection.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/task.h"

namespace mk::net {
namespace {

using sim::Cycles;
using sim::Task;

constexpr Ipv4Addr kIpA = MakeIp(10, 0, 0, 1);
constexpr Ipv4Addr kIpB = MakeIp(10, 0, 0, 2);
const MacAddr kMacA{2, 0, 0, 0, 0, 1};
const MacAddr kMacB{2, 0, 0, 0, 0, 2};

struct LifecyclePair {
  explicit LifecyclePair(TcpLifecycle server_lc = DefaultServerLc(),
                         TcpLifecycle client_lc = DefaultClientLc())
      : machine(exec, hw::Amd2x2()),
        a(machine, 0, kIpA, kMacA),
        b(machine, 2, kIpB, kMacB) {
    a.SetLifecycle(client_lc);
    b.SetLifecycle(server_lc);
    a.AddArp(kIpB, kMacB);
    b.AddArp(kIpA, kMacA);
    // With a fault::Injector installed, a->b consults its TX-loss specs and
    // b->a its RX-loss specs, so a plan can lose either direction.
    a.SetOutput([this](Packet p) -> Task<> {
      fault::Injector* inj = fault::Injector::active();
      if (drop_a_to_b || (inj != nullptr && inj->ShouldDropTxFrame(exec.now()))) {
        co_return;
      }
      co_await b.Input(std::move(p));
    });
    b.SetOutput([this](Packet p) -> Task<> {
      fault::Injector* inj = fault::Injector::active();
      if (drop_b_to_a || (inj != nullptr && inj->ShouldDropRxFrame(exec.now()))) {
        co_return;
      }
      co_await a.Input(std::move(p));
    });
  }

  static TcpLifecycle DefaultServerLc() {
    TcpLifecycle lc;
    lc.time_wait = 100'000;
    lc.syn_rcvd_timeout = 500'000;
    return lc;
  }
  static TcpLifecycle DefaultClientLc() {
    TcpLifecycle lc;
    lc.time_wait = 100'000;
    return lc;
  }

  sim::Executor exec;
  hw::Machine machine;
  NetStack a;  // client
  NetStack b;  // server
  bool drop_a_to_b = false;  // simulate a black-holed path for abandon tests
  bool drop_b_to_a = false;
};

TEST(ConnLifecycle, ThreeWayHandshakeEstablishes) {
  LifecyclePair f;
  auto& listener = f.b.TcpListen(80);
  NetStack::TcpConn* client = nullptr;
  NetStack::TcpConn* server = nullptr;
  f.exec.Spawn([](NetStack& a, NetStack::TcpConn** out) -> Task<> {
    *out = co_await a.TcpConnect(kIpB, 80, 1'000'000);
  }(f.a, &client));
  f.exec.Spawn([](NetStack::Listener& l, NetStack::TcpConn** out) -> Task<> {
    *out = co_await l.Accept();
  }(listener, &server));
  f.exec.Run();
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(client->state, TcpState::kEstablished);
  EXPECT_EQ(server->state, TcpState::kEstablished);
  EXPECT_EQ(f.b.established_count(), 1);
  EXPECT_EQ(f.b.half_open_count(), 0);
  EXPECT_EQ(f.b.peak_established(), 1);
}

TEST(ConnLifecycle, ParallelConnectStormEstablishesAll) {
  // 300 simultaneous SYNs queue ~1.4M cycles of handshake processing at the
  // server core; the timeout must be generous so the test asserts promotion
  // correctness, not eviction policy (eviction has its own tests).
  TcpLifecycle server_lc = LifecyclePair::DefaultServerLc();
  server_lc.syn_rcvd_timeout = 50'000'000;
  LifecyclePair f(server_lc);
  f.b.TcpListen(80);
  constexpr int kConns = 300;
  int ok = 0;
  for (int i = 0; i < kConns; ++i) {
    f.exec.Spawn([](NetStack& a, int* n) -> Task<> {
      NetStack::TcpConn* c = co_await a.TcpConnect(kIpB, 80, 50'000'000);
      if (c != nullptr && c->state == TcpState::kEstablished) {
        ++*n;
      }
    }(f.a, &ok));
  }
  f.exec.Run();
  EXPECT_EQ(ok, kConns);
  EXPECT_EQ(f.b.peak_established(), kConns);
  EXPECT_EQ(f.b.half_open_count(), 0);
  EXPECT_EQ(f.b.half_open_evicted(), 0);
}

// Active close from the client: FIN/ACK walk on both sides, bounded
// TIME_WAIT on the active closer, and cause-coded close counters.
TEST(ConnLifecycle, FinAckCloseWithBoundedTimeWait) {
  LifecyclePair f;
  auto& listener = f.b.TcpListen(80);
  f.exec.Spawn([](LifecyclePair& f, NetStack::Listener& l) -> Task<> {
    NetStack::TcpConn* client = co_await f.a.TcpConnect(kIpB, 80, 1'000'000);
    NetStack::TcpConn* server = co_await l.Accept();
    EXPECT_NE(client, nullptr);
    EXPECT_NE(server, nullptr);
    if (client == nullptr || server == nullptr) {
      co_return;
    }

    co_await f.a.TcpClose(*client);  // active close: FIN ->
    // The peer's FIN arrives once the server app closes its side.
    std::vector<std::uint8_t> got = co_await server->Read();
    EXPECT_TRUE(got.empty());  // FIN, not data
    EXPECT_EQ(server->state, TcpState::kCloseWait);
    co_await f.b.TcpClose(*server);  // passive side's FIN

    // Let the final ACK land and the active closer park in TIME_WAIT.
    co_await f.exec.Delay(50'000);
    EXPECT_EQ(client->state, TcpState::kTimeWait);
    EXPECT_EQ(f.a.time_wait_count(), 1);
    EXPECT_EQ(f.b.closes(CloseCause::kPassiveFin), 1u);

    f.a.Release(client);
    f.b.Release(server);
    // TIME_WAIT is bounded: the entry reaps after lc.time_wait.
    co_await f.exec.Delay(200'000);
    EXPECT_EQ(f.a.time_wait_count(), 0);
    EXPECT_EQ(f.a.time_wait_reaped(), 1u);
    EXPECT_EQ(f.a.closes(CloseCause::kActiveFin), 1u);
  }(f, listener));
  f.exec.Run();
  // Both tables fully drained: no leaked entries after close + release.
  EXPECT_EQ(f.a.conn_table().live(), 0u);
  EXPECT_EQ(f.b.conn_table().live(), 0u);
  EXPECT_EQ(f.a.established_count(), 0);
  EXPECT_EQ(f.b.established_count(), 0);
}

// At the half-open cap the server stops keeping SYN_RCVD state and answers
// with stateless SYN cookies; legitimate clients still complete.
TEST(ConnLifecycle, SynCookiesUnderHalfOpenCap) {
  TcpLifecycle server_lc = LifecyclePair::DefaultServerLc();
  server_lc.max_half_open = 2;
  server_lc.syn_rcvd_timeout = 50'000'000;
  LifecyclePair f(server_lc);
  f.b.TcpListen(80);
  constexpr int kConns = 12;
  int ok = 0;
  for (int i = 0; i < kConns; ++i) {
    f.exec.Spawn([](NetStack& a, int* n) -> Task<> {
      NetStack::TcpConn* c = co_await a.TcpConnect(kIpB, 80, 10'000'000);
      if (c != nullptr && c->state == TcpState::kEstablished) {
        ++*n;
      }
    }(f.a, &ok));
  }
  f.exec.Run();
  EXPECT_EQ(ok, kConns);
  EXPECT_GE(f.b.syn_cookies_sent(), 1u);
  EXPECT_GE(f.b.syn_cookie_accepts(), 1u);
  EXPECT_EQ(f.b.established_count(), kConns);
  // The cap held: never more than max_half_open SYN_RCVD entries at once.
  EXPECT_LE(f.b.half_open_count(), 2);
}

// A forged ACK whose cookie does not verify must not conjure a connection.
TEST(ConnLifecycle, BogusCookieAckRejected) {
  TcpLifecycle server_lc = LifecyclePair::DefaultServerLc();
  server_lc.max_half_open = 1;
  LifecyclePair f(server_lc);
  f.b.TcpListen(80);
  f.exec.Spawn([](LifecyclePair& f) -> Task<> {
    EthHeader eth;
    eth.src = kMacA;
    eth.dst = kMacB;
    IpHeader ip;
    ip.src = kIpA;
    ip.dst = kIpB;
    TcpHeader tcp;
    tcp.src_port = 33333;
    tcp.dst_port = 80;
    tcp.seq = 1;
    tcp.ack = 0xdeadbeef;  // not CookieFor(tuple) + 1
    tcp.flags = TcpFlags{.ack = true};
    co_await f.b.Input(BuildTcpFrame(eth, ip, tcp, nullptr, 0));
  }(f));
  f.exec.Run();
  EXPECT_EQ(f.b.syn_cookie_rejects(), 1u);
  EXPECT_EQ(f.b.established_count(), 0);
  EXPECT_EQ(f.b.conn_table().live(), 0u);
}

// A bounded TcpConnect whose SYN black-holes is swept: the entry leaves the
// table, the close is cause-coded, and the 4-tuple becomes reusable. The
// allocator is wrapped through the whole 16k ephemeral range to prove a
// swept port really can be re-allocated and re-established.
TEST(ConnLifecycle, AbandonedConnectSweptAndTupleReusable) {
  LifecyclePair f;
  auto& listener = f.b.TcpListen(80);
  f.drop_a_to_b = true;
  constexpr int kRange = 16384;  // full ephemeral range 49152..65535
  int null_returns = 0;
  for (int i = 0; i < kRange; ++i) {
    f.exec.Spawn([](NetStack& a, int* n) -> Task<> {
      NetStack::TcpConn* c = co_await a.TcpConnect(kIpB, 80, 50'000);
      if (c == nullptr) {
        ++*n;
      }
    }(f.a, &null_returns));
  }
  f.exec.Run();
  EXPECT_EQ(null_returns, kRange);
  EXPECT_EQ(f.a.abandoned_swept(), static_cast<std::uint64_t>(kRange));
  EXPECT_EQ(f.a.closes(CloseCause::kConnectTimeout),
            static_cast<std::uint64_t>(kRange));
  // Every half-open entry was swept, so the table is empty and the wrapped
  // allocator hands out previously-used ports.
  EXPECT_EQ(f.a.conn_table().live(), 0u);
  EXPECT_EQ(f.a.half_open_count(), 0);

  f.drop_a_to_b = false;
  NetStack::TcpConn* client = nullptr;
  NetStack::TcpConn* server = nullptr;
  f.exec.Spawn([](NetStack& a, NetStack::TcpConn** out) -> Task<> {
    *out = co_await a.TcpConnect(kIpB, 80, 1'000'000);
  }(f.a, &client));
  f.exec.Spawn([](NetStack::Listener& l, NetStack::TcpConn** out) -> Task<> {
    *out = co_await l.Accept();
  }(listener, &server));
  f.exec.Run();
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->state, TcpState::kEstablished);
  // The reused port is one the abandoned storm already burned.
  EXPECT_GE(client->local_port, 49152);
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->state, TcpState::kEstablished);
}

// Half-open entries on the server are evicted after syn_rcvd_timeout when
// the handshake ACK never arrives (client's ACK path black-holed).
TEST(ConnLifecycle, HalfOpenEvictionOnLostAck) {
  LifecyclePair f;
  f.b.TcpListen(80);
  // Black-hole the SYN-ACK so stack a cannot RST the unknown connection;
  // the half-open entry must die by eviction, not by reset.
  f.drop_b_to_a = true;
  f.exec.Spawn([](LifecyclePair& f) -> Task<> {
    // Hand-build a SYN so there is no client-side state machine retrying.
    EthHeader eth;
    eth.src = kMacA;
    eth.dst = kMacB;
    IpHeader ip;
    ip.src = kIpA;
    ip.dst = kIpB;
    TcpHeader tcp;
    tcp.src_port = 44444;
    tcp.dst_port = 80;
    tcp.seq = 7;
    tcp.flags = TcpFlags{.syn = true};
    co_await f.b.Input(BuildTcpFrame(eth, ip, tcp, nullptr, 0));
    co_await f.exec.Delay(100'000);
    EXPECT_EQ(f.b.half_open_count(), 1);
    // Never ACK. The eviction timer fires at syn_rcvd_timeout (500k).
    co_await f.exec.Delay(1'000'000);
    EXPECT_EQ(f.b.half_open_count(), 0);
    EXPECT_EQ(f.b.half_open_evicted(), 1u);
    EXPECT_EQ(f.b.closes(CloseCause::kHalfOpenExpiry), 1u);
  }(f));
  f.exec.Run();
  EXPECT_EQ(f.b.conn_table().live(), 0u);
}

// A storm of kStormConns connections that each send a tagged payload and
// then all close at once through one server core. Every FIN costs the server
// a receive and an ACK, so the storm queues ~1.2M cycles of work — far past
// the 200k-cycle RTO.
struct CloseStorm {
  static constexpr int kStormConns = 256;
  static constexpr Cycles kCloseAt = 20'000'000;
  static constexpr std::size_t kPayload = 96;

  CloseStorm() : f(StormServerLc()) {
    auto& listener = f.b.TcpListen(80);
    f.exec.Spawn(AcceptAll(*this, listener));
    for (int i = 0; i < kStormConns; ++i) {
      f.exec.Spawn(Client(*this, i));
    }
    f.exec.Run();
  }

  static TcpLifecycle StormServerLc() {
    TcpLifecycle lc = LifecyclePair::DefaultServerLc();
    lc.syn_rcvd_timeout = 50'000'000;  // the handshake storm must not evict
    return lc;
  }

  static Task<> AcceptAll(CloseStorm& s, NetStack::Listener& l) {
    for (int i = 0; i < kStormConns; ++i) {
      s.f.exec.Spawn(Serve(s, co_await l.Accept()));
    }
  }

  // Reads to end of stream, then closes its side (passive close).
  static Task<> Serve(CloseStorm& s, NetStack::TcpConn* conn) {
    std::vector<std::uint8_t>& got = s.received[conn->remote_port];
    for (;;) {
      std::vector<std::uint8_t> chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
      got.insert(got.end(), chunk.begin(), chunk.end());
    }
    co_await s.f.b.TcpClose(*conn);
    s.f.b.Release(conn);
  }

  // Connects, sends its payload, and closes at kCloseAt (active close).
  static Task<> Client(CloseStorm& s, int i) {
    NetStack::TcpConn* conn = co_await s.f.a.TcpConnect(kIpB, 80);
    if (conn == nullptr) {
      ADD_FAILURE() << "storm connect " << i << " failed";
      co_return;
    }
    std::vector<std::uint8_t> payload(kPayload);
    for (std::size_t k = 0; k < payload.size(); ++k) {
      payload[k] = static_cast<std::uint8_t>(i * 31 + static_cast<int>(k));
    }
    s.sent[conn->local_port] = payload;
    co_await s.f.a.TcpSend(*conn, payload.data(), payload.size());
    if (s.f.exec.now() < kCloseAt) {
      co_await s.f.exec.Delay(kCloseAt - s.f.exec.now());
    }
    co_await s.f.a.TcpClose(*conn);
    s.f.a.Release(conn);
  }

  LifecyclePair f;
  std::map<std::uint16_t, std::vector<std::uint8_t>> sent;      // by client port
  std::map<std::uint16_t, std::vector<std::uint8_t>> received;  // by client port
};

// A lossless close storm that queues past the RTO retransmits nothing: no
// segment can be lost without an injector, so the stack arms no retransmit
// timer at all. The only wheel timers are the server's SYN_RCVD expiries
// (all cancelled by the handshake ACK) and the client's TIME_WAIT reaps.
TEST(ConnLifecycle, LosslessCloseStormRetransmitsNothing) {
  CloseStorm s;
  EXPECT_EQ(s.received, s.sent);
  EXPECT_EQ(s.received.size(), static_cast<std::size_t>(CloseStorm::kStormConns));
  EXPECT_EQ(s.f.a.tcp_retransmits(), 0u);
  EXPECT_EQ(s.f.b.tcp_retransmits(), 0u);
  EXPECT_EQ(s.f.a.wheel().fired(), s.f.a.time_wait_reaped());
  EXPECT_EQ(s.f.b.wheel().fired(), 0u);
  EXPECT_EQ(s.f.a.wheel().scheduled(), s.f.a.time_wait_reaped());
  EXPECT_EQ(s.f.b.wheel().scheduled(), static_cast<std::uint64_t>(CloseStorm::kStormConns));
  EXPECT_EQ(s.f.a.closes(CloseCause::kActiveFin),
            static_cast<std::uint64_t>(CloseStorm::kStormConns));
  EXPECT_EQ(s.f.b.closes(CloseCause::kPassiveFin),
            static_cast<std::uint64_t>(CloseStorm::kStormConns));
  EXPECT_EQ(s.f.a.conn_table().live(), 0u);
  EXPECT_EQ(s.f.b.conn_table().live(), 0u);
}

// The same storm over a link that loses frames in both directions: the
// injector arms the retransmit timers, and go-back-N delivers every byte.
TEST(ConnLifecycle, LossyCloseStormRetransmitsAndDeliversEverything) {
  fault::FaultPlan plan;
  plan.RandomTxLoss(/*rate=*/0.05, /*seed=*/11);
  plan.RandomRxLoss(/*rate=*/0.05, /*seed=*/12);
  fault::Injector inj(plan);  // uninstalls itself on destruction
  inj.Install();
  CloseStorm s;
  EXPECT_EQ(s.received, s.sent);
  EXPECT_EQ(s.received.size(), static_cast<std::size_t>(CloseStorm::kStormConns));
  EXPECT_GT(inj.injected(fault::FaultKind::kNicTxDrop), 0u);
  EXPECT_GT(inj.injected(fault::FaultKind::kNicRxDrop), 0u);
  EXPECT_GT(s.f.a.tcp_retransmits(), 0u);
  EXPECT_GT(s.f.b.tcp_retransmits(), 0u);
  EXPECT_EQ(s.f.a.conn_table().live(), 0u);
  EXPECT_EQ(s.f.b.conn_table().live(), 0u);
}

}  // namespace
}  // namespace mk::net
