// Tests for HTTP/1.1 keep-alive pipelining: the HttpRequestFramer's
// chunking-identity contract (the popped request sequence depends only on
// the concatenated byte stream, never on segment boundaries), pipelined
// back-to-back requests, the end-to-end 400-on-oversized path, and the
// fail-stop path of a serving core that halts mid-request.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/httpd.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"

namespace mk::apps {
namespace {

using sim::Cycles;
using sim::Task;

std::vector<std::string> PopAll(HttpRequestFramer& framer) {
  std::vector<std::string> out;
  std::string req;
  while (framer.PopRequest(&req)) {
    out.push_back(req);
  }
  return out;
}

TEST(HttpRequestFramer, BackToBackRequestsInOneChunk) {
  HttpRequestFramer framer;
  framer.Append(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /c HTTP/1.1\r\n\r\n");
  std::vector<std::string> got = PopAll(framer);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "GET /a HTTP/1.1\r\n\r\n");
  EXPECT_EQ(got[1], "GET /b HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(got[2], "GET /c HTTP/1.1\r\n\r\n");
  EXPECT_EQ(framer.buffered(), 0u);
  EXPECT_FALSE(framer.overflowed());
}

TEST(HttpRequestFramer, TerminatorSplitAcrossEveryBoundary) {
  const std::string req = "GET /split HTTP/1.1\r\nHost: y\r\n\r\n";
  // Split the request at every byte position; the pop must be identical.
  for (std::size_t cut = 0; cut <= req.size(); ++cut) {
    HttpRequestFramer framer;
    framer.Append(req.substr(0, cut));
    framer.Append(req.substr(cut));
    std::vector<std::string> got = PopAll(framer);
    ASSERT_EQ(got.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(got[0], req) << "cut at " << cut;
  }
}

TEST(HttpRequestFramer, ChunkingIdentityFuzz) {
  sim::Rng rng(0xf00dface);
  for (int round = 0; round < 200; ++round) {
    // Build a stream of 1..8 requests with varied paths and header baggage.
    std::string stream;
    int n = 1 + static_cast<int>(rng.Below(8));
    for (int i = 0; i < n; ++i) {
      stream += "GET /r" + std::to_string(rng.Below(1000)) + " HTTP/1.1\r\n";
      int headers = static_cast<int>(rng.Below(3));
      for (int h = 0; h < headers; ++h) {
        stream += "X-H" + std::to_string(h) + ": " +
                  std::string(rng.Below(20), 'v') + "\r\n";
      }
      stream += "\r\n";
    }
    // Reference: the whole stream in one chunk.
    HttpRequestFramer whole;
    whole.Append(stream);
    std::vector<std::string> expect = PopAll(whole);
    ASSERT_EQ(expect.size(), static_cast<std::size_t>(n));
    // Candidate: random segmentation of the same bytes, popping eagerly
    // after every chunk (as the serving loop does).
    HttpRequestFramer framer;
    std::vector<std::string> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      std::size_t len = 1 + rng.Below(40);
      if (pos + len > stream.size()) {
        len = stream.size() - pos;
      }
      framer.Append(stream.substr(pos, len));
      pos += len;
      for (std::string r; framer.PopRequest(&r);) {
        got.push_back(r);
      }
    }
    EXPECT_EQ(got, expect) << "round " << round;
    EXPECT_EQ(framer.buffered(), 0u);
  }
}

TEST(HttpRequestFramer, OverflowOnTerminatorlessStream) {
  HttpRequestFramer framer;
  framer.Append(std::string(kMaxRequestBytes + 1, 'A'));
  EXPECT_TRUE(framer.overflowed());
  EXPECT_FALSE(framer.HasRequest());
}

// --- End-to-end keep-alive serving over the lifecycle stack ---

const net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 0x01};
const net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 0x02};
constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 0, 2);

struct KeepAliveFixture {
  KeepAliveFixture()
      : machine(exec, hw::Amd2x2()),
        server_stack(machine, 0, kSrvIp, kSrvMac),
        client_stack(machine, 2, kCliIp, kCliMac),
        server(machine, server_stack, 80) {
    net::TcpLifecycle lc;
    lc.time_wait = 100'000;
    server_stack.SetLifecycle(lc);
    client_stack.SetLifecycle(lc);
    server_stack.AddArp(kCliIp, kCliMac);
    client_stack.AddArp(kSrvIp, kSrvMac);
    server_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await client_stack.Input(std::move(p));
    });
    client_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await server_stack.Input(std::move(p));
    });
    HttpServer::KeepAlive ka;
    ka.enabled = true;
    ka.max_requests = 16;
    ka.idle_timeout = 2'000'000;
    ka.max_pipeline = 8;
    ka.header_deadline = 1'000'000;
    server.SetKeepAlive(ka);
    exec.Spawn(server.Serve());
  }
  // Sends `raw` on one connection, collects replies until the server closes
  // or `read_until` responses have arrived.
  std::string Roundtrip(const std::string& raw, int expect_responses) {
    std::string reply;
    exec.Spawn([](net::NetStack& stack, const std::string& req, int want,
                  std::string& out) -> Task<> {
      net::NetStack::TcpConn* conn =
          co_await stack.TcpConnect(kSrvIp, 80, 5'000'000);
      if (conn == nullptr) {
        co_return;
      }
      co_await stack.TcpSend(*conn, req);
      int seen = 0;
      while (seen < want) {
        auto chunk = co_await conn->Read();
        if (chunk.empty()) {
          break;  // peer closed
        }
        out.append(chunk.begin(), chunk.end());
        seen = 0;
        for (std::size_t at = out.find("HTTP/1.1"); at != std::string::npos;
             at = out.find("HTTP/1.1", at + 8)) {
          ++seen;
        }
      }
      co_await stack.TcpClose(*conn);
      stack.Release(conn);
    }(client_stack, raw, expect_responses, reply));
    exec.Run();
    return reply;
  }
  sim::Executor exec;
  hw::Machine machine;
  net::NetStack server_stack;
  net::NetStack client_stack;
  HttpServer server;
};

TEST(HttpKeepAliveEndToEnd, PipelinedRequestsServedInOrderOnOneConnection) {
  KeepAliveFixture f;
  std::string reply = f.Roundtrip(
      "GET /index.html HTTP/1.1\r\n\r\nGET /index.html HTTP/1.1\r\n\r\n", 2);
  // Two complete responses, both 200, on the same connection.
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u);
  std::size_t second = reply.find("HTTP/1.1", 8);
  ASSERT_NE(second, std::string::npos);
  EXPECT_EQ(reply.compare(second, 15, "HTTP/1.1 200 OK"), 0);
  EXPECT_EQ(f.server.requests_served(), 2u);
}

TEST(HttpKeepAliveEndToEnd, OversizedRequestGets400AndClose) {
  KeepAliveFixture f;
  // A terminator-less flood larger than the framer's cap: the server must
  // answer 400 and close rather than buffer without bound.
  std::string flood(kMaxRequestBytes + 500, 'A');
  std::string reply = f.Roundtrip(flood, 1);
  EXPECT_EQ(reply.rfind("HTTP/1.1 400", 0), 0u);
  EXPECT_EQ(f.server.requests_served(), 0u);
  EXPECT_EQ(f.server.bad_requests(), 1u);
}

TEST(HttpKeepAliveEndToEnd, CoreHaltInsideHandleSendsNoReplyNoFinAndNoRelease) {
  // The server core (0) halts while the request is inside Handle, whose
  // 60k-cycle compute starts a few thousand cycles after the send. The
  // handler must die with its core: no response, no FIN, no Release.
  constexpr Cycles kSendAt = 1'000'000;
  constexpr Cycles kHaltAt = kSendAt + 30'000;
  fault::FaultPlan plan;
  plan.HaltCore(0, kHaltAt);
  struct ScopedInjector {
    explicit ScopedInjector(const fault::FaultPlan& p) : inj(p) { inj.Install(); }
    ~ScopedInjector() { inj.Uninstall(); }
    fault::Injector inj;
  } injector(plan);
  KeepAliveFixture f;
  net::NetStack::TcpConn* conn = nullptr;
  std::string reply;
  f.exec.Spawn([](sim::Executor& exec, net::NetStack& stack, net::NetStack::TcpConn*& c,
                  std::string& out) -> Task<> {
    c = co_await stack.TcpConnect(kSrvIp, 80, 500'000);
    if (c == nullptr) {
      co_return;
    }
    co_await exec.Delay(kSendAt - exec.now());
    co_await stack.TcpSend(*c, "GET /index.html HTTP/1.1\r\n\r\n");
    while (co_await stack.WaitReadable(*c, 3'000'000) && !c->rx.empty()) {
      out.append(c->rx.begin(), c->rx.end());
      c->rx.clear();
    }
  }(f.exec, f.client_stack, conn, reply));
  f.exec.Run();

  ASSERT_NE(conn, nullptr);
  EXPECT_EQ(f.server.requests_served(), 1u);  // the request reached Handle
  EXPECT_EQ(reply, "");                       // ...and was never answered
  EXPECT_FALSE(conn->peer_closed);            // no FIN
  net::NetStack::TcpConn* server_conn =
      f.server_stack.conn_table().Find(net::ConnKey(kCliIp, conn->local_port, 80));
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->state, net::TcpState::kEstablished);
  EXPECT_FALSE(server_conn->fin_sent);
  EXPECT_FALSE(server_conn->app_released);
  EXPECT_EQ(f.server_stack.established_count(), 1);
}

}  // namespace
}  // namespace mk::apps
