// The section 5.4 web-server scenario, shared by sec54_webserver (which
// prints it) and sec54_scaleout (whose crosscheck line must reproduce its
// static-page figure): the 2x2-core AMD system serves a 4.1 KB static page
// or TPC-W-style SELECT queries against a database process to a cluster of
// closed-loop HTTP clients.
//
// Barrelfish placement (the paper's best): e1000 driver on core 2, web
// server on core 3 (same package), other services on core 0, database on the
// remaining core 1. Web server, driver, and database communicate over URPC.
// The lighttpd/Linux comparator runs the same logic with the kernel network
// path: extra kernel-user crossings and copies per packet and per request.
#ifndef MK_BENCH_SEC54_WEBSERVER_H_
#define MK_BENCH_SEC54_WEBSERVER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>

#include "apps/db.h"
#include "apps/httpd.h"
#include "bench_util.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/packet_channel.h"
#include "net/stack.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"
#include "urpc/channel.h"

namespace mk::bench::webserver {

using net::Packet;
using sim::Cycles;
using sim::Task;

constexpr int kServicesCore = 0;
constexpr int kDbCore = 1;
constexpr int kDriverCore = 2;
constexpr int kServerCore = 3;

struct DbService {
  DbService(hw::Machine& m, int items)
      : queries(m, kServerCore, kDbCore),
        replies(m, kDbCore, kServerCore, net::PacketChannel::Options{}) {
    apps::PopulateTpcw(&db, items);
  }
  apps::Database db;
  urpc::Channel queries;        // SQL text (fragmented over messages)
  net::PacketChannel replies;   // rendered result rows
};

// The database server process: receives SQL over URPC, executes it for real,
// charges the scan cost, replies with rendered rows.
inline Task<> DbServer(hw::Machine& m, DbService& svc) {
  while (true) {
    // Reassemble the SQL text from URPC fragments (tag 2 = more, 1 = final).
    std::string sql;
    while (true) {
      urpc::Message msg = co_await svc.queries.Recv();
      sql.append(reinterpret_cast<const char*>(msg.bytes.data()), msg.len);
      if (msg.tag == 1) {
        break;
      }
    }
    auto result = svc.db.Query(sql);
    std::string rendered;
    std::uint64_t scanned = 0;
    if (std::holds_alternative<apps::Database::ResultSet>(result)) {
      auto& rs = std::get<apps::Database::ResultSet>(result);
      scanned = rs.rows_scanned;
      for (const auto& row : rs.rows) {
        for (const auto& v : row) {
          rendered += apps::DbValueToString(v);
          rendered += '|';
        }
        rendered += '\n';
      }
    } else {
      rendered = "error: " + std::get<apps::DbError>(result).message;
    }
    // Parse + per-row scan cost (the SQLite-core bottleneck).
    co_await m.Compute(kDbCore, 5000 + scanned * 25);
    co_await svc.replies.Send(Packet(rendered.begin(), rendered.end()));
  }
}

struct Scenario {
  bool linux_mode = false;
  bool use_db = false;
};

// Runs one scenario to completion; returns the served requests per second.
inline double RunScenario(Scenario sc) {
  sim::Executor exec;
  hw::Machine m(exec, hw::Amd2x2());

  // Server stack: Barrelfish charges the plain stack; the Linux comparator
  // adds kernel-crossing and copy costs per packet.
  net::StackCosts server_costs;
  if (sc.linux_mode) {
    server_costs.per_packet_in += 7000;   // softirq + socket locking + wakeup
    server_costs.per_packet_out += 7000;  // syscall + kernel buffer copy path
    server_costs.per_byte_checksum = 1.0; // checksum + user/kernel copy
  }
  net::NetStack server(m, kServerCore, kServerIp, kServerMac, server_costs);
  net::NetStack client(m, kServicesCore, kClientIp, kClientMac, FreeCosts());
  server.AddArp(kClientIp, kClientMac);
  client.AddArp(kServerIp, kServerMac);

  // Frames pass through the driver core: per-packet driver work plus the
  // URPC hop (Barrelfish) or the in-kernel path (Linux, cheaper hop but the
  // kernel costs are charged in the stack above).
  const Cycles driver_cost = sc.linux_mode ? 900 : 1400;
  server.SetOutput([&m, &client, driver_cost](Packet p) -> Task<> {
    co_await m.Compute(kDriverCore, driver_cost);
    co_await client.Input(std::move(p));
  });
  client.SetOutput([&m, &server, driver_cost](Packet p) -> Task<> {
    co_await m.Compute(kDriverCore, driver_cost);
    co_await server.Input(std::move(p));
  });

  DbService db_service(m, 30000);
  // One outstanding DB RPC at a time: the reply channel carries no request
  // ids, so concurrent HTTP handlers serialize here (as a connection pool of
  // size one would).
  sim::Semaphore db_rpc_slot(exec, 1);

  apps::HttpServer http(
      m, server, 80,
      [&db_service, &db_rpc_slot](std::string sql) -> Task<std::string> {
        co_await db_rpc_slot.Acquire();
        // Web server -> DB over URPC; SQL fits a couple of messages.
        for (std::size_t off = 0; off < sql.size();
             off += urpc::Message::kPayloadBytes) {
          urpc::Message msg;
          msg.tag = off + urpc::Message::kPayloadBytes >= sql.size() ? 1 : 2;
          msg.len = static_cast<std::uint32_t>(
              std::min(urpc::Message::kPayloadBytes, sql.size() - off));
          std::memcpy(msg.bytes.data(), sql.data() + off, msg.len);
          co_await db_service.queries.Send(msg);
        }
        Packet reply = co_await db_service.replies.Recv();
        db_rpc_slot.Release();
        co_return std::string(reply.begin(), reply.end());
      },
      sc.linux_mode ? 68000 : 60000);

  exec.Spawn(http.Serve());
  if (sc.use_db) {
    exec.Spawn(DbServer(m, db_service));
  }

  // httperf-like closed-loop clients.
  const int kClients = 8;
  const int kRequestsPerClient = sc.use_db ? 8 : 25;
  for (int c = 0; c < kClients; ++c) {
    exec.Spawn([](net::NetStack& cl, bool use_db, int requests,
                  std::uint64_t seed) -> Task<> {
      sim::Rng prng(seed);
      for (int r = 0; r < requests; ++r) {
        std::string target = "/index.html";
        if (use_db) {
          std::string sql = apps::TpcwQuery(static_cast<int>(prng.Below(30000)));
          for (char& ch : sql) {
            if (ch == ' ') {
              ch = '+';  // URL-encode spaces
            }
          }
          target = "/query?sql=" + sql;
        }
        co_await GetAndClose(cl, kServerIp, target);
      }
    }(client, sc.use_db, kRequestsPerClient, 1000 + c));
  }
  Cycles elapsed = exec.Run();
  double seconds = static_cast<double>(elapsed) / (m.spec().clock_ghz * 1e9);
  return kClients * kRequestsPerClient / seconds;
}

}  // namespace mk::bench::webserver

#endif  // MK_BENCH_SEC54_WEBSERVER_H_
