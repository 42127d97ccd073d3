// Section 5.4 under fail-stop faults: shard failover for the scaled-out
// serving stack. sec54_scaleout shows requests/sec growing linearly with
// per-core NetStack/httpd shards; this bench kills one of those shards
// mid-run and shows the distributed-systems payoff the paper promises (§2.3,
// §7): the monitors' heartbeat detects the dead core, a membership view
// change commits among the survivors (mk::recover), and the serving stack
// reacts — the NIC's RSS indirection table is reprogrammed so the dead
// queue's flows land on survivors, survivors RST the orphaned connections so
// clients re-handshake instead of waiting out timeouts, DB clients re-point
// at a live replica and a replacement replica is respawned from a donor.
// Throughput dips at the kill and recovers to the surviving shards' share
// within a printed, bounded window; committed work is never lost (a request
// counts only when its full 200 response arrived); and the whole failover is
// deterministic — the same seed replays bit-identically.
//
// Modes:
//   (none)            no-kill baseline; deterministic transcript (golden)
//   --kill[=K]        halt shard K's web core at t0+1M cycles (static mix)
//   --kill-db[=K]     halt shard K's DB-replica core at t0+1M (web+SQL mix)
//   --chaos-seed=N    1-2 seeded random core kills (web+SQL mix), invariants
//   --quick           4x4 machine, 4 shards, shorter run (CI soak)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "bench_util.h"
#include "fault/fault.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/stack.h"
#include "recover/config.h"
#include "recover/recover.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "skb/skb.h"
#include "urpc/channel.h"

namespace mk {
namespace {

using kernel::CpuDriver;
using net::Packet;
using sim::Cycles;
using sim::Task;

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 77);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

constexpr Cycles kDriverFrameCost = 1400;
constexpr int kDbItems = 30000;
constexpr Cycles kKillOffset = 1'000'000;  // default kill time, after t0

// Throughput bucket width for the dip/recovery timeline.
constexpr Cycles kBucket = 500'000;

// One scheduled fail-stop kill, relative to serving start (t0).
struct Kill {
  bool db = false;  // false: the shard's web core; true: its DB-replica core
  int shard = 0;
  Cycles at = kKillOffset;
};

// Workload shape per mix. Two sizing rules, both load-bearing:
//
//  - Offered load is ~60-80% of the rate sec54_scaleout proves sustainable
//    (1/120k per shard static, 1/1.25M web+SQL). A failover bench must run
//    below saturation: at 100%, N-1 survivors can never re-absorb the dead
//    shard's flows and "recovery" is unreachable by construction. At 1/192k
//    per shard, survivors of a 1-of-4 kill run at ~83% of saturation.
//  - attempt_timeout sits well above the no-kill p99 (sec54_scaleout measures
//    up to ~1.8 ms ≈ 4.5M cycles of queueing at saturation). A timeout below
//    normal latency makes clients abandon requests the server is still
//    working on and retry them, which snowballs into a self-inflicted
//    metastable collapse with zero faults injected. Post-kill recovery does
//    NOT ride this timeout — orphaned flows die fast via retransmit → RST.
struct Mix {
  bool use_db = false;
  Cycles interval_per_shard = 192'000;
  Cycles attempt_timeout = 6'000'000;
  Cycles request_deadline = 20'000'000;
};

Mix StaticMix() { return Mix{}; }
Mix DbMix() {
  Mix m;
  m.use_db = true;
  m.interval_per_shard = 1'920'000;
  m.attempt_timeout = 6'000'000;
  m.request_deadline = 20'000'000;
  return m;
}

net::StackCosts FreeCosts() {
  net::StackCosts c;
  c.per_packet_in = 0;
  c.per_packet_out = 0;
  c.per_byte_checksum = 0;
  return c;
}

// Full machine boot: CPU drivers, SKB (populated + measured), monitors. The
// serving stack needs the monitors because failure detection and the
// membership view change run on them.
struct System {
  explicit System(const hw::PlatformSpec& spec)
      : machine(exec, spec), drivers(CpuDriver::BootAll(machine)), skb(machine),
        sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();
    sys.Boot();
  }
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

struct LoadStats {
  explicit LoadStats(sim::Executor& exec) : all_done(exec) {}
  int launched = 0;
  int completed = 0;
  int shed = 0;      // requests that never got a full 200 by their deadline
  int retries = 0;   // extra connection attempts (RSTs, timeouts, 503s)
  // Attempt-failure causes (sum >= retries: the final failed attempt of a
  // shed request is counted here but doesn't produce a retry).
  int fail_connect = 0;  // handshake never completed (SYN into a dead queue)
  int fail_rst = 0;      // peer reset mid-flow (orphaned-flow adoption)
  int fail_503 = 0;      // admission shed by an overloaded survivor
  int fail_other = 0;    // truncation or attempt timeout
  int outstanding = 0;
  bool launching_done = false;
  bool finished = false;
  std::vector<Cycles> latencies;
  std::vector<Cycles> completions;  // absolute completion times
  sim::Event all_done;
};

// Committed-work rule: a request counts as completed only when the client
// holds the entire 200 response (status line + full Content-Length body). An
// RST, a 503 shed, or a truncated stream is an attempt failure, never a
// completion — so a "completed" count can't hide lost work.
bool FullOkResponse(const std::string& resp) {
  if (resp.rfind("HTTP/1.0 200", 0) != 0) {
    return false;
  }
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    return false;
  }
  const std::size_t cl = resp.find("Content-Length: ");
  if (cl == std::string::npos || cl > hdr_end) {
    return false;
  }
  const std::size_t len = std::strtoul(resp.c_str() + cl + 16, nullptr, 10);
  return resp.size() - (hdr_end + 4) >= len;
}

// One HTTP request, open loop, with client-side retry: each attempt is a
// fresh connection with a bounded handshake and response wait; an attempt cut
// short (RST from a survivor, 503 shed, attempt timeout) is retried until the
// request deadline. This is the SYN-retry half of flow adoption: the retry's
// SYN hashes to the re-steered queue and a survivor accepts it.
Task<> OneRequest(sim::Executor& exec, net::NetStack& client, std::string target,
                  const Mix& mix, LoadStats& st) {
  const Cycles start = exec.now();
  const Cycles deadline = start + mix.request_deadline;
  ++st.outstanding;
  bool ok = false;
  bool first_attempt = true;
  Cycles backoff = 100'000;
  while (!ok && exec.now() < deadline) {
    if (!first_attempt) {
      ++st.retries;
      // Back off before re-trying: immediate retries of shed (503) attempts
      // amplify a transient overload into a sustained one.
      co_await exec.Delay(std::min(backoff, deadline - exec.now()));
      backoff = std::min<Cycles>(backoff * 2, 400'000);
      if (exec.now() >= deadline) {
        break;
      }
    }
    first_attempt = false;
    const Cycles attempt_deadline =
        std::min(deadline, exec.now() + mix.attempt_timeout);
    net::NetStack::TcpConn* conn =
        co_await client.TcpConnect(kServerIp, 80, attempt_deadline - exec.now());
    if (conn == nullptr) {
      ++st.fail_connect;
      continue;
    }
    co_await client.TcpSend(*conn, "GET " + target + " HTTP/1.0\r\n\r\n");
    std::string resp;
    while (true) {
      resp.append(conn->rx.begin(), conn->rx.end());
      conn->rx.clear();
      if (conn->peer_closed && FullOkResponse(resp)) {
        ok = true;
        break;
      }
      if (conn->peer_closed) {
        if (resp.empty()) {
          ++st.fail_rst;
        } else if (resp.rfind("HTTP/1.0 503", 0) == 0) {
          ++st.fail_503;
        } else {
          ++st.fail_other;
        }
        break;  // RST, shed, or truncation: retry
      }
      const Cycles now = exec.now();
      if (now >= attempt_deadline) {
        ++st.fail_other;
        break;
      }
      co_await conn->readable.WaitTimeout(attempt_deadline - now);
    }
    co_await client.TcpClose(*conn);
  }
  if (ok) {
    ++st.completed;
    st.latencies.push_back(exec.now() - start);
    st.completions.push_back(exec.now());
  } else {
    ++st.shed;
  }
  --st.outstanding;
  if (st.launching_done && st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

Task<> Generator(sim::Executor& exec, net::NetStack& client, int total,
                 Cycles interval, const Mix& mix, LoadStats& st,
                 std::uint64_t seed) {
  sim::Rng prng(seed);
  for (int i = 0; i < total; ++i) {
    std::string target = "/index.html";
    if (mix.use_db) {
      std::string sql = apps::TpcwQuery(static_cast<int>(prng.Below(kDbItems)));
      for (char& ch : sql) {
        if (ch == ' ') {
          ch = '+';
        }
      }
      target = "/query?sql=" + sql;
    }
    ++st.launched;
    exec.Spawn(OneRequest(exec, client, std::move(target), mix, st));
    co_await exec.Delay(interval);
  }
  st.launching_done = true;
  if (st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

// Per-shard driver loop, fail-stop aware: a driver on a halted core abandons
// its queue (frames already DMA'd into the ring stay there, exactly like a
// real NIC whose servicing core died).
Task<> ShardDriver(hw::Machine& m, net::SimNic& nic, net::NetStack& stack,
                   int queue, int core, const bool* stop) {
  while (!*stop) {
    if (fault::Injector* inj = fault::Injector::active();
        inj != nullptr && inj->CoreHalted(core, m.exec().now())) {
      co_return;  // the driver dies with its core
    }
    if (nic.RxReady(queue)) {
      nic.SetInterruptsEnabled(queue, false);
      auto frame = co_await nic.DriverRxPop(core, queue);
      if (frame) {
        co_await m.Compute(core, kDriverFrameCost);
        co_await stack.Input(std::move(*frame));
      }
      continue;
    }
    nic.SetInterruptsEnabled(queue, true);
    if (!nic.RxReady(queue)) {
      if (co_await nic.rx_irq(queue).WaitTimeout(20000) && !*stop) {
        co_await m.Trap(core);
      }
    }
  }
}

Task<> WireSink(net::SimNic& nic, net::NetStack& client, const bool* stop) {
  while (!*stop) {
    Packet p;
    while (nic.WirePop(&p)) {
      co_await client.Input(std::move(p));
    }
    if (!*stop) {
      co_await nic.wire_out_ready().Wait();
    }
  }
}

Task<> Supervisor(monitor::MonitorSystem& sys, net::SimNic& nic, LoadStats& st,
                  bool* stop, apps::DbReplicaCluster* cluster) {
  while (!st.finished) {
    co_await st.all_done.Wait();
  }
  *stop = true;
  nic.wire_out_ready().Signal();
  if (cluster != nullptr) {
    co_await cluster->Shutdown();
  }
  sys.Shutdown();
}

struct RunOutput {
  Cycles t0 = 0;           // serving start (after boot)
  Cycles final_now = 0;
  std::uint64_t events = 0;
  int launched = 0;
  int completed = 0;
  int shed = 0;
  int retries = 0;
  std::vector<Cycles> latencies;
  std::vector<Cycles> completions;  // offsets from t0
  std::uint64_t view_changes = 0;
  std::uint64_t epoch = 1;
  Cycles first_view_change_at = 0;  // offset from t0; 0 = none committed
  int fail_connect = 0;
  int fail_rst = 0;
  int fail_503 = 0;
  int fail_other = 0;
  int reta_rewritten = 0;
  std::uint64_t adopted = 0;
  std::uint64_t rsts_sent = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t db_respawns = 0;
  std::uint64_t db_timeouts = 0;
  bool db_all_home = true;  // every redirect home, no replica left dead
  bool replicas_consistent = true;
  bool monitors_quiesced = true;
  bool specs_activated = true;
};

RunOutput RunServing(const hw::PlatformSpec& spec, int shards, const Mix& mix,
                     const std::vector<Kill>& kills, int requests_per_shard,
                     bool print_activations) {
  // The TCP retransmit timeout must sit above the worst frame-to-ACK latency
  // a loaded survivor exhibits, or timers fire on delayed-but-not-lost
  // segments: every spurious resend adds load, which adds latency, which
  // fires more timers — congestion collapse with zero frames dropped. The
  // stock 200k RTO is tuned for lightly loaded link tests; this workload
  // queues several hundred k cycles of stack work on a post-kill survivor.
  // (Consulted only while the injector is installed, so the no-kill baseline
  // is oblivious.)
  recover::RecoveryConfig rcfg;
  rcfg.tcp_rto = 1'000'000;
  // With the 1M base RTO, the stock 8-round doubling backoff would keep a
  // dead-peer connection's timer alive for ~511M cycles of idle sim time
  // after the workload drains. Recovery needs exactly one round (the first
  // resend lands on a survivor and draws the RST), so four is generous.
  rcfg.tcp_max_retx = 4;
  recover::ScopedRecoveryConfig scoped_rcfg(rcfg);
  System s(spec);
  sim::Executor& exec = s.exec;
  hw::Machine& m = s.machine;
  const int client_core = spec.num_cores() - 1;
  const Cycles t0 = exec.now();

  // Shard i: web core 4i, DB replica core 4i+1 (same package); core 4i+2 is
  // the shard's spare, used by replica respawn.
  std::vector<apps::ShardPlacement> placements;
  for (int i = 0; i < shards; ++i) {
    placements.push_back({4 * i, 4 * i + 1});
  }

  // The fault schedule, anchored at t0 so kill offsets are exact regardless
  // of boot length. No kills -> no Injector: the identical plain-run path.
  std::unique_ptr<fault::Injector> inj;
  if (!kills.empty()) {
    fault::FaultPlan plan;
    for (const Kill& k : kills) {
      const auto& p = placements[static_cast<std::size_t>(k.shard)];
      plan.HaltCore(k.db ? p.db_core : p.web_core, t0 + k.at);
    }
    inj = std::make_unique<fault::Injector>(plan);
    inj->Install();
    // Boot ran without the injector; arm the detector now.
    exec.Spawn(s.sys.HeartbeatLoop());
  }

  net::SimNic::Config cfg;
  // Deep rings (real 10G NICs run 1-4k descriptors). The failover transient
  // arrives as a burst — orphaned flows' retransmits plus their retried
  // SYNs, all landing on the survivors at once. A shallow ring drops ACKs
  // under that burst, each drop provokes a full-window go-back-N resend, and
  // the resends keep the ring full: a self-sustaining congestion collapse.
  // Sized to absorb the worst burst the kill can generate so the storm never
  // ignites.
  cfg.rx_descs = 4096;
  cfg.tx_descs = 4096;
  cfg.gbps = 10.0;
  cfg.queues = shards;
  // Fine-grained RETA: 16 slots per queue. At baseline this is steering-
  // identical to the slots==queues identity table ((h % 16q) % q == h % q),
  // but on failover it lets ResteerQueue spread the dead queue's 16 slots
  // round-robin across ALL survivors instead of dumping the whole orphaned
  // share onto one of them — the difference between +1/(N-1) load per
  // survivor and one survivor at 2x, which can never drain.
  cfg.reta_slots = 16 * shards;
  cfg.irq_latency = spec.cost.ipi_wire;
  for (const auto& p : placements) {
    cfg.irq_cores.push_back(p.web_core);
  }
  net::SimNic nic(m, cfg);

  net::NetStack client(m, client_core, kClientIp, kClientMac, FreeCosts());
  client.AddArp(kServerIp, kServerMac);
  client.SetOutput(
      [&nic](Packet p) -> Task<> { co_await nic.InjectFromWire(std::move(p)); });

  apps::Database source;
  std::unique_ptr<apps::DbReplicaCluster> cluster;
  if (mix.use_db) {
    apps::PopulateTpcw(&source, kDbItems);
    cluster = std::make_unique<apps::DbReplicaCluster>(m, source, placements);
  }

  bool stop = false;
  std::vector<std::unique_ptr<net::NetStack>> stacks;
  std::vector<std::unique_ptr<apps::HttpServer>> servers;
  for (int i = 0; i < shards; ++i) {
    const int core = placements[static_cast<std::size_t>(i)].web_core;
    auto stack = std::make_unique<net::NetStack>(m, core, kServerIp, kServerMac);
    stack->AddArp(kClientIp, kClientMac);
    stack->SetOutput([&m, &nic, core, i](Packet p) -> Task<> {
      co_await m.Compute(core, kDriverFrameCost);
      co_await nic.DriverTxPush(core, std::move(p), i);
    });
    apps::HttpServer::DbQueryFn query_fn;
    if (mix.use_db) {
      apps::DbReplicaCluster* cl = cluster.get();
      query_fn = [cl, i](std::string sql) -> Task<std::string> {
        co_return co_await cl->Query(i, std::move(sql));
      };
    }
    servers.push_back(
        std::make_unique<apps::HttpServer>(m, *stack, 80, std::move(query_fn)));
    // Explicit overload policy: bounded admission queue, 503 on overflow or
    // stale waiters, so a degraded fleet sheds instead of collapsing. The
    // queue deadline sits above the workload's healthy p99 queue wait so it
    // only fires under genuine overload (post-kill), never in the baseline.
    servers.back()->SetAdmission({/*workers=*/8, /*max_pending=*/32,
                                  /*queue_deadline=*/5'000'000});
    exec.Spawn(servers.back()->Serve());
    exec.Spawn(ShardDriver(m, nic, *stack, i, core, &stop));
    if (mix.use_db) {
      exec.Spawn(cluster->Serve(i));
    }
    stacks.push_back(std::move(stack));
  }
  exec.Spawn(WireSink(nic, client, &stop));

  // The failover chain: the membership service publishes each committed view
  // change and the serving stack reacts.
  recover::MembershipService membership(s.sys);
  int reta_rewritten = 0;
  Cycles first_view_change_at = 0;
  membership.Subscribe(
      [&](const recover::View& view, int dead_core) -> Task<> {
        if (first_view_change_at == 0) {
          first_view_change_at = exec.now() - t0;
        }
        // A dead web core: move its RX queue's RETA slots onto the surviving
        // shards and arm RST-for-unknown on them so adopted flows reset
        // immediately instead of waiting out client timeouts.
        for (int i = 0; i < shards; ++i) {
          if (placements[static_cast<std::size_t>(i)].web_core != dead_core) {
            continue;
          }
          std::vector<int> survivors;
          for (int t = 0; t < shards; ++t) {
            const int tw = placements[static_cast<std::size_t>(t)].web_core;
            if (t != i && view.live[static_cast<std::size_t>(tw)]) {
              survivors.push_back(t);
            }
          }
          if (!survivors.empty()) {
            reta_rewritten += nic.ResteerQueue(i, survivors);
            for (int t : survivors) {
              stacks[static_cast<std::size_t>(t)]->SetSendRstForUnknown(true);
            }
          }
        }
        // A dead DB core: re-point its clients at a live replica, then
        // respawn a replacement on the shard's spare core and serve it.
        if (cluster != nullptr) {
          (void)cluster->HandleCoreFailure(dead_core);
          for (int i = 0; i < shards; ++i) {
            const auto& p = placements[static_cast<std::size_t>(i)];
            if (p.db_core != dead_core) {
              continue;
            }
            if (co_await cluster->Respawn(i, p.db_core + 1)) {
              exec.Spawn(cluster->Serve(i));
            }
          }
        }
      });

  LoadStats st(exec);
  const int total = requests_per_shard * shards;
  const Cycles interval = mix.interval_per_shard / static_cast<Cycles>(shards);
  exec.Spawn(Generator(exec, client, total, interval, mix, st, /*seed=*/42));
  exec.Spawn(Supervisor(s.sys, nic, st, &stop, cluster.get()));
  exec.Run();

  RunOutput out;
  out.t0 = t0;
  out.final_now = exec.now();
  out.events = exec.events_dispatched();
  out.launched = st.launched;
  out.completed = st.completed;
  out.shed = st.shed;
  out.retries = st.retries;
  out.latencies = std::move(st.latencies);
  for (Cycles c : st.completions) {
    out.completions.push_back(c - t0);
  }
  out.view_changes = membership.view_changes_committed();
  out.epoch = membership.view().epoch;
  out.first_view_change_at = first_view_change_at;
  out.fail_connect = st.fail_connect;
  out.fail_rst = st.fail_rst;
  out.fail_503 = st.fail_503;
  out.fail_other = st.fail_other;
  out.reta_rewritten = reta_rewritten;
  for (int q = 0; q < nic.num_queues(); ++q) {
    out.adopted += nic.queue_stats(q).rx_adopted;
  }
  for (const auto& stk : stacks) {
    out.rsts_sent += stk->tcp_rsts_sent();
  }
  for (const auto& srv : servers) {
    out.shed_queue_full += srv->shed_queue_full();
    out.shed_deadline += srv->shed_deadline();
  }
  if (cluster != nullptr) {
    out.db_respawns = cluster->respawns();
    out.db_timeouts = cluster->failover_timeouts();
    for (int i = 0; i < shards; ++i) {
      if (cluster->redirect(i) != i || cluster->replica_dead(i)) {
        out.db_all_home = false;
      }
    }
  }
  out.replicas_consistent = s.sys.LiveReplicasConsistent();
  for (int c = 0; c < s.sys.num_cores(); ++c) {
    if (s.sys.IsOnline(c) && s.sys.on(c).inflight_ops() != 0) {
      out.monitors_quiesced = false;
    }
  }
  if (std::getenv("FAILOVER_DEBUG") != nullptr) {
    std::printf("[debug] view change at t0+%llu\n",
                static_cast<unsigned long long>(first_view_change_at));
    std::printf("[debug] fail causes: connect=%d rst=%d 503=%d other=%d\n",
                st.fail_connect, st.fail_rst, st.fail_503, st.fail_other);
    for (int q = 0; q < nic.num_queues(); ++q) {
      const auto& qs = nic.queue_stats(q);
      std::printf("[debug] q%d: rx=%llu drops=%llu adopted=%llu | served=%llu "
                  "shed_qf=%llu shed_dl=%llu | no_listener=%llu rsts=%llu "
                  "retx=%llu\n",
                  q, static_cast<unsigned long long>(qs.rx_frames),
                  static_cast<unsigned long long>(qs.rx_drops()),
                  static_cast<unsigned long long>(qs.rx_adopted),
                  static_cast<unsigned long long>(
                      servers[static_cast<std::size_t>(q)]->requests_served()),
                  static_cast<unsigned long long>(
                      servers[static_cast<std::size_t>(q)]->shed_queue_full()),
                  static_cast<unsigned long long>(
                      servers[static_cast<std::size_t>(q)]->shed_deadline()),
                  static_cast<unsigned long long>(
                      stacks[static_cast<std::size_t>(q)]->drops_no_listener()),
                  static_cast<unsigned long long>(
                      stacks[static_cast<std::size_t>(q)]->tcp_rsts_sent()),
                  static_cast<unsigned long long>(
                      stacks[static_cast<std::size_t>(q)]->tcp_retransmits()));
    }
    std::printf("[debug] client: retx=%llu rsts_rcvd=%llu drops=%llu\n",
                static_cast<unsigned long long>(client.tcp_retransmits()),
                static_cast<unsigned long long>(client.tcp_rsts_received()),
                static_cast<unsigned long long>(client.drops()));
  }
  if (inj != nullptr) {
    if (print_activations) {
      inj->PrintActivationTable();
    }
    out.specs_activated = inj->AllSpecsActivated();
    inj->Uninstall();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

std::vector<int> Bucketize(const RunOutput& r, Cycles window) {
  std::vector<int> buckets(static_cast<std::size_t>(window / kBucket), 0);
  for (Cycles c : r.completions) {
    const std::size_t b = static_cast<std::size_t>(c / kBucket);
    if (b < buckets.size()) {
      ++buckets[b];
    }
  }
  return buckets;
}

void PrintBuckets(const std::vector<int>& buckets) {
  std::printf("completions per %.1fM-cycle bucket (t0 = serving start):\n",
              static_cast<double>(kBucket) / 1e6);
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    std::printf("%4d%s", buckets[b], (b + 1) % 10 == 0 ? "\n" : " ");
  }
  if (buckets.size() % 10 != 0) {
    std::printf("\n");
  }
}

// Recovery analysis for a single web-core kill at `kill_at`. Individual
// 0.5M-cycle buckets carry Poisson-scale jitter at these rates, so the
// comparison is mean-based: pre-kill rate is the mean over all full buckets
// before the kill (skipping the warm-up bucket), and the system has recovered
// at the first bucket from which the remaining run sustains a mean >= 7/8 of
// it with no bucket falling below half (a hole that deep is an outage, not
// noise). The final bucket is excluded — it is truncated at run end.
struct Recovery {
  double prekill = 0;
  double threshold = 0;
  bool recovered = false;
  Cycles window = 0;  // kill -> end of the first bucket of sustained recovery
};

Recovery AnalyzeRecovery(const std::vector<int>& buckets, Cycles kill_at) {
  Recovery r;
  const std::size_t kill_bucket = static_cast<std::size_t>(kill_at / kBucket);
  const std::size_t last = buckets.empty() ? 0 : buckets.size() - 1;
  if (kill_bucket < 2 || kill_bucket >= last) {
    return r;
  }
  for (std::size_t b = 1; b < kill_bucket; ++b) {
    r.prekill += buckets[b];
  }
  r.prekill /= static_cast<double>(kill_bucket - 1);
  r.threshold = r.prekill * 7.0 / 8.0;
  for (std::size_t b = kill_bucket; b < last; ++b) {
    double sum = 0;
    bool hole = false;
    for (std::size_t b2 = b; b2 < last; ++b2) {
      sum += buckets[b2];
      if (buckets[b2] < r.prekill / 2.0) {
        hole = true;
      }
    }
    if (!hole && sum / static_cast<double>(last - b) >= r.threshold) {
      r.recovered = true;
      r.window = static_cast<Cycles>(b + 1) * kBucket - kill_at;
      return r;
    }
  }
  return r;
}

bool SameRun(const RunOutput& a, const RunOutput& b) {
  return a.final_now == b.final_now && a.events == b.events &&
         a.completed == b.completed && a.shed == b.shed &&
         a.retries == b.retries && a.latencies == b.latencies &&
         a.view_changes == b.view_changes && a.adopted == b.adopted &&
         a.rsts_sent == b.rsts_sent && a.db_timeouts == b.db_timeouts;
}

void PrintCounters(const RunOutput& r, bool use_db) {
  std::printf("%-26s %d launched, %d completed, %d shed, %d retries\n",
              "requests:", r.launched, r.completed, r.shed, r.retries);
  std::printf("%-26s %llu committed (epoch %llu)\n", "view changes:",
              static_cast<unsigned long long>(r.view_changes),
              static_cast<unsigned long long>(r.epoch));
  std::printf("%-26s %d slots rewritten, %llu frames adopted, %llu RSTs sent\n",
              "flow re-steering:", r.reta_rewritten,
              static_cast<unsigned long long>(r.adopted),
              static_cast<unsigned long long>(r.rsts_sent));
  std::printf("%-26s %llu queue-full, %llu deadline\n", "admission sheds:",
              static_cast<unsigned long long>(r.shed_queue_full),
              static_cast<unsigned long long>(r.shed_deadline));
  if (use_db) {
    std::printf("%-26s %llu reply timeouts, %llu respawns, %s\n", "db failover:",
                static_cast<unsigned long long>(r.db_timeouts),
                static_cast<unsigned long long>(r.db_respawns),
                r.db_all_home ? "all redirects home" : "REDIRECTS NOT HOME");
  }
}

// ---------------------------------------------------------------------------
// Modes

int RunNoKill(bench::TraceSession& session, bool quick) {
  bench::PrintHeader(quick
                         ? "Section 5.4 failover: no-kill baseline, 4 shards on 4x4 AMD (quick)"
                         : "Section 5.4 failover: no-kill baseline, 8 shards on 8x4 AMD");
  session.BeginRun("no-kill");
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 150 : 250;
  RunOutput r = RunServing(quick ? hw::Amd4x4() : hw::Amd8x4(), shards,
                           StaticMix(), {}, rps, /*print_activations=*/false);
  const Cycles window = static_cast<Cycles>(rps) * StaticMix().interval_per_shard;
  PrintBuckets(Bucketize(r, window));
  PrintCounters(r, /*use_db=*/false);
  const bool ok = r.completed == r.launched && r.shed == 0 &&
                  r.view_changes == 0 && r.adopted == 0 && r.rsts_sent == 0;
  std::printf("%-26s %s\n", "clean run:",
              ok ? "all requests served, no recovery machinery touched"
                 : "UNEXPECTED LOSS OR RECOVERY ACTIVITY");
  return ok ? 0 : 1;
}

int RunKillWeb(bench::TraceSession& session, bool quick, int shard) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 150 : 250;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr, "--kill=%d out of range (0..%d)\n", shard, shards - 1);
    return 2;
  }
  bench::PrintHeader("Section 5.4 failover: kill shard " + std::to_string(shard) +
                     "'s web core (" + std::to_string(4 * shard) + ") at t0+" +
                     std::to_string(kKillOffset) + " cycles, " +
                     std::to_string(shards) + " shards");
  const std::vector<Kill> kills = {{/*db=*/false, shard, kKillOffset}};
  session.BeginRun("kill-web-run1");
  RunOutput a = RunServing(spec, shards, StaticMix(), kills, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-web-run2");
  RunOutput b = RunServing(spec, shards, StaticMix(), kills, rps,
                           /*print_activations=*/false);

  const Cycles window = static_cast<Cycles>(rps) * StaticMix().interval_per_shard;
  const std::vector<int> buckets = Bucketize(a, window);
  PrintBuckets(buckets);
  PrintCounters(a, /*use_db=*/false);

  const Recovery rec = AnalyzeRecovery(buckets, kKillOffset);
  std::printf("%-26s %.1f/bucket pre-kill mean, threshold %.1f (>= 7/8 of it)\n",
              "recovery target:", rec.prekill, rec.threshold);
  if (rec.recovered) {
    std::printf("%-26s sustained mean >= %.1f/bucket within %llu cycles of the kill\n",
                "recovery window:", rec.threshold,
                static_cast<unsigned long long>(rec.window));
  } else {
    std::printf("%-26s NEVER RECOVERED\n", "recovery window:");
  }

  const bool no_loss = a.completed + a.shed == a.launched;
  const bool deterministic = SameRun(a, b);
  std::printf("%-26s %s\n", "committed-work ledger:",
              no_loss ? "completed + shed == launched" : "REQUESTS LOST");
  std::printf("%-26s %s (run 1: %llu cycles / %llu events, run 2: %llu / %llu)\n",
              "replay bit-identical:", deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(a.final_now),
              static_cast<unsigned long long>(a.events),
              static_cast<unsigned long long>(b.final_now),
              static_cast<unsigned long long>(b.events));
  const bool ok = rec.recovered && no_loss && deterministic &&
                  a.view_changes == 1 && a.adopted > 0 && a.specs_activated &&
                  a.replicas_consistent;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunKillDb(bench::TraceSession& session, bool quick, int shard) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 24 : 48;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  if (shard < 0 || shard >= shards) {
    std::fprintf(stderr, "--kill-db=%d out of range (0..%d)\n", shard, shards - 1);
    return 2;
  }
  const int db_core = 4 * shard + 1;
  bench::PrintHeader("Section 5.4 failover: kill shard " + std::to_string(shard) +
                     "'s DB-replica core (" + std::to_string(db_core) +
                     ") at t0+" + std::to_string(kKillOffset) + " cycles, " +
                     std::to_string(shards) + " shards, web+SQL mix");
  const std::vector<Kill> kills = {{/*db=*/true, shard, kKillOffset}};
  session.BeginRun("kill-db-run1");
  RunOutput a = RunServing(spec, shards, DbMix(), kills, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-db-run2");
  RunOutput b = RunServing(spec, shards, DbMix(), kills, rps,
                           /*print_activations=*/false);
  PrintCounters(a, /*use_db=*/true);
  const bool no_loss = a.completed + a.shed == a.launched;
  const bool deterministic = SameRun(a, b);
  std::printf("%-26s %s\n", "committed-work ledger:",
              no_loss ? "completed + shed == launched" : "REQUESTS LOST");
  std::printf("%-26s %s (run 1: %llu cycles / %llu events, run 2: %llu / %llu)\n",
              "replay bit-identical:", deterministic ? "yes" : "NO",
              static_cast<unsigned long long>(a.final_now),
              static_cast<unsigned long long>(a.events),
              static_cast<unsigned long long>(b.final_now),
              static_cast<unsigned long long>(b.events));
  // The dip here is bounded by db_rpc_timeout, and the replacement replica
  // must end up serving: redirects home, nothing left dead, no request lost.
  const bool ok = no_loss && deterministic && a.view_changes == 1 &&
                  a.db_respawns == 1 && a.db_all_home && a.shed == 0 &&
                  a.specs_activated && a.replicas_consistent;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int RunChaos(bench::TraceSession& session, bool quick, std::uint64_t seed) {
  const int shards = quick ? 4 : 8;
  const int rps = quick ? 16 : 24;
  const hw::PlatformSpec spec = quick ? hw::Amd4x4() : hw::Amd8x4();
  bench::PrintHeader("Section 5.4 failover: chaos plan, seed " +
                     std::to_string(seed) + ", " + std::to_string(shards) +
                     " shards, web+SQL mix");
  // The seeded plan: 1-2 fail-stop kills of distinct shards, each hitting
  // either the web core or the DB-replica core at a random early offset.
  sim::Rng rng(seed);
  std::vector<Kill> kills;
  const int n_kills = 1 + static_cast<int>(rng.Below(2));
  int first_shard = -1;
  for (int k = 0; k < n_kills; ++k) {
    Kill kill;
    if (k == 0) {
      kill.shard = static_cast<int>(rng.Below(static_cast<std::uint64_t>(shards)));
      first_shard = kill.shard;
    } else {
      kill.shard = (first_shard + 1 +
                    static_cast<int>(rng.Below(static_cast<std::uint64_t>(shards - 1)))) %
                   shards;
    }
    kill.db = rng.Below(2) == 1;
    kill.at = 500'000 + static_cast<Cycles>(rng.Below(1'500'000));
    kills.push_back(kill);
  }
  for (const Kill& k : kills) {
    std::printf("chaos plan: halt shard %d's %s core (%d) at t0+%llu\n", k.shard,
                k.db ? "DB-replica" : "web", 4 * k.shard + (k.db ? 1 : 0),
                static_cast<unsigned long long>(k.at));
  }
  std::printf("replay with: sec54_failover %s--chaos-seed=%llu\n",
              quick ? "--quick " : "", static_cast<unsigned long long>(seed));

  session.BeginRun("chaos");
  RunOutput r = RunServing(spec, shards, DbMix(), kills, rps,
                           /*print_activations=*/true);
  PrintCounters(r, /*use_db=*/true);

  // Invariants, not thresholds: chaos plans vary in damage, but the ledger
  // must balance, every kill must be detected and committed as a view change,
  // every dead replica must be respawned, the survivors' capability replicas
  // must agree, and the run must have exercised every scheduled fault.
  int db_kills = 0;
  for (const Kill& k : kills) {
    db_kills += k.db ? 1 : 0;
  }
  struct Check {
    const char* name;
    bool ok;
  } checks[] = {
      {"ledger balances", r.completed + r.shed == r.launched},
      {"majority served", r.completed * 2 >= r.launched},
      {"all kills became view changes",
       r.view_changes == static_cast<std::uint64_t>(n_kills) &&
           r.epoch == 1 + static_cast<std::uint64_t>(n_kills)},
      {"dead replicas respawned",
       r.db_respawns == static_cast<std::uint64_t>(db_kills) && r.db_all_home},
      {"live replicas consistent", r.replicas_consistent},
      {"monitors quiesced", r.monitors_quiesced},
      {"every fault spec fired", r.specs_activated},
  };
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("%-32s %s\n", c.name, c.ok ? "ok" : "FAIL");
    ok = ok && c.ok;
  }
  if (!ok) {
    std::printf("chaos FAIL: reproduce with seed %llu (plan above)\n",
                static_cast<unsigned long long>(seed));
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mk

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceFlags trace_flags = bench::ParseTraceFlags(argc, argv);
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bench::TraceSession session(trace_flags);
  bool quick = false;
  bool kill = false;
  int kill_shard = 2;
  bool kill_db = false;
  int kill_db_shard = 1;
  bool chaos = false;
  std::uint64_t chaos_seed = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--kill") == 0) {
      kill = true;
    } else if (std::strncmp(arg, "--kill=", 7) == 0) {
      kill = true;
      kill_shard = std::atoi(arg + 7);
    } else if (std::strcmp(arg, "--kill-db") == 0) {
      kill_db = true;
    } else if (std::strncmp(arg, "--kill-db=", 10) == 0) {
      kill_db = true;
      kill_db_shard = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = std::strtoull(arg + 13, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: sec54_failover [--quick] [--kill[=K]] [--kill-db[=K]] "
                   "[--chaos-seed=N]\n");
      return 2;
    }
  }
  int rc = 0;
  if (chaos) {
    rc = RunChaos(session, quick, chaos_seed);
  } else if (kill) {
    rc = RunKillWeb(session, quick, kill_shard);
  } else if (kill_db) {
    rc = RunKillDb(session, quick, kill_db_shard);
  } else {
    rc = RunNoKill(session, quick);
  }
  return rc;
}
