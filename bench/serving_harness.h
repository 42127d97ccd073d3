// The serving harness of the §5.4 serving benches (sec54_scaleout,
// sec54_failover, store_readwrite, rack_serving): the committed-work rule, the
// retrying open-loop client and its generator, the NIC RX driver loop, the
// sharded single-machine front end, and the recovery analysis and report
// lines. Each bench keeps its mix, sizing, fault plan, output struct, modes
// and gates. No helper adds simulated work: coroutines here are awaited
// (symmetric transfer, sim/task.h) or spawned where the benches spawned them.
#ifndef MK_BENCH_SERVING_HARNESS_H_
#define MK_BENCH_SERVING_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
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
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"
#include "skb/skb.h"

namespace mk::bench {

using sim::Cycles;
using sim::Task;

constexpr net::Ipv4Addr kServerIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kClientIp = net::MakeIp(10, 0, 0, 77);
const net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};

// Per-frame driver work on the core that drains (or fills) a NIC queue.
constexpr Cycles kDriverFrameCost = 1400;

// Committed-work rule: a request counts as completed only when the client
// holds the entire 200 response (status line + full Content-Length body). An
// RST, a 503 shed, or a truncated stream is an attempt failure, never a
// completion — so a "completed" count can't hide lost work.
inline bool FullOkResponse(const std::string& resp) {
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

// The bytes after the header block; empty if the headers never ended.
inline std::string ResponseBody(const std::string& resp) {
  const std::size_t hdr_end = resp.find("\r\n\r\n");
  return hdr_end == std::string::npos ? std::string() : resp.substr(hdr_end + 4);
}

// SQL as a URL query value: spaces become '+'.
inline std::string UrlSql(std::string sql) {
  std::replace(sql.begin(), sql.end(), ' ', '+');
  return sql;
}

// ---------------------------------------------------------------------------
// Open-loop load

struct LoadTotals {
  int launched = 0;
  int completed = 0;
  int shed = 0;     // requests that never got a full 200 by their deadline
  int retries = 0;  // extra connection attempts (RSTs, timeouts, 503s)
  // Attempt-failure causes (sum >= retries: the final failed attempt of a
  // shed request is counted here but doesn't produce a retry).
  int fail_connect = 0;  // handshake never completed (SYN into a dead queue)
  int fail_rst = 0;      // peer reset mid-flow (orphaned-flow adoption)
  int fail_503 = 0;      // admission shed by an overloaded survivor
  int fail_other = 0;    // truncation or attempt timeout
  std::vector<Cycles> latencies;
  std::vector<Cycles> completions;  // absolute completion times
};

struct LoadStats : LoadTotals {
  explicit LoadStats(sim::Executor& exec) : all_done(exec) {}
  int outstanding = 0;
  bool launching_done = false;
  bool finished = false;
  sim::Event all_done;  // signalled when the last launched request retires
};

// Each attempt gets at most `attempt_timeout`, the request `request_deadline`.
struct RequestTiming {
  Cycles attempt_timeout = 0;
  Cycles request_deadline = 0;
};

struct RequestOutcome {
  bool ok = false;  // a full 200 arrived
  std::string body;
};

// The URL to fetch, and an optional hook that sees the final outcome before
// the request retires (a bench's own accounting).
struct RequestPlan {
  std::string target;
  std::function<void(const RequestOutcome&)> on_done = nullptr;
};

// A TPC-W item-detail browse of an item drawn uniformly from [0, items).
inline RequestPlan TpcwBrowse(sim::Rng& rng, int items) {
  return {"/query?sql=" + UrlSql(apps::TpcwQuery(static_cast<int>(
                              rng.Below(static_cast<std::uint64_t>(items)))))};
}

// One HTTP/1.0 GET, open loop, with client-side retry: each attempt is a
// fresh connection with a bounded handshake and response wait; an attempt cut
// short (RST from a survivor, 503 shed, truncation, attempt timeout) is
// retried with exponential backoff until the request deadline. This is the
// SYN-retry half of flow adoption: the retry's SYN hashes to the re-steered
// queue (or backend) and a survivor accepts it. A retried request re-sends
// the same URL, so a write retried after its ack was lost is deduplicated.
inline Task<> Request(sim::Executor& exec, net::NetStack& client,
                      net::Ipv4Addr server, RequestPlan plan, RequestTiming timing,
                      LoadStats& st) {
  const Cycles start = exec.now();
  const Cycles deadline = start + timing.request_deadline;
  ++st.outstanding;
  RequestOutcome out;
  bool first_attempt = true;
  Cycles backoff = 100'000;
  while (!out.ok && exec.now() < deadline) {
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
        std::min(deadline, exec.now() + timing.attempt_timeout);
    net::NetStack::TcpConn* conn =
        co_await client.TcpConnect(server, 80, attempt_deadline - exec.now());
    if (conn == nullptr) {
      ++st.fail_connect;
      continue;
    }
    co_await client.TcpSend(*conn, "GET " + plan.target + " HTTP/1.0\r\n\r\n");
    std::string resp;
    while (true) {
      resp.append(conn->rx.begin(), conn->rx.end());
      conn->rx.clear();
      if (conn->peer_closed && FullOkResponse(resp)) {
        out.ok = true;
        out.body = ResponseBody(resp);
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
    client.Release(conn);
  }
  if (out.ok) {
    ++st.completed;
    st.latencies.push_back(exec.now() - start);
    st.completions.push_back(exec.now());
  } else {
    ++st.shed;
  }
  if (plan.on_done) {
    plan.on_done(out);
  }
  --st.outstanding;
  if (st.launching_done && st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

// Fires `total` requests at a fixed interval. `next` is called once per
// request, in launch order, so a bench's RNG draws keep their order.
inline Task<> Generator(sim::Executor& exec, net::NetStack& client,
                        net::Ipv4Addr server, int total, Cycles interval,
                        RequestTiming timing, LoadStats& st,
                        std::function<RequestPlan()> next) {
  for (int i = 0; i < total; ++i) {
    RequestPlan plan = next();
    ++st.launched;
    exec.Spawn(Request(exec, client, server, std::move(plan), timing, st));
    co_await exec.Delay(interval);
  }
  st.launching_done = true;
  if (st.outstanding == 0) {
    st.finished = true;
    st.all_done.Signal();
  }
}

// ---------------------------------------------------------------------------
// Drivers, shards and lifecycle

// RX driver idle waits: a bounded nap lets a driver see its stop flag without
// an interrupt; a park waits on the interrupt alone.
constexpr Cycles kDriverIdleNap = 20000;
constexpr Cycles kDriverPark = 0;

// e1000-style RX driver loop for one NIC queue: poll while frames are ready,
// re-enable the interrupt and wait when idle (a trap is charged on a real
// wake). Fail-stop aware: a driver on a halted core abandons its queue
// (frames already DMA'd stay in the ring, as on a real NIC whose servicing
// core died). `stop` (may be null) ends the loop.
inline Task<> RxDriverLoop(hw::Machine& m, net::SimNic& nic, net::NetStack& stack,
                           int queue, int core, const bool* stop, Cycles idle_wait) {
  while (stop == nullptr || !*stop) {
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
    if (nic.RxReady(queue)) {
      continue;
    }
    if (idle_wait == kDriverPark) {
      co_await nic.rx_irq(queue).Wait();
      co_await m.Trap(core);
    } else if (co_await nic.rx_irq(queue).WaitTimeout(idle_wait) &&
               (stop == nullptr || !*stop)) {
      co_await m.Trap(core);
    }
  }
}

// One serving shard on `core`: a NetStack bound to (ip, mac) that reaches the
// client at (peer_ip, peer_mac) and transmits on NIC queue `queue` after the
// driver's per-frame work, and an HttpServer on port 80. Spawns nothing.
struct Shard {
  std::unique_ptr<net::NetStack> stack;
  std::unique_ptr<apps::HttpServer> server;
};

inline Shard MakeShard(hw::Machine& m, net::SimNic& nic, int queue, int core,
                       net::Ipv4Addr ip, const net::MacAddr& mac,
                       net::Ipv4Addr peer_ip, const net::MacAddr& peer_mac,
                       apps::HttpServer::DbQueryFn query) {
  Shard s;
  s.stack = std::make_unique<net::NetStack>(m, core, ip, mac);
  s.stack->AddArp(peer_ip, peer_mac);
  s.stack->SetOutput([&m, &nic, core, queue](net::Packet p) -> Task<> {
    co_await m.Compute(core, kDriverFrameCost);
    (void)co_await nic.DriverTxPush(core, std::move(p), queue);
  });
  s.server = std::make_unique<apps::HttpServer>(m, *s.stack, 80, std::move(query));
  return s;
}

// Drains frames the server side put on the wire into the client stack.
inline Task<> WireSink(net::SimNic& nic, net::NetStack& client, const bool* stop) {
  while (!*stop) {
    net::Packet p;
    while (nic.WirePop(&p)) {
      co_await client.Input(std::move(p));
    }
    if (!*stop) {
      co_await nic.wire_out_ready().Wait();
    }
  }
}

// Waits for the load to drain, raises `stop`, wakes the wire sink, then runs
// `shutdown` (replica and monitor teardown).
inline Task<> Supervisor(net::SimNic& nic, LoadStats& st, bool* stop,
                         std::function<Task<>()> shutdown) {
  while (!st.finished) {
    co_await st.all_done.Wait();
  }
  *stop = true;
  nic.wire_out_ready().Signal();  // unblock the sink
  co_await shutdown();
}

// Full machine boot: CPU drivers, SKB (populated + measured), monitors. The
// failover benches need the monitors because failure detection and the
// membership view change run on them.
struct System {
  explicit System(const hw::PlatformSpec& spec)
      : machine(exec, spec), drivers(kernel::CpuDriver::BootAll(machine)),
        skb(machine), sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();
    sys.Boot();
  }
  sim::Executor exec;
  hw::Machine machine;
  std::vector<std::unique_ptr<kernel::CpuDriver>> drivers;
  skb::Skb skb;
  monitor::MonitorSystem sys;
};

// TCP recovery tuning for the fault runs. The retransmit timeout must sit
// above the worst frame-to-ACK latency a loaded survivor exhibits, or timers
// fire on delayed-but-not-lost segments: every spurious resend adds load,
// which adds latency, which fires more timers — congestion collapse with
// zero frames dropped. The stock 200k RTO is tuned for lightly loaded link
// tests; these workloads queue several hundred k cycles of stack work on a
// post-kill survivor (plus four switch-port crossings in a rack). With the
// 1M base RTO, the stock 8-round doubling backoff would keep a dead-peer
// connection's timer alive for ~511M cycles of idle sim time after the
// workload drains; recovery needs exactly one round (the first resend lands
// on a survivor and draws the RST), so four is generous. Consulted only while
// an injector is installed, so no-fault runs are oblivious.
inline recover::RecoveryConfig FailoverTcpConfig() {
  recover::RecoveryConfig c;
  c.tcp_rto = 1'000'000;
  c.tcp_max_retx = 4;
  return c;
}

// Explicit overload policy for serving shards: bounded admission queue, 503
// on overflow or stale waiters, so a degraded fleet sheds instead of
// collapsing. The queue deadline sits above the workloads' healthy p99 queue
// wait so it only fires under genuine overload (post-kill), never in a
// no-fault run.
inline const apps::HttpServer::Admission kShedAdmission{
    /*workers=*/8, /*max_pending=*/32, /*queue_deadline=*/5'000'000};

// Ends a run's fault injection (null `inj`: a no-fault run): prints the
// activation table if asked, uninstalls, and returns whether every spec fired.
inline bool RetireInjector(fault::Injector* inj, bool print_activations) {
  if (inj == nullptr) {
    return true;
  }
  if (print_activations) {
    inj->PrintActivationTable();
  }
  const bool all_fired = inj->AllSpecsActivated();
  inj->Uninstall();
  return all_fired;
}

// True when no online monitor has an agreement operation in flight.
inline bool MonitorsQuiesced(monitor::MonitorSystem& sys) {
  for (int c = 0; c < sys.num_cores(); ++c) {
    if (sys.IsOnline(c) && sys.on(c).inflight_ops() != 0) {
      return false;
    }
  }
  return true;
}

// A uniform pick among the n-1 values in [0, n) other than `excluded`.
inline int PickOther(sim::Rng& rng, int n, int excluded) {
  const auto offset = static_cast<int>(rng.Below(static_cast<std::uint64_t>(n - 1)));
  return (excluded + 1 + offset) % n;
}

// " name=value" per counter, for a failing run's report.
inline std::string CounterList(
    std::initializer_list<std::pair<const char*, std::uint64_t>> counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += std::string(" ") + name + "=" + std::to_string(value);
  }
  return out;
}

// A NIC's frame counters summed over its queues.
inline std::string NicCounters(const net::SimNic& nic) {
  std::uint64_t rx = 0;
  std::uint64_t drops = 0;
  std::uint64_t tx_full = 0;
  for (int q = 0; q < nic.num_queues(); ++q) {
    rx += nic.queue_stats(q).rx_frames;
    drops += nic.queue_stats(q).rx_drops();
    tx_full += nic.queue_stats(q).tx_ring_full;
  }
  return CounterList({{"rx", rx}, {"drops", drops}, {"tx_full", tx_full}});
}

// ---------------------------------------------------------------------------
// Sharded single-machine front end

// kScaleout: 512-descriptor rings, the identity RETA, spawn-per-connection
// serving. kFailover: sized for a shard dying mid-run — deep rings, a
// fine-grained RETA and kShedAdmission (NicConfig says why).
enum class FrontEndSizing { kScaleout, kFailover };

// A shard's data-tier hooks, all optional: the browse query, the write route
// (/buy), and a replica task spawned after the shard's driver.
struct ShardDb {
  apps::HttpServer::DbQueryFn query;
  apps::HttpServer::DbExecFn exec;
  Task<> replica;
};

// Shard i's hooks onto a read-only replica cluster (null: a static-page run).
inline ShardDb ReplicaHooks(apps::DbReplicaCluster* cl, int shard) {
  ShardDb db;
  if (cl != nullptr) {
    db.query = [cl, shard](std::string sql) -> Task<std::string> {
      co_return co_await cl->Query(shard, std::move(sql));
    };
    db.replica = cl->Serve(shard);
  }
  return db;
}

// An 82576-class multi-queue NIC whose queue i is drained by shard i's web
// core, a free-cost client stack on the wire side, and per shard a private
// NetStack + HttpServer + RX driver.
struct ShardedFrontEnd {
  // Builds the NIC and the client stack; shard i will serve on cores[i].
  ShardedFrontEnd(hw::Machine& machine, std::vector<int> cores, FrontEndSizing s)
      : m(machine),
        web_cores(std::move(cores)),
        sizing(s),
        nic(machine, NicConfig(machine, web_cores, s)),
        client(machine, machine.spec().num_cores() - 1, kClientIp, kClientMac,
               FreeCosts()) {
    client.AddArp(kServerIp, kServerMac);
    client.SetOutput(
        [this](net::Packet p) -> Task<> { co_await nic.InjectFromWire(std::move(p)); });
  }

  static net::SimNic::Config NicConfig(const hw::Machine& m,
                                       const std::vector<int>& web_cores,
                                       FrontEndSizing sizing) {
    const int shards = static_cast<int>(web_cores.size());
    net::SimNic::Config cfg;
    cfg.rx_descs = 512;
    cfg.tx_descs = 512;
    if (sizing == FrontEndSizing::kFailover) {
      // Deep rings (real 10G NICs run 1-4k descriptors). The failover
      // transient arrives as a burst — orphaned flows' retransmits plus their
      // retried SYNs, all landing on the survivors at once. A shallow ring
      // drops ACKs under that burst, each drop provokes a full-window
      // go-back-N resend, and the resends keep the ring full: a
      // self-sustaining congestion collapse. Sized to absorb the worst burst
      // the kill can generate so the storm never ignites.
      cfg.rx_descs = 4096;
      cfg.tx_descs = 4096;
      // Fine-grained RETA: 16 slots per queue. At baseline this is steering-
      // identical to the slots==queues identity table ((h % 16q) % q ==
      // h % q), but on failover it lets ResteerQueue spread the dead queue's
      // 16 slots round-robin across ALL survivors instead of dumping the
      // whole orphaned share onto one of them — the difference between
      // +1/(N-1) load per survivor and one survivor at 2x, which can never
      // drain.
      cfg.reta_slots = 16 * shards;
    }
    cfg.gbps = 10.0;
    cfg.queues = shards;
    cfg.irq_latency = m.spec().cost.ipi_wire;
    cfg.irq_cores = web_cores;
    return cfg;
  }

  // Builds every shard and spawns, per shard in order, its HttpServer, its RX
  // driver and its `db` replica task; then the wire sink.
  void Start(const std::function<ShardDb(int shard)>& db) {
    for (int i = 0; i < static_cast<int>(web_cores.size()); ++i) {
      const int core = web_cores[static_cast<std::size_t>(i)];
      ShardDb hooks = db(i);
      Shard s = MakeShard(m, nic, i, core, kServerIp, kServerMac, kClientIp,
                          kClientMac, std::move(hooks.query));
      if (hooks.exec) {
        s.server->SetDbExec(std::move(hooks.exec));
      }
      if (sizing == FrontEndSizing::kFailover) {
        s.server->SetAdmission(kShedAdmission);
      }
      m.exec().Spawn(s.server->Serve());
      m.exec().Spawn(RxDriverLoop(m, nic, *s.stack, i, core, &stop, kDriverIdleNap));
      if (hooks.replica.valid()) {
        m.exec().Spawn(std::move(hooks.replica));
      }
      shards.push_back(std::move(s));
    }
    m.exec().Spawn(WireSink(nic, client, &stop));
  }

  // A dead web core: move its RX queue's RETA slots onto the surviving shards.
  // A survivor answers an adopted flow's mid-flow segment with RST (the stack
  // resets every unknown flow), so the client retries at once instead of
  // waiting out its timeout. Returns the slots rewritten.
  int ResteerDeadWebCore(const recover::View& view, int dead_core) {
    const auto dead = std::find(web_cores.begin(), web_cores.end(), dead_core);
    if (dead == web_cores.end()) {
      return 0;
    }
    std::vector<int> survivors;
    for (std::size_t t = 0; t < web_cores.size(); ++t) {
      if (web_cores[t] != dead_core && view.live[static_cast<std::size_t>(web_cores[t])]) {
        survivors.push_back(static_cast<int>(t));
      }
    }
    if (survivors.empty()) {
      return 0;
    }
    return nic.ResteerQueue(static_cast<int>(dead - web_cores.begin()), survivors);
  }

  // Per-queue rx/drops/adopted, served/shed, RSTs/retx and the client's
  // counters: the report of a failing run.
  std::string QueueTable() const {
    std::string out = "per-queue diagnostics:\n";
    for (int q = 0; q < nic.num_queues(); ++q) {
      const auto& qs = nic.queue_stats(q);
      const Shard& s = shards[static_cast<std::size_t>(q)];
      out += "  q" + std::to_string(q) + ":" +
             CounterList({{"rx", qs.rx_frames},
                          {"drops", qs.rx_drops()},
                          {"adopted", qs.rx_adopted},
                          {"served", s.server->requests_served()},
                          {"shed_qf", s.server->shed_queue_full()},
                          {"shed_dl", s.server->shed_deadline()},
                          {"no_listener", s.stack->drops_no_listener()},
                          {"rsts", s.stack->tcp_rsts_sent()},
                          {"retx", s.stack->tcp_retransmits()}}) +
             "\n";
    }
    return out + "  client:" +
           CounterList({{"retx", client.tcp_retransmits()},
                        {"rsts_rcvd", client.tcp_rsts_received()},
                        {"drops", client.drops()}}) +
           "\n";
  }

  hw::Machine& m;
  const std::vector<int> web_cores;
  const FrontEndSizing sizing;
  net::SimNic nic;
  net::NetStack client;
  bool stop = false;
  std::vector<Shard> shards;
};

// ---------------------------------------------------------------------------
// Recovery analysis and report lines

// What every serving bench's run output carries besides its own counters.
struct RunTotals : LoadTotals {
  Cycles final_now = 0;
  std::uint64_t events = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t epoch = 1;
  bool specs_activated = true;
  std::string diagnostics;  // counters printed only when the run fails

  // Takes the generator's ledger, completion times rebased to `t0`, and the
  // run's final clock and event count.
  void TakeLoad(LoadStats&& st, Cycles t0, Cycles now, std::uint64_t dispatched) {
    static_cast<LoadTotals&>(*this) = std::move(st);
    for (Cycles& c : completions) {
      c -= t0;
    }
    final_now = now;
    events = dispatched;
  }
};

// Two replays of one plan agree on clock, events, ledger, every latency and
// the view changes (a bench adds its own counters).
inline bool SameReplay(const RunTotals& a, const RunTotals& b) {
  return a.final_now == b.final_now && a.events == b.events &&
         a.completed == b.completed && a.shed == b.shed &&
         a.retries == b.retries && a.latencies == b.latencies &&
         a.view_changes == b.view_changes;
}

// Completions per `bucket`-cycle bucket over [0, window); later ones dropped.
inline std::vector<int> Bucketize(const std::vector<Cycles>& completions,
                                  Cycles window, Cycles bucket) {
  std::vector<int> buckets(static_cast<std::size_t>(window / bucket), 0);
  for (Cycles c : completions) {
    const std::size_t b = static_cast<std::size_t>(c / bucket);
    if (b < buckets.size()) {
      ++buckets[b];
    }
  }
  return buckets;
}

// Ten buckets a row; `origin` (may be empty) names t0 in the heading.
inline void PrintBuckets(const std::vector<int>& buckets, Cycles bucket,
                         const char* origin) {
  std::printf("completions per %.1fM-cycle bucket%s%s%s:\n",
              static_cast<double>(bucket) / 1e6, *origin ? " (" : "", origin,
              *origin ? ")" : "");
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    std::printf("%4d%s", buckets[b], (b + 1) % 10 == 0 ? "\n" : " ");
  }
  if (buckets.size() % 10 != 0) {
    std::printf("\n");
  }
}

// Recovery analysis for a single kill at `kill_at`. Individual buckets carry
// Poisson-scale jitter at these rates, so the comparison is mean-based: the
// pre-kill rate is the mean over all full buckets before the kill (skipping
// the warm-up bucket), and the system has recovered at the first bucket from
// which the remaining run sustains a mean >= `frac` of it with no bucket
// falling below half (a hole that deep is an outage, not noise). The final
// bucket is excluded — it is truncated at run end.
struct Recovery {
  double prekill = 0;
  double threshold = 0;
  bool recovered = false;
  Cycles window = 0;  // kill -> end of the first bucket of sustained recovery
};

inline Recovery AnalyzeRecovery(const std::vector<int>& buckets, Cycles kill_at,
                                Cycles bucket, double frac) {
  Recovery r;
  const std::size_t kill_bucket = static_cast<std::size_t>(kill_at / bucket);
  const std::size_t last = buckets.empty() ? 0 : buckets.size() - 1;
  if (kill_bucket < 2 || kill_bucket >= last) {
    return r;
  }
  for (std::size_t b = 1; b < kill_bucket; ++b) {
    r.prekill += buckets[b];
  }
  r.prekill /= static_cast<double>(kill_bucket - 1);
  r.threshold = r.prekill * frac;
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
      r.window = static_cast<Cycles>(b + 1) * bucket - kill_at;
      return r;
    }
  }
  return r;
}

// "recovery target:" (`rule` names the threshold) and "recovery window:".
inline void PrintRecovery(const Recovery& rec, const std::string& rule) {
  std::printf("%-26s %.1f/bucket pre-kill mean, threshold %.1f (%s)\n",
              "recovery target:", rec.prekill, rec.threshold, rule.c_str());
  if (rec.recovered) {
    std::printf("%-26s sustained mean >= %.1f/bucket within %llu cycles of the kill\n",
                "recovery window:", rec.threshold,
                static_cast<unsigned long long>(rec.window));
  } else {
    std::printf("%-26s NEVER RECOVERED\n", "recovery window:");
  }
}

// The closing lines of a directed-kill run replayed twice (a, b): the
// committed-work ledger, the replay identity (`detail` defaults to both runs'
// clocks and event counts) and the verdict, which passes only if the ledger
// balances, the runs are `identical` and the bench's `gates` hold. A FAIL
// also prints a's diagnostics. Returns the exit code.
inline int CloseKillRun(const RunTotals& a, const RunTotals& b, bool identical,
                        bool gates, const std::string& detail = {}) {
  const bool no_loss = a.completed + a.shed == a.launched;
  std::printf("%-26s %s\n", "committed-work ledger:",
              no_loss ? "completed + shed == launched" : "REQUESTS LOST");
  std::printf("%-26s %s (", "replay bit-identical:", identical ? "yes" : "NO");
  if (detail.empty()) {
    std::printf("run 1: %llu cycles / %llu events, run 2: %llu / %llu",
                static_cast<unsigned long long>(a.final_now),
                static_cast<unsigned long long>(a.events),
                static_cast<unsigned long long>(b.final_now),
                static_cast<unsigned long long>(b.events));
  } else {
    std::fputs(detail.c_str(), stdout);
  }
  std::printf(")\n");
  const bool ok = no_loss && identical && gates;
  std::printf("%-26s %s\n", "verdict:", ok ? "PASS" : "FAIL");
  if (!ok) {
    std::fputs(a.diagnostics.c_str(), stdout);
  }
  return ok ? 0 : 1;
}

// A chaos run's invariant table: one line per check (names padded to
// `width`), and on any failure the diagnostics and the reproduce line.
// Returns the exit code.
struct Check {
  const char* name;
  bool ok;
};

inline int PrintChecks(const std::vector<Check>& checks, int width,
                       std::uint64_t seed, const std::string& diagnostics) {
  bool ok = true;
  for (const Check& c : checks) {
    std::printf("%-*s %s\n", width, c.name, c.ok ? "ok" : "FAIL");
    ok = ok && c.ok;
  }
  if (!ok) {
    std::fputs(diagnostics.c_str(), stdout);
    std::printf("chaos FAIL: reproduce with seed %llu (plan above)\n",
                static_cast<unsigned long long>(seed));
  }
  return ok ? 0 : 1;
}

}  // namespace mk::bench

#endif  // MK_BENCH_SERVING_HARNESS_H_
