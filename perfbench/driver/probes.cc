#include "probes.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/httpd.h"
#include "fs/wal.h"
#include "hw/machine.h"
#include "net/conn_table.h"
#include "net/timer_wheel.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"

namespace perfbench {
namespace {

using mk::sim::Task;

// What one probe repetition did: layer operations, and the executor events
// those operations scheduled (whose dispatch the sim probe already prices).
struct RepCount {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
};

// Repeats `rep` until `budget_s` is spent, at least three times; returns the
// median host ns per op, less `event_ns` for each event an op dispatched —
// the layer's self time, so that probe shares do not count dispatch twice.
double MedianNsPerOp(const std::string& name, double budget_s, double event_ns,
                     const std::function<RepCount()>& rep) {
  ScopedSpan span("probe " + name);
  std::vector<double> ns;
  const double start = NowSeconds();
  while (ns.size() < 3 || NowSeconds() - start < budget_s) {
    const double t0 = NowSeconds();
    const RepCount c = rep();
    const double self_ns =
        (NowSeconds() - t0) * 1e9 - event_ns * static_cast<double>(c.events);
    ns.push_back(self_ns / static_cast<double>(std::max<std::uint64_t>(c.ops, 1)));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

double Counter(const Outcome& o, const std::string& name) {
  auto it = o.counters.find(name);
  return it == o.counters.end() ? 0 : it->second;
}

// sim: executor dispatch of coroutine resumptions, with delays that land in
// both the near bucket ring and the far heap.
RepCount SimRep(std::uint64_t seed) {
  mk::sim::Executor exec;
  constexpr int kTasks = 64;
  constexpr int kSteps = 2000;
  for (int t = 0; t < kTasks; ++t) {
    exec.Spawn([](mk::sim::Executor& e, std::uint64_t s) -> Task<> {
      mk::sim::Rng rng(s);
      for (int i = 0; i < kSteps; ++i) {
        co_await e.Delay(1 + rng.Below(i % 8 == 0 ? 200'000 : 900));
      }
    }(exec, seed + static_cast<std::uint64_t>(t)));
  }
  exec.Run();
  return {exec.events_dispatched(), 0};
}

// hw: CoherentMemory reads and writes. A share of accesses equal to the
// workload's miss ratio goes to lines all probe cores share; the rest stay
// on each core's private lines.
RepCount HwRep(const ProbeInputs& in, double shared_share, double write_share,
               std::uint64_t seed) {
  mk::sim::Executor exec;
  mk::hw::Machine m(exec, in.platform);
  const int cores = std::min(in.cores, m.num_cores());
  constexpr int kOps = 4000;
  const mk::sim::Addr shared = m.mem().AllocLines(0, 64);
  for (int c = 0; c < cores; ++c) {
    const mk::sim::Addr priv = m.mem().AllocLines(m.topo().PackageOf(c), 64);
    exec.Spawn([](mk::hw::Machine& mm, int core, mk::sim::Addr sh, mk::sim::Addr pv,
                  double shared_p, double write_p, std::uint64_t s) -> Task<> {
      mk::sim::Rng rng(s);
      for (int i = 0; i < kOps; ++i) {
        const bool is_shared = rng.NextDouble() < shared_p;
        const mk::sim::Addr a =
            (is_shared ? sh : pv) + rng.Below(64) * mk::sim::kCacheLineBytes;
        if (rng.NextDouble() < write_p) {
          co_await mm.mem().Write(core, a);
        } else {
          co_await mm.mem().Read(core, a);
        }
      }
    }(m, c, shared, priv, shared_share, write_share, seed + static_cast<std::uint64_t>(c)));
  }
  exec.Run();
  return {static_cast<std::uint64_t>(cores) * kOps, exec.events_dispatched()};
}

// net: BuildTcpFrame + ParseFrame (each runs InternetChecksum over the
// segment) at the payload sizes the workload's stacks sent.
RepCount FrameRep(const std::vector<std::size_t>& sizes, std::uint64_t seed) {
  mk::sim::Rng rng(seed);
  std::vector<std::uint8_t> payload(mk::net::kMtu);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  mk::net::EthHeader eth;
  eth.src = {2, 0, 0, 0, 0, 1};
  eth.dst = {2, 0, 0, 0, 0, 2};
  mk::net::IpHeader ip;
  ip.protocol = mk::net::kIpProtoTcp;
  ip.src = mk::net::MakeIp(10, 0, 1, 1);
  ip.dst = mk::net::MakeIp(10, 0, 0, 1);
  mk::net::TcpHeader tcp;
  tcp.src_port = 49152;
  tcp.dst_port = 80;
  tcp.flags.ack = true;
  std::uint64_t ops = 0;
  std::uint64_t bad = 0;
  const std::size_t rounds = std::max<std::size_t>(1, 20000 / sizes.size());
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t len : sizes) {
      tcp.seq += static_cast<std::uint32_t>(len);
      ++ip.ident;
      mk::net::Packet frame = mk::net::BuildTcpFrame(eth, ip, tcp, payload.data(), len);
      auto parsed = mk::net::ParseFrame(frame);
      bad += !parsed || parsed->payload_len != len;
      ++ops;
    }
  }
  if (bad != 0) {
    std::printf("frame probe: %llu frames failed to round-trip\n",
                static_cast<unsigned long long>(bad));
  }
  return {ops, 0};
}

// net connection state: ConnTable find/insert/erase at the workload's peak
// live population (FIFO churn keeps the population constant).
struct ProbeConn {
  std::uint64_t key = 0;
};

class ConnProbe {
 public:
  ConnProbe(std::size_t live, std::uint64_t seed) : rng_(seed) {
    for (std::size_t i = 0; i < live; ++i) {
      Insert();
    }
  }
  RepCount Rep() {
    constexpr int kLoops = 20000;
    std::uint64_t found = 0;
    for (int i = 0; i < kLoops; ++i) {
      Insert();
      found += table_.Find(keys_[rng_.Below(keys_.size())]) != nullptr;
      table_.Erase(keys_.front());
      keys_.pop_front();
    }
    if (found != kLoops) {
      std::printf("conn probe: %llu of %d lookups missed\n",
                  static_cast<unsigned long long>(kLoops - found), kLoops);
    }
    return {3 * kLoops, 0};
  }

 private:
  void Insert() {
    const std::uint64_t key = mk::net::ConnKey(
        mk::net::MakeIp(10, 1, 0, 0) + static_cast<std::uint32_t>(rng_.Below(1u << 16)),
        static_cast<std::uint16_t>(next_port_++), 80);
    if (table_.Find(key) != nullptr) {
      return;
    }
    auto c = std::make_unique<ProbeConn>();
    c->key = key;
    table_.Insert(key, std::move(c));
    keys_.push_back(key);
  }
  mk::sim::Rng rng_;
  mk::net::ConnTable<ProbeConn> table_;
  std::deque<std::uint64_t> keys_;
  std::uint32_t next_port_ = 0;
};

// net timers: TimerWheel schedule at the deadlines the workload's stacks arm,
// then cancel (at the workload's cancel share) or fire.
RepCount WheelRep(const std::vector<Cycles>& delays, double cancel_share,
                  std::uint64_t seed) {
  mk::sim::Executor exec;
  mk::net::TimerWheel wheel(exec);
  mk::sim::Rng rng(seed);
  constexpr int kTimers = 20000;
  std::uint64_t fired = 0;
  std::vector<mk::net::TimerWheel::TimerId> live;
  for (int i = 0; i < kTimers; ++i) {
    const Cycles d = delays[static_cast<std::size_t>(i) % delays.size()] + rng.Below(4096);
    live.push_back(wheel.Schedule(d, [&fired] { ++fired; }));
    if (rng.NextDouble() < cancel_share) {
      const std::size_t pick = rng.Below(live.size());
      wheel.Cancel(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  exec.Run();
  return {kTimers, exec.events_dispatched()};
}

// fs: EncodeWalRecord + DecodeWalLog over records of the sizes the workload
// logged.
RepCount WalRep(const std::vector<std::size_t>& sizes) {
  constexpr int kRecords = 4000;
  std::vector<std::uint8_t> log;
  mk::fs::WalRecord rec;
  for (int i = 0; i < kRecords; ++i) {
    rec.lsn = static_cast<std::uint64_t>(i) + 1;
    rec.term = 1;
    rec.payload.assign(sizes[static_cast<std::size_t>(i) % sizes.size()], 'x');
    mk::fs::EncodeWalRecord(rec, &log);
  }
  std::vector<mk::fs::WalRecord> out;
  if (!mk::fs::DecodeWalLog(log, &out) || out.size() != kRecords) {
    std::printf("wal probe: decode failed\n");
  }
  return {kRecords, 0};
}

// apps: HttpRequestFramer append + pop of the requests the workload sent,
// split at an arbitrary byte so the terminator scan resumes.
RepCount FramerRep(const std::vector<std::string>& requests) {
  constexpr int kPops = 20000;
  mk::apps::HttpRequestFramer framer;
  std::string out;
  std::uint64_t pops = 0;
  for (int i = 0; i < kPops; ++i) {
    const std::string& r = requests[static_cast<std::size_t>(i) % requests.size()];
    const std::size_t cut = r.size() / 3;
    framer.Append(r.substr(0, cut));
    framer.Append(r.substr(cut));
    pops += framer.PopRequest(&out);
  }
  return {pops, 0};
}

// apps: Database::Query / Exec of the statements the workload sent, in
// order, on a copy of its catalog.
class DbProbe {
 public:
  DbProbe(int items, const std::vector<std::string>& statements, std::uint64_t seed)
      : statements_(statements) {
    mk::apps::PopulateTpcw(&db_, items, seed);
    db_.Exec("CREATE TABLE orders (o_wid INT, o_item INT, o_qty INT)");
  }
  RepCount Rep() {
    constexpr int kStatements = 200;
    std::uint64_t failed = 0;
    for (int i = 0; i < kStatements; ++i) {
      const std::string& sql = statements_[next_++ % statements_.size()];
      if (sql.rfind("SELECT", 0) == 0) {
        failed += !std::holds_alternative<mk::apps::Database::ResultSet>(db_.Query(sql));
      } else {
        failed += db_.Exec(sql).has_value();
      }
    }
    if (failed != 0) {
      std::printf("db probe: %llu statements failed\n", static_cast<unsigned long long>(failed));
    }
    return {kStatements, 0};
  }

 private:
  const std::vector<std::string>& statements_;
  std::size_t next_ = 0;
  mk::apps::Database db_;
};

}  // namespace

std::vector<ProbeResult> RunProbes(const Outcome& o, double budget_s, std::uint64_t seed) {
  const ProbeInputs& in = o.probe;
  const double each = budget_s / 8;
  std::vector<ProbeResult> out;
  // Runs a probe only if its layer did work in the workload and the run
  // recorded its inputs; otherwise it reports 0 ns and a 0 share.
  auto probe = [&](const char* ns, const char* share, const char* ops_counter, bool inputs,
                   const std::function<double()>& run) {
    const double ops = Counter(o, ops_counter);
    out.push_back({ns, share, ops_counter, ops > 0 && inputs ? run() : 0, ops});
  };

  double event_ns = 0;
  probe("sim.dispatch_ns", "sim.host_share", "sim.events", true, [&] {
    return event_ns = MedianNsPerOp("sim", each, 0, [&] { return SimRep(seed); });
  });

  probe("hw.access_ns", "hw.host_share", "hw.accesses", true, [&] {
    const double accesses = Counter(o, "hw.accesses");
    const double miss_share = Counter(o, "hw.cache_misses") / accesses;
    const double write_share = Counter(o, "hw.stores") / accesses;
    return MedianNsPerOp("hw", each, event_ns,
                         [&] { return HwRep(in, miss_share, write_share, seed); });
  });

  probe("net.frame_ns", "net.host_share", "net.frames", !in.frame_payloads.empty(), [&] {
    return MedianNsPerOp("net.frame", each, event_ns,
                         [&] { return FrameRep(in.frame_payloads, seed); });
  });

  probe("net.conn_ns", "net.conn.host_share", "net.table.ops", in.conn_live > 0, [&] {
    ConnProbe conn(in.conn_live, seed);
    return MedianNsPerOp("net.conn", each, event_ns, [&] { return conn.Rep(); });
  });

  probe("net.wheel_ns", "net.wheel.host_share", "net.wheel.scheduled",
        !in.timer_delays.empty(), [&] {
    const double cancel_share =
        Counter(o, "net.wheel.cancelled") / Counter(o, "net.wheel.scheduled");
    return MedianNsPerOp("net.wheel", each, event_ns,
                         [&] { return WheelRep(in.timer_delays, cancel_share, seed); });
  });

  probe("fs.wal_ns", "fs.host_share", "fs.wal_records", !in.wal_payloads.empty(), [&] {
    return MedianNsPerOp("fs.wal", each, event_ns, [&] { return WalRep(in.wal_payloads); });
  });

  probe("apps.framer_ns", "apps.framer.host_share", "apps.framer_pops",
        !in.http_requests.empty(), [&] {
    return MedianNsPerOp("apps.framer", each, event_ns,
                         [&] { return FramerRep(in.http_requests); });
  });

  probe("apps.db_exec_ns", "apps.db.host_share", "apps.db_statements",
        !in.db_statements.empty(), [&] {
    DbProbe db(in.db_items, in.db_statements, seed);
    return MedianNsPerOp("apps.db", each, event_ns, [&] { return db.Rep(); });
  });
  return out;
}

}  // namespace perfbench
