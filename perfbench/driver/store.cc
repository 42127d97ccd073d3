// store-browse-buy: one 8x4 AMD, apps::ReplicatedStore with 4 shards
// (leader + follower + spare replica cores behind each shard's web core), a
// TPC-W-like open-loop mix with 20% buys, no faults. Browses are leader-local
// SELECTs; buys are INSERTs routed by write id to their shard, appended to
// its WAL (a replicated-fs collective) and shipped to the follower over
// PacketChannel/URPC before they are acknowledged.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/httpd.h"
#include "apps/store.h"
#include "common.h"
#include "fs/ramfs.h"
#include "fs/wal.h"
#include "kernel/cpu_driver.h"
#include "monitor/monitor.h"
#include "net/nic.h"
#include "net/stack.h"
#include "recover/config.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"
#include "skb/skb.h"

namespace perfbench {
namespace {

using mk::net::NetStack;
using mk::net::Packet;
using mk::sim::Task;

constexpr mk::net::Ipv4Addr kServerIp = mk::net::MakeIp(10, 0, 0, 1);
constexpr mk::net::Ipv4Addr kClientIp = mk::net::MakeIp(10, 0, 0, 77);
const mk::net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
const mk::net::MacAddr kClientMac{2, 0, 0, 0, 0, 77};
constexpr int kShards = 4;
constexpr int kRequests = 4000;
constexpr Cycles kGap = 400'000 / kShards;  // mean inter-arrival
constexpr int kDbItems = 8000;
constexpr Cycles kAttemptTimeout = 8'000'000;
mk::recover::RecoveryConfig StoreRecovery() {
  mk::recover::RecoveryConfig rc;
  rc.tcp_rto = 1'000'000;
  rc.tcp_max_retx = 4;
  return rc;
}

std::string WalPath(const mk::fs::ReplicatedFs& fs, int shard, int web_core) {
  return mk::fs::Wal::PickPath(fs, "/wal/shard" + std::to_string(shard), web_core);
}

// The machine with its CPU drivers, system knowledge base and monitors.
// Boot() measures the URPC latencies and starts the monitors.
struct System {
  explicit System(const mk::hw::PlatformSpec& spec)
      : machine(exec, spec), drivers(mk::kernel::CpuDriver::BootAll(machine)),
        skb(machine), sys(machine, skb, drivers) {
    skb.PopulateFromHardware();
  }
  void Boot() {
    exec.Spawn(skb.MeasureUrpcLatencies());
    exec.Run();
    sys.Boot();
  }
  mk::sim::Executor exec;
  mk::hw::Machine machine;
  std::vector<std::unique_ptr<mk::kernel::CpuDriver>> drivers;
  mk::skb::Skb skb;
  mk::monitor::MonitorSystem sys;
};

Task<> WireSink(mk::net::SimNic& nic, NetStack& client, const bool* stop) {
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

mk::net::SimNic::Config NicConfig(const mk::hw::PlatformSpec& spec,
                                  const std::vector<mk::apps::StorePlacement>& placements) {
  mk::net::SimNic::Config cfg;
  cfg.rx_descs = 4096;
  cfg.tx_descs = 4096;
  cfg.gbps = 10.0;
  cfg.queues = kShards;
  cfg.reta_slots = 16 * kShards;
  cfg.irq_latency = spec.cost.ipi_wire;
  for (const auto& p : placements) {
    cfg.irq_cores.push_back(p.web_core);
  }
  return cfg;
}

std::vector<mk::apps::StorePlacement> Placements() {
  // Shard i: web core 4i (also its WAL's fs sequencer), boot leader 4i+1,
  // follower 4i+2, spare 4i+3.
  std::vector<mk::apps::StorePlacement> p;
  for (int i = 0; i < kShards; ++i) {
    p.push_back({4 * i, {4 * i + 1, 4 * i + 2}, 4 * i + 3});
  }
  return p;
}

mk::apps::Database Catalog(std::uint64_t seed) {
  mk::apps::Database db;
  mk::apps::PopulateTpcw(&db, kDbItems, seed);
  db.Exec("CREATE TABLE orders (o_wid INT, o_item INT, o_qty INT)");
  return db;
}

class StoreBrowseBuy : public Instance {
 public:
  explicit StoreBrowseBuy(const Params& p)
      : rc_(StoreRecovery()), spec_(mk::hw::Amd8x4()), s_(spec_), placements_(Placements()),
        fs_(s_.sys), source_(Catalog(p.seed)),
        store_(s_.machine, fs_, source_, placements_), all_done_(s_.exec),
        nic_(s_.machine, NicConfig(spec_, placements_)),
        client_(s_.machine, spec_.num_cores() - 1, kClientIp, kClientMac, FreeCosts()) {
    mk::hw::Machine& m = s_.machine;
    // Seeded inputs: send schedule (offsets from the end of the boot), the
    // browse/buy mix, items, quantities, and the write ids (a seeded base,
    // then consecutive: distinct by construction, spread round-robin over
    // the shards).
    schedule_ = OpenLoopSchedule(p.seed * 7 + 1, kRequests, 100'000, kGap);
    mk::sim::Rng rng(p.seed * 7 + 2);
    std::uint64_t wid = 1 + rng.Below(1u << 20);
    for (int i = 0; i < kRequests; ++i) {
      Request r;
      const int item = static_cast<int>(rng.Below(kDbItems));
      if (rng.Below(5) == 0) {
        r.wid = wid++;
        r.sql = "INSERT INTO orders VALUES (" + std::to_string(r.wid) + ", " +
                std::to_string(item) + ", " + std::to_string(1 + rng.Below(5)) + ")";
        r.target = "/buy?wid=" + std::to_string(r.wid) + "&sql=" + FormEncode(r.sql);
      } else {
        r.sql = mk::apps::TpcwQuery(item);
        r.target = "/query?sql=" + FormEncode(r.sql);
      }
      requests_.push_back(std::move(r));
    }

    client_.AddArp(kServerIp, kServerMac);
    client_.SetOutput([this](Packet frame) -> Task<> {
      frames_.Add(frame);
      co_await nic_.InjectFromWire(std::move(frame));
    });
    for (int i = 0; i < kShards; ++i) {
      const int core = placements_[static_cast<std::size_t>(i)].web_core;
      auto stack = std::make_unique<NetStack>(m, core, kServerIp, kServerMac);
      stack->AddArp(kClientIp, kClientMac);
      stack->SetOutput([&m, this, core, i](Packet frame) -> Task<> {
        frames_.Add(frame);
        co_await m.Compute(core, kDriverFrameCost);
        co_await nic_.DriverTxPush(core, std::move(frame), i);
      });
      // Browse: leader-local read on this web core's shard. Buy: routed by
      // write id to its partition's group.
      mk::apps::ReplicatedStore* st = &store_;
      auto query = [st, i](std::string sql) -> Task<std::string> {
        co_return co_await st->Query(i, std::move(sql));
      };
      auto write = [st](std::uint64_t w, std::string sql) -> Task<std::string> {
        co_return co_await st->Execute(static_cast<int>(w % kShards), w, std::move(sql));
      };
      auto server = std::make_unique<mk::apps::HttpServer>(m, *stack, 80, std::move(query));
      server->SetDbExec(std::move(write));
      server->SetAdmission({/*workers=*/8, /*max_pending=*/32,
                            /*queue_deadline=*/5'000'000});
      stacks_.push_back(std::move(stack));
      servers_.push_back(std::move(server));
    }
  }

  void Start() override {
    mk::sim::Executor& exec = s_.exec;
    s_.Boot();
    // Create the WALs and spawn the replica groups before serving starts.
    exec.Spawn(store_.Start());
    exec.Run();
    t0_ = exec.now();
    for (Cycles& at : schedule_) {
      at += t0_;
    }
    for (int i = 0; i < kShards; ++i) {
      const auto shard = static_cast<std::size_t>(i);
      exec.Spawn(servers_[shard]->Serve());
      exec.Spawn(DrainNicQueue(s_.machine, nic_, *stacks_[shard], i,
                               placements_[shard].web_core, &stop_));
    }
    exec.Spawn(WireSink(nic_, client_, &stop_));
    exec.Spawn(Generator());
    exec.Spawn(Supervisor());
    // The boot and the store's start-up dispatched events and touched
    // memory; the run's books start here.
    setup_events_ = exec.events_dispatched();
    AddMachineCounters(s_.machine, &setup_hw_);
  }
  void Run() override { s_.exec.Run(); }
  Outcome Collect() override;

 private:
  struct Request {
    std::uint64_t wid = 0;  // 0 = browse
    std::string sql;
    std::string target;
    Cycles done = 0;
    int status = 0;  // 0 = no complete response
    std::string body;
  };

  Task<> OneRequest(int i) {
    Request& r = requests_[static_cast<std::size_t>(i)];
    co_await HttpGet(s_.exec, client_, kServerIp, r.target, kAttemptTimeout, &r.status, &r.body);
    r.done = s_.exec.now();
    if (--outstanding_ == 0 && launched_all_) {
      all_done_.Signal();
    }
  }

  Task<> Generator() {
    mk::sim::Executor& exec = s_.exec;
    for (int i = 0; i < kRequests; ++i) {
      const Cycles at = schedule_[static_cast<std::size_t>(i)];
      if (at > exec.now()) {
        co_await exec.Delay(at - exec.now());
      }
      late_max_ = std::max(late_max_, exec.now() - at);
      ++outstanding_;
      exec.Spawn(OneRequest(i));
    }
    launched_all_ = true;
  }

  // Drain: once every request completed, stop the drivers and shut the
  // replica groups and monitors down.
  Task<> Supervisor() {
    while (!launched_all_ || outstanding_ > 0) {
      co_await all_done_.Wait();
    }
    stop_ = true;
    nic_.wire_out_ready().Signal();
    co_await store_.Shutdown();
    s_.sys.Shutdown();
  }

  mk::recover::ScopedRecoveryConfig rc_;
  mk::hw::PlatformSpec spec_;
  System s_;
  std::vector<mk::apps::StorePlacement> placements_;
  mk::fs::ReplicatedFs fs_;
  mk::apps::Database source_;
  mk::apps::ReplicatedStore store_;
  mk::sim::Event all_done_;
  mk::net::SimNic nic_;
  NetStack client_;
  std::vector<std::unique_ptr<NetStack>> stacks_;
  std::vector<std::unique_ptr<mk::apps::HttpServer>> servers_;
  std::vector<Cycles> schedule_;
  std::vector<Request> requests_;
  FrameSizes frames_;
  std::uint64_t setup_events_ = 0;
  std::map<std::string, double> setup_hw_;
  Cycles t0_ = 0;
  Cycles late_max_ = 0;
  int outstanding_ = 0;
  bool launched_all_ = false;
  bool stop_ = false;
};

Outcome StoreBrowseBuy::Collect() {
  Outcome out;
  auto fail = [&out](const std::string& what) {
    out.errors.push_back("store-browse-buy: " + what);
  };
  mk::sim::Executor& exec = s_.exec;
  const Cycles run_end = exec.now();
  const std::uint64_t run_events = exec.events_dispatched() - setup_events_;
  auto& counters = out.counters;
  AddMachineCounters(s_.machine, &counters);  // before the checks touch memory
  for (const auto& [name, v] : setup_hw_) {
    counters[name] -= v;
  }

  // Per request: a browse must return the catalog rows, a buy "ok <lsn>".
  std::uint64_t ok = 0, wrong = 0, answered = 0, browses = 0, buys = 0, scanned = 0;
  std::vector<std::set<std::uint64_t>> acked(kShards);
  Cycles last_done = 0;
  Digest d;
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    d.Add(r.done);
    d.Add(static_cast<std::uint64_t>(r.status));
    last_done = std::max(last_done, r.done);
    answered += r.status != 0;
    if (r.status != 200) {
      continue;
    }
    bool right = false;
    if (r.wid == 0) {
      ++browses;
      right = r.body == ExpectedRows(source_, r.sql, &scanned);
    } else {
      ++buys;
      right = r.body.rfind("ok ", 0) == 0;
      if (right) {
        acked[r.wid % kShards].insert(r.wid);
      }
    }
    if (right) {
      ++ok;
      out.latencies.push_back(r.done - schedule_[i]);
      out.probe.db_statements.push_back(r.sql);
    } else {
      ++wrong;
    }
  }
  if (wrong != 0) {
    fail(std::to_string(wrong) + " responses with a wrong body");
  }
  // Ledger: every response a client saw is one the servers answered, shed or
  // refused, and the other way round.
  std::uint64_t server_answered = 0;
  for (const auto& srv : servers_) {
    server_answered += srv->requests_served() + srv->shed_queue_full() +
                       srv->shed_deadline() + srv->bad_requests();
  }
  if (answered != server_answered) {
    fail("clients saw " + std::to_string(answered) + " responses; the servers sent " +
         std::to_string(server_answered));
  }

  // Write ledger: on every live caught-up replica, orders rows == distinct
  // wids == acked buys; then the WAL read back from each shard's sequencer
  // core holds exactly the acked wids.
  std::vector<std::vector<std::uint8_t>> wal_bytes(kShards);
  for (int i = 0; i < kShards; ++i) {
    exec.Spawn([](mk::fs::ReplicatedFs& fs, std::string path, int core,
                  std::vector<std::uint8_t>* bytes) -> Task<> {
      auto data = co_await fs.Read(core, path);
      if (data) {
        *bytes = std::move(*data);
      }
    }(fs_, WalPath(fs_, i, placements_[static_cast<std::size_t>(i)].web_core),
                              placements_[static_cast<std::size_t>(i)].web_core,
                              &wal_bytes[static_cast<std::size_t>(i)]));
  }
  exec.Run();
  for (int i = 0; i < kShards; ++i) {
    const std::size_t want = acked[static_cast<std::size_t>(i)].size();
    for (int slot = 0; slot < store_.num_slots(i); ++slot) {
      if (!store_.replica_alive(i, slot) || !store_.replica_caught_up(i, slot)) {
        continue;
      }
      const std::size_t rows = store_.replica_table_rows(i, slot, "ORDERS");
      const std::size_t wids = store_.replica_distinct_wids(i, slot);
      if (rows != want || wids != want) {
        fail("shard " + std::to_string(i) + " replica " + std::to_string(slot) + ": " +
             std::to_string(rows) + " rows, " + std::to_string(wids) + " wids, " +
             std::to_string(want) + " acked buys");
      }
    }
    std::vector<mk::fs::WalRecord> records;
    if (!mk::fs::DecodeWalLog(wal_bytes[static_cast<std::size_t>(i)], &records)) {
      fail("shard " + std::to_string(i) + ": WAL does not decode");
    }
    std::set<std::uint64_t> logged;
    for (const auto& rec : records) {
      logged.insert(std::strtoull(rec.payload.c_str(), nullptr, 10));
      out.probe.wal_payloads.push_back(rec.payload.size());
    }
    if (logged != acked[static_cast<std::size_t>(i)] ||
        records.size() != store_.writes_committed(i)) {
      fail("shard " + std::to_string(i) + ": WAL holds " + std::to_string(records.size()) +
           " records for " + std::to_string(want) + " acked buys");
    }
    counters["fs.wal_records"] += static_cast<double>(records.size());
    counters["fs.wal_bytes"] += static_cast<double>(wal_bytes[static_cast<std::size_t>(i)].size());
  }
  if (!fs_.ReplicasConsistent() || !s_.sys.LiveReplicasConsistent()) {
    fail("replicated fs or monitor replicas diverged");
  }

  std::vector<NetStack*> stacks{&client_};
  for (auto& st : stacks_) {
    stacks.push_back(st.get());
  }
  AddStackCounters(stacks, &counters);
  for (int q = 0; q < nic_.num_queues(); ++q) {
    counters["net.drops"] += static_cast<double>(nic_.queue_stats(q).rx_drops());
  }
  for (const auto& srv : servers_) {
    counters["apps.http_served"] += static_cast<double>(srv->requests_served());
    counters["apps.http_shed"] +=
        static_cast<double>(srv->shed_queue_full() + srv->shed_deadline());
  }
  counters["apps.db_statements"] = static_cast<double>(browses + buys);
  counters["apps.db_rows_scanned"] = static_cast<double>(scanned);
  counters["gen.late_kcyc_max"] = static_cast<double>(late_max_) / 1e3;
  counters["sim.events"] = static_cast<double>(run_events);
  for (const char* k : {"fs.wal_records", "fs.wal_bytes", "net.frames", "apps.http_served",
                        "hw.accesses", "hw.cache_misses", "sim.events"}) {
    d.Add(static_cast<std::uint64_t>(counters[k]));
  }
  d.Add(run_end);

  out.requests = requests_.size();
  out.requests_ok = ok;
  out.sim_end = last_done - t0_;
  out.sim_window = last_done - schedule_.front();
  out.events = run_events;
  out.digest = d.value();

  ProbeInputs& pi = out.probe;
  pi.platform = spec_;
  pi.cores = 4 * kShards;
  pi.frame_payloads = frames_.Sample(1000);
  pi.conn_live = PeakLiveConns(stacks);
  pi.db_items = kDbItems;
  return out;
}

}  // namespace

std::unique_ptr<Instance> MakeStoreBrowseBuy(const Params& p) {
  return std::make_unique<StoreBrowseBuy>(p);
}

}  // namespace perfbench
