// rack-read: 4 backend machines x 8 serving shards behind the DcFabric
// switch and the L4Balancer — 7 engine domains on the parallel engine. Each
// shard has a read-only TPC-W replica on a core of its own package. The load
// is an open-loop mix of static pages and item SELECTs at a fixed rate below
// saturation, one HTTP/1.0 connection per request.
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "cluster/balancer.h"
#include "cluster/fabric.h"
#include "cluster/topology.h"
#include "common.h"
#include "net/nic.h"
#include "net/stack.h"
#include "recover/config.h"
#include "sim/executor.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "sim/task.h"

namespace perfbench {
namespace {

using Topo = mk::cluster::ClusterTopology;
using mk::net::NetStack;
using mk::net::Packet;
using mk::sim::Task;

constexpr int kBackends = 4;
constexpr int kShards = 8;              // per backend; web core 4s, db core 4s+2
constexpr int kRequests = 1600;
constexpr Cycles kGap = 384'000 / (kBackends * kShards);  // mean inter-arrival
constexpr int kDbItems = 8000;
constexpr Cycles kAttemptTimeout = 6'000'000;
constexpr int kClientCore = Topo::kClientNicQueues;

mk::recover::RecoveryConfig RackRecovery() {
  mk::recover::RecoveryConfig rc;
  rc.tcp_rto = 1'000'000;
  rc.tcp_max_retx = 4;
  return rc;
}

class RackRead : public Instance {
 public:
  explicit RackRead(const Params& p) : rc_(RackRecovery()) {
    Topo::Options topts;
    topts.backends = kBackends;
    topts.shards_per_backend = kShards;
    topts.threads = p.threads;
    topts.backend_spec = mk::hw::Amd8x4();
    topo_ = std::make_unique<Topo>(topts);

    // Seeded inputs: send schedule, static/SQL mix, item ids, catalog.
    mk::apps::PopulateTpcw(&source_, kDbItems, p.seed);
    schedule_ = OpenLoopSchedule(p.seed * 5 + 1, kRequests, 1'000'000, kGap);
    mk::sim::Rng rng(p.seed * 5 + 2);
    for (int i = 0; i < kRequests; ++i) {
      if (rng.Below(2) == 0) {
        targets_.push_back("/index.html");
        sql_.emplace_back();
      } else {
        sql_.push_back(mk::apps::TpcwQuery(static_cast<int>(rng.Below(kDbItems))));
        targets_.push_back("/query?sql=" + FormEncode(sql_.back()));
      }
    }
    records_.resize(kRequests);

    client_ = std::make_unique<NetStack>(topo_->client_machine(), kClientCore, Topo::kClientIp,
                                         Topo::ClientMac(), FreeCosts());
    client_->AddArp(Topo::kVip, Topo::BalancerMac());
    mk::net::SimNic& cnic = topo_->client_nic();
    client_->SetOutput([this, &cnic](Packet frame) -> Task<> {
      client_frames_.Add(frame);
      (void)co_await cnic.DriverTxPush(kClientCore, std::move(frame), 0);
    });

    for (int b = 0; b < kBackends; ++b) {
      mk::hw::Machine& bm = topo_->backend_machine(b);
      mk::net::SimNic& bnic = topo_->backend_nic(b);
      std::vector<mk::apps::ShardPlacement> placements;
      for (int s = 0; s < kShards; ++s) {
        placements.push_back({4 * s, 4 * s + 2});
      }
      dbs_.push_back(std::make_unique<mk::apps::DbReplicaCluster>(bm, source_, placements));
      mk::apps::DbReplicaCluster* db = dbs_.back().get();
      for (int s = 0; s < kShards; ++s) {
        const int core = 4 * s;
        auto stack = std::make_unique<NetStack>(bm, core, Topo::kVip, Topo::BackendMac(b));
        stack->AddArp(Topo::kClientIp, Topo::ClientMac());
        // One histogram per backend: each backend runs in its own domain.
        stack->SetOutput([this, &bm, &bnic, core, b, s](Packet frame) -> Task<> {
          backend_frames_[static_cast<std::size_t>(b)].Add(frame);
          co_await bm.Compute(core, kDriverFrameCost);
          (void)co_await bnic.DriverTxPush(core, std::move(frame), s);
        });
        auto query = [db, s](std::string sql) -> Task<std::string> {
          co_return co_await db->Query(s, std::move(sql));
        };
        auto server =
            std::make_unique<mk::apps::HttpServer>(bm, *stack, 80, std::move(query), 60000);
        server->SetAdmission({/*workers=*/8, /*max_pending=*/32,
                              /*queue_deadline=*/5'000'000});
        stacks_.push_back(std::move(stack));
        servers_.push_back(std::move(server));
      }
    }
  }

  void Start() override {
    mk::sim::ParallelEngine& eng = topo_->engine();
    mk::sim::Executor& cexec = eng.domain(Topo::kClientDomain);
    for (int q = 0; q < Topo::kClientNicQueues; ++q) {
      cexec.Spawn(DrainNicQueue(topo_->client_machine(), topo_->client_nic(), *client_, q, q));
    }
    for (int b = 0; b < kBackends; ++b) {
      mk::sim::Executor& bexec = eng.domain(Topo::BackendDomain(b));
      for (int s = 0; s < kShards; ++s) {
        const std::size_t i = static_cast<std::size_t>(b * kShards + s);
        bexec.Spawn(servers_[i]->Serve());
        bexec.Spawn(dbs_[static_cast<std::size_t>(b)]->Serve(s));
        bexec.Spawn(DrainNicQueue(topo_->backend_machine(b), topo_->backend_nic(b), *stacks_[i],
                                  s, 4 * s));
      }
    }
    cexec.Spawn(Generator());
    topo_->Start(schedule_.back() + 20'000'000);
  }
  void Run() override { topo_->engine().Run(); }
  Outcome Collect() override;

 private:
  struct Record {
    Cycles done = 0;
    int status = 0;  // 0 = no complete response
    std::string body;
  };

  Task<> OneRequest(int i) {
    mk::sim::Executor& exec = topo_->engine().domain(Topo::kClientDomain);
    Record& rec = records_[static_cast<std::size_t>(i)];
    co_await HttpGet(exec, *client_, Topo::kVip, targets_[static_cast<std::size_t>(i)],
                     kAttemptTimeout, &rec.status, &rec.body);
    rec.done = exec.now();
  }

  Task<> Generator() {
    mk::sim::Executor& exec = topo_->engine().domain(Topo::kClientDomain);
    for (int i = 0; i < kRequests; ++i) {
      const Cycles at = schedule_[static_cast<std::size_t>(i)];
      if (at > exec.now()) {
        co_await exec.Delay(at - exec.now());
      }
      late_max_ = std::max(late_max_, exec.now() - at);
      exec.Spawn(OneRequest(i));
    }
  }

  mk::recover::ScopedRecoveryConfig rc_;
  std::unique_ptr<Topo> topo_;
  mk::apps::Database source_;
  std::vector<Cycles> schedule_;
  std::vector<std::string> targets_;
  std::vector<std::string> sql_;  // empty for static-page requests
  std::vector<Record> records_;
  std::unique_ptr<NetStack> client_;
  std::vector<std::unique_ptr<mk::apps::DbReplicaCluster>> dbs_;
  std::vector<std::unique_ptr<NetStack>> stacks_;
  std::vector<std::unique_ptr<mk::apps::HttpServer>> servers_;
  FrameSizes client_frames_;
  FrameSizes backend_frames_[kBackends];
  Cycles late_max_ = 0;
};

Outcome RackRead::Collect() {
  Outcome out;
  auto fail = [&out](const std::string& what) { out.errors.push_back("rack-read: " + what); };
  const std::string page = mk::apps::StaticIndexPage();
  std::uint64_t scanned = 0;
  std::uint64_t ok = 0, wrong = 0, answered = 0, selects = 0;
  Cycles last_done = 0;
  Digest d;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    d.Add(r.done);
    d.Add(static_cast<std::uint64_t>(r.status));
    last_done = std::max(last_done, r.done);
    answered += r.status != 0;
    if (r.status != 200) {
      continue;
    }
    const bool is_sql = !sql_[i].empty();
    selects += is_sql;
    const std::string expected = is_sql ? ExpectedRows(source_, sql_[i], &scanned) : page;
    if (r.body == expected) {
      ++ok;
      out.latencies.push_back(r.done - schedule_[i]);
      if (is_sql) {
        out.probe.db_statements.push_back(sql_[i]);
      }
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
  mk::sim::ParallelEngine& eng = topo_->engine();
  auto& counters = out.counters;
  counters["sim.events"] = static_cast<double>(eng.events_dispatched());
  counters["sim.epochs"] = static_cast<double>(eng.epochs());
  counters["sim.cross_msgs"] = static_cast<double>(eng.cross_messages());
  for (int dom = 0; dom < topo_->num_domains(); ++dom) {
    mk::sim::Executor& e = eng.domain(dom);
    if (e.pending_events() != 0) {
      fail("domain " + std::to_string(dom) + " did not drain");
    }
    d.Add(e.now());
    d.Add(e.events_dispatched());
  }
  AddMachineCounters(topo_->switch_machine(), &counters);
  AddMachineCounters(topo_->client_machine(), &counters);
  AddMachineCounters(topo_->balancer_machine(), &counters);
  std::vector<NetStack*> stacks{client_.get(), &topo_->balancer_stack()};
  std::vector<const mk::net::SimNic*> nics{&topo_->client_nic(), &topo_->balancer_nic()};
  for (int b = 0; b < kBackends; ++b) {
    AddMachineCounters(topo_->backend_machine(b), &counters);
    stacks.push_back(&topo_->backend_mgmt_stack(b));
    nics.push_back(&topo_->backend_nic(b));
  }
  for (auto& s : stacks_) {
    stacks.push_back(s.get());
  }
  for (int port = 0; port < topo_->fabric().num_ports(); ++port) {
    nics.push_back(&topo_->fabric().port_nic(port));
  }
  AddStackCounters(stacks, &counters);
  for (const mk::net::SimNic* nic : nics) {
    for (int q = 0; q < nic->num_queues(); ++q) {
      counters["net.drops"] += static_cast<double>(nic->queue_stats(q).rx_drops());
    }
  }
  for (const auto& srv : servers_) {
    counters["apps.http_served"] += static_cast<double>(srv->requests_served());
    counters["apps.http_shed"] +=
        static_cast<double>(srv->shed_queue_full() + srv->shed_deadline());
  }
  for (const auto& db : dbs_) {
    for (int s = 0; s < kShards; ++s) {
      counters["apps.db_statements"] += static_cast<double>(db->queries_served(s));
    }
  }
  counters["apps.db_rows_scanned"] = static_cast<double>(scanned);
  counters["cluster.fabric_fwd"] = static_cast<double>(topo_->fabric().forwarded());
  counters["cluster.fabric_drops"] = static_cast<double>(
      topo_->fabric().unknown_dst_drops() + topo_->fabric().tx_full_drops());
  counters["cluster.steered"] = static_cast<double>(topo_->balancer().steered());
  counters["gen.late_kcyc_max"] = static_cast<double>(late_max_) / 1e3;
  if (counters["apps.db_statements"] != static_cast<double>(selects)) {
    fail("db replicas served " + std::to_string(counters["apps.db_statements"]) +
         " statements for " + std::to_string(selects) + " answered SELECTs");
  }
  for (const char* k : {"sim.epochs", "sim.cross_msgs", "net.frames", "cluster.fabric_fwd",
                        "cluster.steered", "apps.http_served", "apps.db_statements"}) {
    d.Add(static_cast<std::uint64_t>(counters[k]));
  }

  out.requests = records_.size();
  out.requests_ok = ok;
  out.sim_end = last_done;
  out.sim_window = last_done - schedule_.front();
  out.events = eng.events_dispatched();
  out.digest = d.value();

  ProbeInputs& pi = out.probe;
  pi.platform = mk::hw::Amd8x4();
  pi.cores = 2 * kShards;
  FrameSizes frames = client_frames_;
  for (const FrameSizes& f : backend_frames_) {
    frames.Merge(f);
  }
  pi.frame_payloads = frames.Sample(1000);
  pi.conn_live = PeakLiveConns(stacks);
  pi.db_items = kDbItems;
  return out;
}

}  // namespace

std::unique_ptr<Instance> MakeRackRead(const Params& p) {
  return std::make_unique<RackRead>(p);
}

}  // namespace perfbench
