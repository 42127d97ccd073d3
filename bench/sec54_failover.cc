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
#include "bench_util.h"
#include "fault/fault.h"
#include "hw/platform.h"
#include "recover/recover.h"
#include "serving_harness.h"
#include "sim/random.h"

namespace mk {
namespace {

using sim::Cycles;
using sim::Task;

constexpr int kDbItems = 30000;
constexpr Cycles kKillOffset = 1'000'000;  // default kill time, after t0

// Throughput bucket width for the dip/recovery timeline.
constexpr Cycles kBucket = 500'000;
constexpr const char* kOrigin = "t0 = serving start";

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
  bench::RequestTiming timing{/*attempt_timeout=*/6'000'000,
                              /*request_deadline=*/20'000'000};
};

Mix DbMix() {
  Mix m;
  m.use_db = true;
  m.interval_per_shard = 1'920'000;
  return m;
}

struct RunOutput : bench::RunTotals {  // completions are offsets from t0
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
};

RunOutput RunServing(const hw::PlatformSpec& spec, int shards, const Mix& mix,
                     const std::vector<Kill>& kills, int requests_per_shard,
                     bool print_activations) {
  recover::ScopedRecoveryConfig scoped_rcfg(bench::FailoverTcpConfig());
  bench::System s(spec);
  sim::Executor& exec = s.exec;
  hw::Machine& m = s.machine;
  const Cycles t0 = exec.now();

  // Shard i: web core 4i, DB replica core 4i+1 (same package); core 4i+2 is
  // the shard's spare, used by replica respawn.
  std::vector<apps::ShardPlacement> placements;
  std::vector<int> web_cores;
  for (int i = 0; i < shards; ++i) {
    placements.push_back({4 * i, 4 * i + 1});
    web_cores.push_back(4 * i);
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

  bench::ShardedFrontEnd fe(m, web_cores, bench::FrontEndSizing::kFailover);
  apps::Database source;
  std::unique_ptr<apps::DbReplicaCluster> cluster;
  if (mix.use_db) {
    apps::PopulateTpcw(&source, kDbItems);
    cluster = std::make_unique<apps::DbReplicaCluster>(m, source, placements);
  }
  fe.Start([cl = cluster.get()](int i) { return bench::ReplicaHooks(cl, i); });

  // The failover chain: the membership service publishes each committed view
  // change and the serving stack reacts.
  recover::MembershipService membership(s.sys);
  RunOutput out;
  membership.Subscribe(
      [&](const recover::View& view, int dead_core) -> Task<> {
        out.reta_rewritten += fe.ResteerDeadWebCore(view, dead_core);
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

  bench::LoadStats st(exec);
  sim::Rng prng(/*seed=*/42);
  exec.Spawn(bench::Generator(
      exec, fe.client, bench::kServerIp, requests_per_shard * shards,
      mix.interval_per_shard / static_cast<Cycles>(shards), mix.timing, st, [&] {
        return mix.use_db ? bench::TpcwBrowse(prng, kDbItems)
                          : bench::RequestPlan{"/index.html"};
      }));
  exec.Spawn(bench::Supervisor(fe.nic, st, &fe.stop, [&]() -> Task<> {
    if (cluster != nullptr) {
      co_await cluster->Shutdown();
    }
    s.sys.Shutdown();
  }));
  exec.Run();

  out.TakeLoad(std::move(st), t0, exec.now(), exec.events_dispatched());
  out.view_changes = membership.view_changes_committed();
  out.epoch = membership.view().epoch;
  for (int q = 0; q < fe.nic.num_queues(); ++q) {
    out.adopted += fe.nic.queue_stats(q).rx_adopted;
  }
  for (const bench::Shard& sh : fe.shards) {
    out.rsts_sent += sh.stack->tcp_rsts_sent();
    out.shed_queue_full += sh.server->shed_queue_full();
    out.shed_deadline += sh.server->shed_deadline();
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
  out.monitors_quiesced = bench::MonitorsQuiesced(s.sys);
  out.diagnostics = fe.QueueTable();
  out.specs_activated = bench::RetireInjector(inj.get(), print_activations);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

bool SameRun(const RunOutput& a, const RunOutput& b) {
  return bench::SameReplay(a, b) && a.adopted == b.adopted &&
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
                           Mix{}, {}, rps, /*print_activations=*/false);
  const Cycles window = static_cast<Cycles>(rps) * Mix{}.interval_per_shard;
  bench::PrintBuckets(bench::Bucketize(r.completions, window, kBucket), kBucket,
                      kOrigin);
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
  RunOutput a = RunServing(spec, shards, Mix{}, kills, rps,
                           /*print_activations=*/true);
  session.BeginRun("kill-web-run2");
  RunOutput b = RunServing(spec, shards, Mix{}, kills, rps,
                           /*print_activations=*/false);

  const Cycles window = static_cast<Cycles>(rps) * Mix{}.interval_per_shard;
  const std::vector<int> buckets = bench::Bucketize(a.completions, window, kBucket);
  bench::PrintBuckets(buckets, kBucket, kOrigin);
  PrintCounters(a, /*use_db=*/false);

  const bench::Recovery rec =
      bench::AnalyzeRecovery(buckets, kKillOffset, kBucket, 7.0 / 8.0);
  bench::PrintRecovery(rec, ">= 7/8 of it");
  return bench::CloseKillRun(a, b, SameRun(a, b),
                             rec.recovered && a.view_changes == 1 &&
                                 a.adopted > 0 && a.specs_activated &&
                                 a.replicas_consistent);
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
  // The dip here is bounded by db_rpc_timeout, and the replacement replica
  // must end up serving: redirects home, nothing left dead, no request lost.
  return bench::CloseKillRun(a, b, SameRun(a, b),
                             a.view_changes == 1 && a.db_respawns == 1 &&
                                 a.db_all_home && a.shed == 0 &&
                                 a.specs_activated && a.replicas_consistent);
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
  for (int k = 0; k < n_kills; ++k) {
    Kill kill;
    kill.shard = k == 0 ? static_cast<int>(rng.Below(static_cast<std::uint64_t>(shards)))
                        : bench::PickOther(rng, shards, kills.front().shard);
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
  const auto db_kills =
      std::count_if(kills.begin(), kills.end(), [](const Kill& k) { return k.db; });
  return bench::PrintChecks(
      {
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
      },
      /*width=*/32, seed, r.diagnostics);
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
    } else if (bench::MatchOptionalIntFlag(arg, "--kill", &kill, &kill_shard) ||
               bench::MatchOptionalIntFlag(arg, "--kill-db", &kill_db,
                                           &kill_db_shard)) {
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
  if (chaos) {
    return RunChaos(session, quick, chaos_seed);
  }
  if (kill) {
    return RunKillWeb(session, quick, kill_shard);
  }
  if (kill_db) {
    return RunKillDb(session, quick, kill_db_shard);
  }
  return RunNoKill(session, quick);
}
