// Sharded read-only database serving for the §5.4 scale-out workload.
//
// sec54_webserver shows that the web+SQL configuration bottlenecks at the
// single database core; scaling the serving stack past a couple of cores
// therefore needs the data tier scaled too. For a read-only browsing mix
// (TPC-W item detail SELECTs) the multikernel answer is replication, the same
// move the paper applies to OS state (§4.4: "replication is the default"):
// each serving shard gets a full replica of the database on a core of its own
// package, queried over the shard's private URPC channel — no shared state,
// no cross-shard coordination, reads scale with shards.
#ifndef MK_APPS_DBSHARD_H_
#define MK_APPS_DBSHARD_H_

#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "hw/machine.h"
#include "net/packet_channel.h"
#include "sim/event.h"
#include "sim/task.h"
#include "urpc/channel.h"

namespace mk::apps {

using sim::Cycles;
using sim::Task;

// One shard's core pair: the web/serving core and the core its DB replica
// runs on (placed in the same package so the URPC hop stays intra-package).
struct ShardPlacement {
  int web_core = 0;
  int db_core = 0;
};

// A set of identical read-only Database replicas, one per shard, each served
// by its own core over a private URPC request channel + PacketChannel reply
// channel (the same transport pair sec54_webserver's single DbService uses).
class DbReplicaCluster {
 public:
  // Copies `source` once per shard; populate it before constructing.
  DbReplicaCluster(hw::Machine& machine, const Database& source,
                   std::vector<ShardPlacement> placements);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardPlacement& placement(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->placement;
  }

  // The replica server process for one shard: receives SQL over URPC,
  // executes it against the local replica, charges the parse + per-row scan
  // cost on the shard's DB core, replies with rendered rows. Spawn one per
  // shard; returns after Shutdown().
  Task<> Serve(int shard);

  // Web-side query: runs `sql` on the shard's replica, returns rendered
  // rows. One outstanding RPC per shard (the reply channel carries no
  // request ids), exactly like the single-DB bench. Under fault injection the
  // reply wait is bounded (RecoveryConfig::db_rpc_timeout); a timeout marks
  // the replica dead and the query retries against the redirect target, up to
  // db_max_attempts distinct replicas.
  Task<std::string> Query(int shard, std::string sql);

  // Poisons every shard's request channel; their Serve() loops drain and
  // return.
  Task<> Shutdown();

  std::uint64_t queries_served(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->served;
  }

  // --- Failover (driven by mk::recover view changes) ---

  // Membership-driven: marks every replica whose DB core is `dead_core` dead
  // and re-points shards that were using a dead replica at a live one
  // (deterministically: the nearest following live replica). Returns the
  // shards whose redirect changed. Queries in flight against the dead replica
  // recover via their reply timeout; new queries go straight to the target.
  std::vector<int> HandleCoreFailure(int dead_core);

  // Spawns a replacement replica for `shard` on `spare_db_core`: state
  // transfer of the database from the live replica `shard` currently
  // redirects to (charged like monitor hotplug catch-up: posted writes at the
  // source, read back at the spare), then the shard's redirect points home
  // again. The caller spawns Serve(shard) afterwards; the dead replica's
  // parked server task is retired with its Shard object.
  Task<bool> Respawn(int shard, int spare_db_core);

  int redirect(int shard) const { return redirect_[static_cast<std::size_t>(shard)]; }
  bool replica_dead(int shard) const { return dead_[static_cast<std::size_t>(shard)]; }
  // Bumped by Respawn; a query's timeout verdict only counts against the
  // incarnation it actually talked to (a reply wait that started against the
  // dead replica must not declare its replacement dead).
  std::uint64_t incarnation(int shard) const {
    return incarnation_[static_cast<std::size_t>(shard)];
  }
  std::uint64_t respawns() const { return respawns_; }
  std::uint64_t failover_timeouts() const { return failover_timeouts_; }
  bool replica_caught_up(int shard) const {
    return shards_[static_cast<std::size_t>(shard)]->caught_up;
  }
  // Test access: lets regression tests diverge a live replica from the
  // construction-time source before forcing a respawn.
  Database& replica_db_for_test(int shard) {
    return shards_[static_cast<std::size_t>(shard)]->db;
  }
  const Database& source_db_for_test() const { return source_; }

 private:
  struct Shard {
    Shard(hw::Machine& m, ShardPlacement p, const Database& source)
        : placement(p), db(source), queries(m, p.web_core, p.db_core),
          replies(m, p.db_core, p.web_core, net::PacketChannel::Options{}),
          rpc_slot(m.exec(), 1), catch_up(m.exec()) {}
    ShardPlacement placement;
    Database db;  // full read-only replica
    urpc::Channel queries;
    net::PacketChannel replies;
    sim::Semaphore rpc_slot;
    // Respawn gate: a replacement replica is installed before its state
    // transfer completes, and must not serve until it has caught up — an
    // ungated query would read the stale construction-time snapshot and
    // return empty/old rows with no error. catch_up fires when the transfer
    // lands.
    bool caught_up = true;
    sim::Event catch_up;
    std::uint64_t served = 0;
  };

  // First live replica at or after `from` (wrapping); -1 if none.
  int FirstLiveReplica(int from) const;

  hw::Machine& machine_;
  Database source_;  // respawn source (the primary's copy)
  std::vector<std::unique_ptr<Shard>> shards_;
  // Where shard s's queries actually go (identity until failover).
  std::vector<int> redirect_;
  std::vector<bool> dead_;
  std::vector<std::uint64_t> incarnation_;
  // Dead replicas' Shard objects stay alive here: their parked Serve() tasks
  // and in-flight queries still reference them.
  std::vector<std::unique_ptr<Shard>> retired_;
  std::uint64_t respawns_ = 0;
  std::uint64_t failover_timeouts_ = 0;
};

}  // namespace mk::apps

#endif  // MK_APPS_DBSHARD_H_
