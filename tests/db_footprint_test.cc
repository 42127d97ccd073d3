// Host-memory footprint of database replicas: copies of a Database share
// each table until one side writes it, so a replica cluster keeps one host
// catalog however many shards it has. Its own binary with live_heap.cc, which
// counts every operator new/delete in the process.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "live_heap.h"
#include "sim/executor.h"

namespace mk::apps {
namespace {

constexpr int kCatalogItems = 8'000;
constexpr int kShards = 8;
// The shards' channels and a map of table pointers per replica; a deep copy
// of the catalog per replica added ~16 MiB here.
constexpr std::int64_t kMaxClusterBytes = 64 * 1024;

// One shard per package of the 8x4 AMD: web core 4k, replica core 4k+1.
std::vector<ShardPlacement> EightShards() {
  std::vector<ShardPlacement> placements;
  for (int k = 0; k < kShards; ++k) {
    placements.push_back({4 * k, 4 * k + 1});
  }
  return placements;
}

TEST(DbFootprint, ReplicaClusterKeepsOneHostCatalog) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd8x4());
  const std::int64_t empty = LiveHeapBytes();
  Database source;
  PopulateTpcw(&source, kCatalogItems);
  const std::int64_t catalog = LiveHeapBytes() - empty;

  const std::int64_t before = LiveHeapBytes();
  DbReplicaCluster cluster(machine, source, EightShards());
  const std::int64_t cluster_bytes = LiveHeapBytes() - before;

  std::printf("source catalog: %lld live heap bytes; %d-shard cluster adds %lld\n",
              static_cast<long long>(catalog), kShards, static_cast<long long>(cluster_bytes));
  ASSERT_EQ(cluster.num_shards(), kShards);
  EXPECT_GT(catalog, 1 << 20);  // the measurement sees a real catalog
  EXPECT_LE(cluster_bytes, kMaxClusterBytes);
}

TEST(DbFootprint, FailedOrZeroRowWritesOnAReplicaCopyNoTable) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd8x4());
  Database source;
  PopulateTpcw(&source, kCatalogItems);
  DbReplicaCluster cluster(machine, source, EightShards());
  Database& replica = cluster.replica_db_for_test(3);
  for (const char* sql : {"UPDATE items SET i_stock = 0 WHERE i_id = -1",
                          "UPDATE items SET nope = 0 WHERE i_id = 1",
                          "UPDATE items SET i_stock = 'x' WHERE i_id = 1",
                          "DELETE FROM items WHERE i_id = -1",
                          "DELETE FROM items WHERE nope = 1",
                          "DELETE FROM items WHERE i_id = 1 junk"}) {
    const std::int64_t before = LiveHeapBytes();
    replica.Exec(sql);
    EXPECT_EQ(LiveHeapBytes() - before, 0) << sql;
    EXPECT_EQ(replica.rows_changed(), 0u) << sql;
  }
  EXPECT_TRUE(replica.SharesTable(source, "ITEMS"));

  // A statement that changes a row copies the table once, on that replica.
  const std::int64_t before = LiveHeapBytes();
  ASSERT_FALSE(replica.Exec("UPDATE items SET i_stock = 0 WHERE i_id = 1"));
  EXPECT_GT(LiveHeapBytes() - before, 1 << 20);
  EXPECT_FALSE(replica.SharesTable(source, "ITEMS"));
  EXPECT_TRUE(cluster.replica_db_for_test(2).SharesTable(source, "ITEMS"));
}

}  // namespace
}  // namespace mk::apps
