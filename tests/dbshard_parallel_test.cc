// Database replicas in parallel engine domains: every replica shares the one
// host catalog copy-on-write, so the domains' host threads read the same
// table while a writer in another domain unshares its own copy. Run under
// ThreadSanitizer (the parallel-tsan CI job) it checks the sharing rule of
// apps::Database: concurrent reads of a shared table, and a write only after
// the writer has its own copy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "sim/parallel.h"
#include "sim/task.h"

namespace mk::apps {
namespace {

using sim::Task;

constexpr int kItems = 400;
constexpr int kQueries = 60;
constexpr int kReaders = 2;  // domains 0 and 1 only read
constexpr int kDomains = 4;  // domains 2 and 3 also write

// One engine domain's machine and its two-shard replica cluster.
struct World {
  World(sim::Executor& exec, const Database& source)
      : machine(exec, hw::Amd2x2()), cluster(machine, source, {{0, 1}, {2, 3}}) {}
  hw::Machine machine;
  DbReplicaCluster cluster;
  std::vector<std::string> answers;
};

// Queries both shards in turn; a writer first inserts a row into shard 0's
// replica (so unshares its catalog while the readers scan it) and reads it
// back. Shuts the cluster down at the end.
Task<> Client(World& w, int domain, bool writer) {
  for (int i = 0; i < kQueries; ++i) {
    if (writer && i % 10 == 5) {
      const int id = kItems + domain * kQueries + i;
      EXPECT_FALSE(w.cluster.replica_db_for_test(0).Exec(
          "INSERT INTO items VALUES (" + std::to_string(id) + ", 'item-new', 0, 1, 1)"));
      w.answers.push_back(co_await w.cluster.Query(0, TpcwQuery(id)));
    }
    w.answers.push_back(co_await w.cluster.Query(i % 2, TpcwQuery((i * 37 + domain) % kItems)));
  }
  co_await w.cluster.Shutdown();
}

std::vector<std::vector<std::string>> RunDomains(int host_threads, const Database& source) {
  sim::ParallelEngine::Options opts;
  opts.domains = kDomains;
  opts.threads = host_threads;
  sim::ParallelEngine engine(opts);
  std::vector<std::unique_ptr<World>> worlds;
  for (int d = 0; d < kDomains; ++d) {
    worlds.push_back(std::make_unique<World>(engine.domain(d), source));
    World& w = *worlds.back();
    for (int s = 0; s < w.cluster.num_shards(); ++s) {
      engine.domain(d).Spawn(w.cluster.Serve(s));
    }
    engine.domain(d).Spawn(Client(w, d, /*writer=*/d >= kReaders));
  }
  engine.Run();

  std::vector<std::vector<std::string>> answers;
  for (int d = 0; d < kDomains; ++d) {
    const World& w = *worlds[static_cast<std::size_t>(d)];
    const bool writer = d >= kReaders;
    DbReplicaCluster& cluster = worlds[static_cast<std::size_t>(d)]->cluster;
    EXPECT_EQ(cluster.replica_db_for_test(0).SharesTable(source, "ITEMS"), !writer) << d;
    EXPECT_TRUE(cluster.replica_db_for_test(1).SharesTable(source, "ITEMS")) << d;
    EXPECT_EQ(cluster.replica_db_for_test(0).TableRows("ITEMS"),
              static_cast<std::size_t>(writer ? kItems + kQueries / 10 : kItems));
    for (const std::string& a : w.answers) {
      EXPECT_NE(a.find("item-"), std::string::npos) << d;
    }
    answers.push_back(w.answers);
  }
  EXPECT_EQ(source.TableRows("ITEMS"), static_cast<std::size_t>(kItems));
  return answers;
}

TEST(DbShardParallel, DomainsReadOneSharedCatalogWhileWritersUnshare) {
  Database source;
  PopulateTpcw(&source, kItems);
  const auto base = RunDomains(1, source);
  for (int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(RunDomains(threads, source), base);
  }
}

}  // namespace
}  // namespace mk::apps
