// Tests for the mini relational database and the HTTP server: parsing,
// malformed-input rejection, end-to-end serving over TCP, and the sharded
// read-only replica cluster.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/db.h"
#include "apps/dbshard.h"
#include "apps/httpd.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/random.h"

namespace mk::apps {
namespace {

using sim::Task;

Database MakeDb() {
  Database db;
  EXPECT_FALSE(db.Exec("CREATE TABLE items (i_id INT, i_title TEXT, i_cost INT)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (1, 'alpha', 500)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (2, 'beta', 300)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (3, 'gamma', 700)"));
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (4, 'delta', 300)"));
  return db;
}

Database::ResultSet MustQuery(const Database& db, const std::string& sql) {
  auto result = db.Query(sql);
  EXPECT_TRUE(std::holds_alternative<Database::ResultSet>(result))
      << sql << ": " << std::get<DbError>(result).message;
  return std::get<Database::ResultSet>(result);
}

TEST(Db, SelectStarReturnsAllRowsAndColumns) {
  Database db = MakeDb();
  auto rs = MustQuery(db, "SELECT * FROM items");
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"I_ID", "I_TITLE", "I_COST"}));
  EXPECT_EQ(rs.rows.size(), 4u);
  EXPECT_EQ(rs.rows_scanned, 4u);
}

TEST(Db, WhereFiltersEveryOperator) {
  Database db = MakeDb();
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost = 300").rows.size(), 2u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost != 300").rows.size(), 2u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost < 500").rows.size(), 2u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost <= 500").rows.size(), 3u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost > 500").rows.size(), 1u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost >= 500").rows.size(), 2u);
}

TEST(Db, WhereOnTextColumn) {
  Database db = MakeDb();
  auto rs = MustQuery(db, "SELECT i_id FROM items WHERE i_title = 'beta'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 2);
}

TEST(Db, OrderByAndLimit) {
  Database db = MakeDb();
  auto rs = MustQuery(db, "SELECT i_title FROM items ORDER BY i_cost DESC LIMIT 2");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "gamma");
  EXPECT_EQ(std::get<std::string>(rs.rows[1][0]), "alpha");
  // Ascending with ties: stable order by insertion.
  auto asc = MustQuery(db, "SELECT i_id FROM items ORDER BY i_cost LIMIT 3");
  EXPECT_EQ(std::get<std::int64_t>(asc.rows[0][0]), 2);
  EXPECT_EQ(std::get<std::int64_t>(asc.rows[1][0]), 4);
}

TEST(Db, ErrorsAreReported) {
  Database db = MakeDb();
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("SELECT * FROM nope")));
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("SELECT bogus FROM items")));
  EXPECT_TRUE(std::holds_alternative<DbError>(db.Query("DROP TABLE items")));
  EXPECT_TRUE(db.Exec("INSERT INTO items VALUES (1, 2)").has_value());    // arity
  EXPECT_TRUE(db.Exec("INSERT INTO items VALUES ('x', 'y', 'z')").has_value());  // types
  EXPECT_TRUE(db.Exec("CREATE TABLE items (a INT)").has_value());  // duplicate
}

TEST(Db, QuotedStringsWithSpacesAndEscapes) {
  Database db;
  ASSERT_FALSE(db.Exec("CREATE TABLE t (s TEXT)"));
  ASSERT_FALSE(db.Exec("INSERT INTO t VALUES ('it''s a test value')"));
  auto rs = MustQuery(db, "SELECT s FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(rs.rows[0][0]), "it's a test value");
}

TEST(Db, TpcwPopulationAndQuery) {
  Database db;
  PopulateTpcw(&db, 100);
  EXPECT_EQ(db.TableRows("ITEMS"), 100u);
  EXPECT_TRUE(db.HasTable("AUTHORS"));
  auto rs = MustQuery(db, TpcwQuery(42));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 42);
  EXPECT_EQ(rs.rows_scanned, 100u);  // full scan: the cost basis
}

TEST(Db, UpdateRewritesMatchingRowsInPlace) {
  Database db = MakeDb();
  EXPECT_FALSE(db.Exec("UPDATE items SET i_cost = 999 WHERE i_title = 'beta'"));
  EXPECT_EQ(db.rows_changed(), 1u);
  EXPECT_EQ(db.last_exec_scanned(), 4u);  // full scan: the cost basis
  auto rs = MustQuery(db, "SELECT i_cost FROM items WHERE i_id = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 999);
  EXPECT_EQ(db.TableRows("ITEMS"), 4u);  // update never changes cardinality
  // Multi-column SET, and no WHERE means every row.
  EXPECT_FALSE(db.Exec("UPDATE items SET i_cost = 1, i_title = 'flat'"));
  EXPECT_EQ(db.rows_changed(), 4u);
  EXPECT_EQ(MustQuery(db, "SELECT i_id FROM items WHERE i_cost = 1").rows.size(), 4u);
  // A SET referencing the WHERE column must not see its own writes (the
  // in-place-update vs. scan aliasing bug): bump exactly the 300s, once.
  Database db2 = MakeDb();
  EXPECT_FALSE(db2.Exec("UPDATE items SET i_cost = 300 WHERE i_cost = 500"));
  EXPECT_EQ(db2.rows_changed(), 1u);
  EXPECT_EQ(MustQuery(db2, "SELECT i_id FROM items WHERE i_cost = 300").rows.size(), 3u);
}

TEST(Db, DeleteRemovesMatchingRows) {
  Database db = MakeDb();
  EXPECT_FALSE(db.Exec("DELETE FROM items WHERE i_cost = 300"));
  EXPECT_EQ(db.rows_changed(), 2u);
  EXPECT_EQ(db.TableRows("ITEMS"), 2u);
  EXPECT_FALSE(db.Exec("DELETE FROM items WHERE i_cost = 300"));  // idempotent
  EXPECT_EQ(db.rows_changed(), 0u);
  EXPECT_FALSE(db.Exec("DELETE FROM items"));  // no WHERE: empty the table
  EXPECT_EQ(db.rows_changed(), 2u);
  EXPECT_EQ(db.TableRows("ITEMS"), 0u);
  EXPECT_TRUE(db.Exec("DELETE FROM nope").has_value());
}

TEST(Db, MutationLedgerCountsOnlySuccessfulInserts) {
  Database db = MakeDb();
  EXPECT_EQ(db.rows_inserted(), 4u);  // MakeDb's fixture rows
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (5, 'eps', 100)"));
  EXPECT_EQ(db.rows_inserted(), 5u);
  EXPECT_TRUE(db.Exec("INSERT INTO items VALUES (6, 'bad')").has_value());
  EXPECT_EQ(db.rows_inserted(), 5u);  // rejected statements leave no trace
  EXPECT_EQ(db.TableRows("ITEMS"), 5u);
}

TEST(Db, PerStatementCountersResetBetweenStatements) {
  // rows_changed/last_exec_scanned are per-statement: an INSERT (or a failed
  // statement) after an UPDATE must not report the UPDATE's stale counts —
  // the store charges simulated compute from last_exec_scanned, so leakage
  // skews every subsequent write's cost.
  Database db = MakeDb();
  EXPECT_FALSE(db.Exec("UPDATE items SET i_cost = 999 WHERE i_title = 'beta'"));
  EXPECT_EQ(db.rows_changed(), 1u);
  EXPECT_EQ(db.last_exec_scanned(), 4u);
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (9, 'eta', 5)"));
  EXPECT_EQ(db.rows_changed(), 0u);
  EXPECT_EQ(db.last_exec_scanned(), 0u);
  EXPECT_FALSE(db.Exec("DELETE FROM items WHERE i_cost = 999"));
  EXPECT_EQ(db.rows_changed(), 1u);
  EXPECT_TRUE(db.Exec("DELETE FROM nope").has_value());  // failed statement
  EXPECT_EQ(db.rows_changed(), 0u);
  EXPECT_EQ(db.last_exec_scanned(), 0u);
}

TEST(Db, IntegerLiteralOverflowIsRejectedNotWrapped) {
  // Pre-fix, stoll threw (or UB'd) on out-of-range literals; now the parser
  // must reject them as errors, leaving the table untouched.
  Database db = MakeDb();
  auto err = db.Exec("INSERT INTO items VALUES (99999999999999999999999, 'x', 1)");
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->message.find("out of range"), std::string::npos);
  EXPECT_EQ(db.TableRows("ITEMS"), 4u);
  EXPECT_EQ(db.rows_inserted(), 4u);
  // WHERE literals too: rejected, not wrapped into a bogus comparison.
  EXPECT_TRUE(db.Exec("DELETE FROM items WHERE i_cost = 18446744073709551617").has_value());
  EXPECT_EQ(db.TableRows("ITEMS"), 4u);
  // Boundary values parse exactly.
  EXPECT_FALSE(db.Exec("INSERT INTO items VALUES (9223372036854775807, 'max', -1)"));
  auto rs = MustQuery(db, "SELECT i_id FROM items WHERE i_title = 'max'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(rs.rows[0][0]), 9223372036854775807LL);
}

// --- Copy-on-write tables: copies share a table until one side writes it ---

TEST(DbCopyOnWrite, EachSideWritesOnlyItsOwnRows) {
  const std::string kAll = "SELECT * FROM items";
  for (const std::string sql : {"INSERT INTO items VALUES (5, 'eps', 100)",
                                "UPDATE items SET i_cost = 1 WHERE i_id = 2",
                                "DELETE FROM items WHERE i_cost = 300"}) {
    for (bool write_copy : {false, true}) {
      SCOPED_TRACE(sql + (write_copy ? " on the copy" : " on the original"));
      Database original = MakeDb();
      Database copy = original;
      EXPECT_TRUE(copy.SharesTable(original, "ITEMS"));
      Database& writer = write_copy ? copy : original;
      const Database& reader = write_copy ? original : copy;
      const auto before = MustQuery(reader, kAll).rows;
      ASSERT_FALSE(writer.Exec(sql));
      EXPECT_NE(MustQuery(writer, kAll).rows, before);
      EXPECT_EQ(MustQuery(reader, kAll).rows, before);
      EXPECT_EQ(reader.rows_inserted(), 4u);
      EXPECT_FALSE(writer.SharesTable(reader, "ITEMS"));
      // The writer's next statement writes its own copy in place.
      ASSERT_FALSE(writer.Exec("UPDATE items SET i_title = 'w'"));
      EXPECT_EQ(MustQuery(reader, kAll).rows, before);
    }
  }
}

TEST(DbCopyOnWrite, FailedOrZeroRowStatementsKeepTheTableShared) {
  Database original = MakeDb();
  Database copy = original;
  for (const char* sql : {"INSERT INTO items VALUES (5, 'eps')",
                          "INSERT INTO items VALUES (5, 6, 7)",
                          "UPDATE items SET i_cost = 1 WHERE i_id = 99",
                          "UPDATE items SET nope = 1",
                          "UPDATE items SET i_cost = 1 WHERE i_id = 2 junk",
                          "DELETE FROM items WHERE i_id = 99",
                          "DELETE FROM items WHERE nope = 1",
                          "CREATE TABLE other (x INT)"}) {
    copy.Exec(sql);
    EXPECT_TRUE(copy.SharesTable(original, "ITEMS")) << sql;
  }
  EXPECT_EQ(copy.rows_inserted(), 4u);
  EXPECT_TRUE(copy.HasTable("OTHER"));
  EXPECT_FALSE(original.HasTable("OTHER"));
  // Writing the other table leaves this one shared.
  EXPECT_FALSE(copy.Exec("INSERT INTO other VALUES (1)"));
  EXPECT_TRUE(copy.SharesTable(original, "ITEMS"));
}

TEST(Http, ParsesRequestLine) {
  HttpRequest req;
  EXPECT_TRUE(ParseHttpRequest("GET /index.html HTTP/1.0\r\n\r\n", &req));
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/index.html");
  EXPECT_TRUE(req.query.empty());
  EXPECT_TRUE(ParseHttpRequest("GET /query?sql=SELECT HTTP/1.0\r\n", &req));
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.query, "sql=SELECT");
  EXPECT_FALSE(ParseHttpRequest("POST / HTTP/1.0\r\n", &req));
  EXPECT_FALSE(ParseHttpRequest("garbage", &req));
}

TEST(Http, ResponseRendering) {
  HttpResponse resp;
  resp.body = "hello";
  std::string text = RenderHttpResponse(resp);
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 5), "hello");
}

TEST(Http, StaticPageIsAboutFourKib) {
  std::string page = StaticIndexPage();
  EXPECT_GE(page.size(), 4000u);
  EXPECT_LE(page.size(), 4500u);
}

// --- Malformed-request fuzz: the parser must reject, never crash ---

TEST(HttpFuzz, TruncatedAndMalformedRequestLinesAreRejected) {
  HttpRequest req;
  const char* bad[] = {
      "",
      "G",
      "GET",
      "GET ",
      "GET \r\n",
      "GET \n",
      " / HTTP/1.0\r\n",
      "\r\n",
      "\n",
      "\r\n\r\n",
      "POST / HTTP/1.0\r\n",
      "DELETE /x HTTP/1.0\r\n",
      "garbage",
      "\x01\x02\x03 \x04 \x05\r\n",
  };
  for (const char* s : bad) {
    EXPECT_FALSE(ParseHttpRequest(s, &req)) << "accepted: " << s;
  }
  // Missing the terminating CRLF is tolerated as long as the line is whole
  // (the server only hands over buffered text once it saw a newline or gave
  // up, so the parser itself is lenient here).
  EXPECT_TRUE(ParseHttpRequest("GET / HTTP/1.0", &req));
  EXPECT_TRUE(ParseHttpRequest("HEAD /x HTTP/1.0\n", &req));
}

TEST(HttpFuzz, OversizedRequestLineIsRejected) {
  HttpRequest req;
  // A request line that alone exceeds the buffer cap is refused even if
  // syntactically a GET; one byte under the cap still parses.
  std::string huge = "GET /" + std::string(kMaxRequestBytes, 'a') + " HTTP/1.0\r\n";
  EXPECT_FALSE(ParseHttpRequest(huge, &req));
  std::string fits = "GET /" + std::string(100, 'a') + " HTTP/1.0\r\n";
  EXPECT_TRUE(ParseHttpRequest(fits, &req));
}

TEST(HttpFuzz, RandomBytesNeverCrashTheParser) {
  sim::Rng rng(0xdecafbad);
  HttpRequest req;
  for (int i = 0; i < 500; ++i) {
    std::string s(rng.Below(300), '\0');
    for (char& c : s) {
      c = static_cast<char>(rng.Below(256));
    }
    if (rng.Below(2) == 0) {
      s.insert(0, "GET ");  // half the corpus starts plausibly
    }
    (void)ParseHttpRequest(s, &req);  // must not crash or hang
  }
}

// --- End-to-end: malformed/oversized requests answered with 400 ---

const net::MacAddr kSrvMac{0x02, 0, 0, 0, 0, 0x01};
const net::MacAddr kCliMac{0x02, 0, 0, 0, 0, 0x02};
constexpr net::Ipv4Addr kSrvIp = net::MakeIp(10, 0, 0, 1);
constexpr net::Ipv4Addr kCliIp = net::MakeIp(10, 0, 0, 2);

struct HttpFixture {
  HttpFixture()
      : machine(exec, hw::Amd2x2()),
        server_stack(machine, 0, kSrvIp, kSrvMac),
        client_stack(machine, 2, kCliIp, kCliMac),
        server(machine, server_stack, 80) {
    server_stack.AddArp(kCliIp, kCliMac);
    client_stack.AddArp(kSrvIp, kSrvMac);
    server_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await client_stack.Input(std::move(p));
    });
    client_stack.SetOutput([this](net::Packet p) -> Task<> {
      co_await server_stack.Input(std::move(p));
    });
    exec.Spawn(server.Serve());
  }
  // Sends `raw` as one request, returns everything the server answered.
  std::string Roundtrip(const std::string& raw) {
    std::string reply;
    exec.Spawn([](net::NetStack& stack, const std::string& req,
                  std::string& out) -> Task<> {
      net::NetStack::TcpConn* conn = co_await stack.TcpConnect(kSrvIp, 80);
      co_await stack.TcpSend(*conn, req);
      for (;;) {
        auto chunk = co_await conn->Read();
        if (chunk.empty() && conn->peer_closed) {
          break;
        }
        out.append(chunk.begin(), chunk.end());
      }
    }(client_stack, raw, reply));
    exec.Run();
    return reply;
  }
  sim::Executor exec;
  hw::Machine machine;
  net::NetStack server_stack;
  net::NetStack client_stack;
  HttpServer server;
};

TEST(HttpServerEndToEnd, WellFormedRequestIsServed) {
  HttpFixture f;
  std::string reply = f.Roundtrip("GET /index.html HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(reply.find("multikernel"), std::string::npos);
  EXPECT_EQ(f.server.requests_served(), 1u);
}

TEST(HttpServerEndToEnd, GarbageRequestGets400) {
  HttpFixture f;
  std::string reply = f.Roundtrip("\x02\x7f not-http at all\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_EQ(f.server.requests_served(), 0u);
  EXPECT_EQ(f.server.bad_requests(), 1u);
}

TEST(HttpServerEndToEnd, OversizedHeaderlessRequestGets400AndBoundedBuffer) {
  HttpFixture f;
  // No newline anywhere: the server must give up at kMaxRequestBytes rather
  // than buffer without bound, and answer 400.
  std::string flood(kMaxRequestBytes + 200, 'A');
  std::string reply = f.Roundtrip(flood);
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_EQ(f.server.requests_served(), 0u);
  EXPECT_EQ(f.server.bad_requests(), 1u);
}

TEST(HttpServerEndToEnd, PeerCloseBeforeFullRequestIsClosedAndReleased) {
  HttpFixture f;
  // The client sends half a request line and closes. The server must close
  // its side too (its FIN reaches the client) and release the connection,
  // so the server's table drains instead of holding a CLOSE_WAIT forever.
  net::NetStack::TcpConn* conn = nullptr;
  f.exec.Spawn([](net::NetStack& stack, net::NetStack::TcpConn*& c) -> Task<> {
    c = co_await stack.TcpConnect(kSrvIp, 80);
    co_await stack.TcpSend(*c, "GET /ind");
    co_await stack.TcpClose(*c);
    while (!c->peer_closed) {
      (void)co_await c->Read();
    }
  }(f.client_stack, conn));
  f.exec.Run();
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->peer_closed);  // the server's FIN arrived
  EXPECT_EQ(f.server.requests_served(), 0u);
  EXPECT_EQ(f.server.bad_requests(), 0u);
  EXPECT_EQ(f.server_stack.established_count(), 0);
  EXPECT_EQ(f.server_stack.conn_table().live(), 0u);
  f.client_stack.Release(conn);
}

TEST(HttpServerEndToEnd, MalformedBuyWidGets400) {
  HttpFixture f;
  bool exec_called = false;
  f.server.SetDbExec(
      [&exec_called](std::uint64_t, std::string) -> Task<std::string> {
        exec_called = true;
        co_return "ok 1";
      });
  // A non-digit in the wid must be a 400, not a silently truncated wid that
  // could collide with another client's write id and answer "dup" for a
  // write that was never applied. Empty wids are malformed too.
  std::string reply = f.Roundtrip("GET /buy?wid=12x&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  reply = f.Roundtrip("GET /buy?wid=&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 400", 0), 0u);
  EXPECT_FALSE(exec_called);
  // A well-formed wid still reaches the store.
  reply = f.Roundtrip("GET /buy?wid=12&sql=INSERT HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u);
  EXPECT_TRUE(exec_called);
}

// --- Sharded read-only DB replicas ---

TEST(DbShard, ReplicasAnswerIdenticallyAndIndependently) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  Database source;
  PopulateTpcw(&source, 100);
  DbReplicaCluster cluster(machine, source,
                           {{0, 1}, {4, 5}, {8, 9}});
  ASSERT_EQ(cluster.num_shards(), 3);
  for (int s = 0; s < 3; ++s) {
    exec.Spawn(cluster.Serve(s));
  }
  std::vector<std::string> answers;
  exec.Spawn([](DbReplicaCluster& c, std::vector<std::string>& out) -> Task<> {
    for (int s = 0; s < c.num_shards(); ++s) {
      out.push_back(co_await c.Query(s, TpcwQuery(42)));
    }
    // A second query on shard 1 only: per-shard counters must not bleed.
    (void)co_await c.Query(1, TpcwQuery(7));
    co_await c.Shutdown();
  }(cluster, answers));
  exec.Run();
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_FALSE(answers[0].empty());
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[1], answers[2]);
  EXPECT_NE(answers[0].find("item-42"), std::string::npos);
  EXPECT_EQ(cluster.queries_served(0), 1u);
  EXPECT_EQ(cluster.queries_served(1), 2u);
  EXPECT_EQ(cluster.queries_served(2), 1u);
  // Shutdown drained every Serve() loop: nothing is left alive or pending.
  EXPECT_EQ(exec.live_tasks(), 0u);
  EXPECT_EQ(exec.pending_events(), 0u);
}

TEST(DbShard, WritingOneReplicaLeavesSiblingsAndRespawnSourceUnchanged) {
  sim::Executor exec;
  hw::Machine machine(exec, hw::Amd4x4());
  Database source;
  PopulateTpcw(&source, 100);
  DbReplicaCluster cluster(machine, source, {{0, 1}, {4, 5}, {8, 9}});
  const std::string kAll = "SELECT * FROM items";
  const auto before = MustQuery(source, kAll).rows;
  for (int s = 0; s < cluster.num_shards(); ++s) {
    EXPECT_TRUE(cluster.replica_db_for_test(s).SharesTable(source, "ITEMS"));
  }
  Database& written = cluster.replica_db_for_test(1);
  ASSERT_FALSE(written.Exec("UPDATE items SET i_stock = 0 WHERE i_id = 42"));
  ASSERT_FALSE(written.Exec("DELETE FROM items WHERE i_id = 7"));
  ASSERT_FALSE(written.Exec("INSERT INTO items VALUES (100, 'new', 1, 1, 1)"));
  EXPECT_NE(MustQuery(written, kAll).rows, before);
  EXPECT_FALSE(written.SharesTable(source, "ITEMS"));
  EXPECT_TRUE(written.SharesTable(source, "AUTHORS"));  // not written
  for (int s : {0, 2}) {
    EXPECT_EQ(MustQuery(cluster.replica_db_for_test(s), kAll).rows, before);
    EXPECT_TRUE(cluster.replica_db_for_test(s).SharesTable(source, "ITEMS"));
  }
  EXPECT_EQ(MustQuery(cluster.source_db_for_test(), kAll).rows, before);
  EXPECT_TRUE(cluster.source_db_for_test().SharesTable(source, "ITEMS"));
}

}  // namespace
}  // namespace mk::apps
