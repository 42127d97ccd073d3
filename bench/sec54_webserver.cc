// Section 5.4, "Web server and relational database": the 2x2-core AMD system
// serves (a) a 4.1 KB static page and (b) TPC-W-style SELECT queries against
// a database process, to a cluster of HTTP clients. The scenario itself
// (placement, costs, clients) is in sec54_webserver.h.
//
// Paper: 18697 req/s static (lighttpd/Linux: 8924); 3417 req/s for web+SQL,
// bottlenecked at the SQLite core.
#include <cstdio>

#include "bench_util.h"
#include "sec54_webserver.h"

int main(int argc, char** argv) {
  using namespace mk;
  bench::TraceSession trace_session(bench::ParseTraceFlags(argc, argv));
  bench::ParseThreadsFlag(argc, argv);  // single-domain bench: host threads cannot change its schedule (sim/parallel.h)
  bench::PrintHeader("Section 5.4: web server and relational database (2x2-core AMD)");
  double bf_static = bench::webserver::RunScenario({false, false});
  double lx_static = bench::webserver::RunScenario({true, false});
  double bf_db = bench::webserver::RunScenario({false, true});
  std::printf("%-42s %12s %14s\n", "", "measured", "paper");
  std::printf("%-42s %9.0f/s %14s\n", "Barrelfish static 4.1KB page", bf_static, "18697/s");
  std::printf("%-42s %9.0f/s %14s\n", "lighttpd on Linux, static page", lx_static, "8924/s");
  std::printf("%-42s %9.2fx %14s\n", "Barrelfish / Linux ratio", bf_static / lx_static,
              "2.10x");
  std::printf("%-42s %9.0f/s %14s\n", "Barrelfish web + SQL (TPC-W SELECTs)", bf_db,
              "3417/s");
  std::printf(
      "\nShape: the user-space server (driver, web server, DB as URPC-connected\n"
      "processes placed by topology) roughly doubles lighttpd/Linux on the static\n"
      "workload by avoiding kernel-user crossings; the web+SQL configuration is\n"
      "bottlenecked at the database core.\n");
  return 0;
}
