// Benchmark driver: runs one workload for a time budget and prints its
// metrics. Usage:
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out-dir <dir>]
//
// --trace 0: repeats set-up + run + checks until the budget is spent, then
// times builds apart, and prints the end-to-end metrics (medians over the
// repetitions). rack-read runs at min(2, nproc) host threads; the other
// workloads are one domain.
// --trace 1: one untraced run for the work counts, the layer probes, then a
// traced run (for rack-read, traced at 1 and at T host threads), and prints
// the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit status is 0 only if every correctness check passed.
#include <sched.h>
#include <sys/personality.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "probes.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

const WorkloadDef kWorkloads[] = {
    {"keepalive-100k", MakeKeepalive, false},
    {"rack-read", MakeRackRead, true},
    {"store-browse-buy", MakeStoreBrowseBuy, false},
    {"omp-16core", MakeOmp16, false},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    Usage("bad --seconds or --trace");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One set-up (build + start) + run + collect, with host timings.
struct Timed {
  double build_s = 0;
  double start_s = 0;
  double wall_s = 0;
  Outcome out;
};

// Builds an instance: the first part of set-up.
std::unique_ptr<Instance> Build(const WorkloadDef& w, const Params& p, double* build_s) {
  ScopedSpan s("build");
  const double t0 = NowSeconds();
  std::unique_ptr<Instance> inst = w.make(p);
  *build_s = NowSeconds() - t0;
  return inst;
}

Timed RunOnce(const WorkloadDef& w, const Params& p, const std::string& label) {
  Timed t;
  ScopedSpan whole(label);
  std::unique_ptr<Instance> inst = Build(w, p, &t.build_s);
  {
    ScopedSpan s("start");
    const double t0 = NowSeconds();
    inst->Start();
    t.start_s = NowSeconds() - t0;
  }
  {
    ScopedSpan s("run");
    const double t0 = NowSeconds();
    inst->Run();
    t.wall_s = NowSeconds() - t0;
  }
  {
    ScopedSpan s("checks");
    t.out = inst->Collect();
  }
  {
    ScopedSpan s("teardown");
    inst.reset();
  }
  return t;
}

// Simulated end-to-end figures of one outcome (identical for every run of
// the same seed).
struct SimFigures {
  double mcycles = 0;
  double goodput = 0;
  double p50_kcyc = 0;
  double p99_kcyc = 0;
  double ok_ratio = 0;
};

SimFigures Figures(const Outcome& o) {
  SimFigures f;
  f.mcycles = static_cast<double>(o.sim_end) / 1e6;
  f.goodput = static_cast<double>(o.requests_ok) /
              (static_cast<double>(std::max<Cycles>(o.sim_window, 1)) / 1e6);
  f.p50_kcyc = static_cast<double>(Percentile(o.latencies, 50)) / 1e3;
  f.p99_kcyc = static_cast<double>(Percentile(o.latencies, 99)) / 1e3;
  f.ok_ratio = o.requests == 0 ? 0
                               : static_cast<double>(o.requests_ok) /
                                     static_cast<double>(o.requests);
  return f;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Error(const std::string& e) {
    if (std::find(errors_.begin(), errors_.end(), e) == errors_.end()) {
      errors_.push_back(e);
    }
  }
  const std::vector<std::string>& errors() const { return errors_; }

  void Print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const auto& m : metrics_) {
      std::printf("metric %-28s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& e : errors_) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                errors_.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

// Every run of one seed must simulate the same thing: same digest.
void CheckReplay(const Outcome& first, const Outcome& again, const std::string& what,
                 Report* r) {
  if (again.digest != first.digest) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: digest %016llx != first run's %016llx",
                  what.c_str(), static_cast<unsigned long long>(again.digest),
                  static_cast<unsigned long long>(first.digest));
    r->Error(buf);
  }
}

// Per-layer work counts every workload reports (0 where a layer is idle).
const char* const kCounterMetrics[][2] = {
    {"sim.events", "count"},          {"sim.epochs", "count"},
    {"sim.cross_msgs", "count"},      {"hw.accesses", "count"},
    {"hw.cache_misses", "count"},     {"hw.c2c_transfers", "count"},
    {"hw.link_dwords", "dwords"},     {"net.frames", "count"},
    {"net.retx", "count"},            {"net.drops", "count"},
    {"net.table.ops", "count"},       {"net.table.max_probe", "slots"},
    {"net.table.rehashes", "count"},  {"net.wheel.scheduled", "count"},
    {"net.wheel.fired", "count"},     {"net.wheel.cancelled", "count"},
    {"net.wheel.cascades", "count"},  {"fs.wal_records", "count"},
    {"fs.wal_bytes", "bytes"},        {"apps.http_served", "count"},
    {"apps.http_shed", "count"},      {"apps.db_statements", "count"},
    {"apps.db_rows_scanned", "count"}, {"cluster.fabric_fwd", "count"},
    {"cluster.fabric_drops", "count"}, {"cluster.steered", "count"},
    {"gen.late_kcyc_max", "kcyc"},
};

// Repetitions of an untraced run at least: 3 start samples past the first.
constexpr std::size_t kMinRuns = 4;
// Build samples of a --trace 0 run: instances built and torn down back to
// back without starting, within kBuildShare of the budget.
constexpr std::size_t kBuildSamples = 401;
constexpr double kBuildShare = 0.15;

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef* w = nullptr;
  for (const auto& d : kWorkloads) {
    if (args.workload == d.name) {
      w = &d;
    }
  }
  if (w == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_driver: refusing to measure a '%s' build (need Release)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Params params;
  params.seed = args.seed;
  // Two host threads by default: on a shared 4-vCPU host, four threads make
  // every vCPU preemption stall an epoch barrier.
  params.threads = w->multi_domain ? std::min(2, nproc) : 1;

  // run.py turns address-space randomization off where the host lets it.
  const int persona = personality(0xffffffff);
  const bool aslr = persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0;
  std::printf("perfbench: workload=%s seed=%llu trace=%d seconds=%g nproc=%d "
              "host_threads=%d compiler=\"%s\" build=%s aslr=%s\n",
              w->name, static_cast<unsigned long long>(args.seed), args.trace, args.seconds,
              nproc, params.threads, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              aslr ? "on" : "off");

  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // The offered loads sit below saturation, so on a correct program every
  // operation is answered correctly: one that is not fails the run.
  auto account = [&](const Timed& t) {
    attempted += t.out.requests;
    failed += t.out.requests - t.out.requests_ok;
    for (const auto& e : t.out.errors) {
      report.Error(e);
    }
    if (t.out.requests_ok != t.out.requests) {
      report.Error(std::string(w->name) + ": " +
                   std::to_string(t.out.requests - t.out.requests_ok) + " of " +
                   std::to_string(t.out.requests) + " operations not answered correctly");
    }
  };

  // Untraced repetitions: the whole budget (trace 0), a quarter (trace 1).
  // Every repetition must replay the first one's simulation. The first
  // set-up also pays for the process's cold start, so start is timed on the
  // later ones: each follows the previous repetition's teardown.
  const double start = NowSeconds();
  const double untraced_budget =
      args.trace == 0 ? args.seconds * (1 - kBuildShare) : args.seconds / 4;
  const std::size_t min_runs = args.trace == 0 ? kMinRuns : 1;
  Outcome first;
  std::vector<double> walls, starts;
  while (walls.size() < min_runs || NowSeconds() - start < untraced_budget) {
    Timed t = RunOnce(*w, params, "untraced-" + std::to_string(walls.size()));
    account(t);
    if (walls.empty()) {
      first = std::move(t.out);
    } else {
      CheckReplay(first, t.out, "untraced run " + std::to_string(walls.size()), &report);
      starts.push_back(t.start_s);
    }
    walls.push_back(t.wall_s);
  }
  // Build is timed apart, on many samples: a build is short (well under a
  // millisecond for keepalive-100k), so a few samples would be mostly noise.
  // Each sample runs on the next CPU the process may use, so it starts with
  // cold private caches, as a real set-up does. Left on one CPU, the warm
  // samples' median moved by half between runs of the same seed.
  std::vector<double> builds;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) {
        cpus.push_back(c);
      }
    }
  }
  const double builds_start = NowSeconds();
  while (args.trace == 0 && builds.size() < kBuildSamples &&
         (builds.size() < 3 || NowSeconds() - builds_start < kBuildShare * args.seconds)) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[builds.size() % cpus.size()], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    ScopedSpan s("build-only");
    double build_s = 0;
    Build(*w, params, &build_s);  // torn down unstarted
    builds.push_back(build_s);
  }
  if (!cpus.empty()) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
  const double wall_s = Median(walls);
  const SimFigures f = Figures(first);
  std::printf("digest: workload=%s seed=%llu sim_digest=%016llx runs=%zu\n", w->name,
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first.digest), walls.size());
  std::printf("latency samples: %zu (p99 is the nearest-rank 99th percentile of them)\n",
              first.latencies.size());

  if (args.trace == 0) {
    // Set-up = build + start, each the median of its samples.
    report.Add("setup_s", Median(builds) + Median(starts), "s");
    std::printf("setup samples: %zu builds, %zu starts\n", builds.size(), starts.size());
    // Host run time is printed, not reported: see host.wall_s (--trace 1).
    std::printf("host wall_s=%.6f sim_events_per_s=%.1f (median of %zu runs)\n", wall_s,
                static_cast<double>(first.events) / wall_s, walls.size());
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("sim_mcycles", f.mcycles, "Mcyc");
    report.Add("sim_goodput_req_per_mcyc", f.goodput, "1/Mcyc");
    report.Add("sim_latency_p50_kcyc", f.p50_kcyc, "kcyc");
    report.Add("sim_latency_p99_kcyc", f.p99_kcyc, "kcyc");
    report.Add("ok_ratio", f.ok_ratio, "ratio");
  } else {
    report.Add("host.wall_s", wall_s, "s");
    report.Add("host.sim_events_per_s", static_cast<double>(first.events) / wall_s, "1/s");
    for (const auto& [name, unit] : kCounterMetrics) {
      auto it = first.counters.find(name);
      report.Add(name, it == first.counters.end() ? 0 : it->second, unit);
    }
    // Probes, after the timed runs and never inside them.
    std::vector<ProbeResult> probes;
    {
      ScopedSpan s("probes");
      probes = RunProbes(first, args.seconds / 4, args.seed);
    }
    double explained = 0;
    for (const ProbeResult& pr : probes) {
      const double share = pr.ns_per_op * 1e-9 * pr.ops / wall_s;
      explained += share;
      report.Add(pr.ns_metric, pr.ns_per_op, "ns");
      report.Add(pr.share_metric, share, "share");
      std::printf("probe %-16s %10.1f ns/op x %14.0f ops (%s) = %7.3f s = %6.1f%% of wall_s\n",
                  pr.ns_metric.c_str(), pr.ns_per_op, pr.ops, pr.ops_counter.c_str(),
                  pr.ns_per_op * 1e-9 * pr.ops, 100 * share);
    }
    std::printf("probe accounting: probes explain %.1f%% of wall_s=%.4f s; unattributed "
                "%.4f s\n",
                100 * explained, wall_s, wall_s * (1 - explained));
    report.Add("probe.explained_share", explained, "share");
    report.Add("probe.unattributed_s", wall_s * (1 - explained), "s");

    // Traced runs: all categories on. A multi-domain workload is traced at
    // 1 and at T host threads; its digests must match each other and the
    // untraced run's.
    std::vector<int> thread_counts{params.threads};
    if (w->multi_domain && params.threads > 1) {
      thread_counts.insert(thread_counts.begin(), 1);
    }
    std::map<int, double> traced_wall;
    for (int threads : thread_counts) {
      mk::trace::Tracer tracer(std::size_t{1} << 12, mk::trace::kAllCategories);
      tracer.Install();
      Params tp = params;
      tp.threads = threads;
      Timed t = RunOnce(*w, tp, "traced-t" + std::to_string(threads));
      tracer.Uninstall();
      account(t);
      CheckReplay(first, t.out, "traced run at " + std::to_string(threads) + " thread(s)",
                  &report);
      std::printf("digest: workload=%s seed=%llu traced threads=%d sim_digest=%016llx\n",
                  w->name, static_cast<unsigned long long>(args.seed), threads,
                  static_cast<unsigned long long>(t.out.digest));
      traced_wall[threads] = t.wall_s;
      if (threads == params.threads) {
        for (std::size_t c = 0; c < mk::trace::kNumCategories; ++c) {
          const auto cat = static_cast<mk::trace::Category>(c);
          const std::string n = std::string("trace.") + mk::trace::CategoryName(cat);
          report.Add(n + ".count", static_cast<double>(tracer.category_count(cat)), "count");
          report.Add(n + ".sim_kcyc", static_cast<double>(tracer.category_cycles(cat)) / 1e3,
                     "kcyc");
        }
      }
    }
    const double traced_t = traced_wall[params.threads];
    report.Add("trace.overhead_s", traced_t - wall_s, "s");
    // Only a multi-domain workload has threads to speed up.
    const double speedup = thread_counts.size() > 1 ? traced_wall[1] / traced_t : 1.0;
    report.Add("sim.par_speedup", speedup, "x");
    std::printf("traced wall_s=%.4f (untraced %.4f); par_speedup=%.3f at %d thread(s)\n",
                traced_t, wall_s, speedup, params.threads);
  }

  const std::string tag = std::string(w->name) + "-s" + std::to_string(args.seed) + "-t" +
                          std::to_string(args.trace);
  const std::string spans_path = args.out_dir + "/spans-" + tag + ".json";
  if (GlobalSpans().WriteJson(spans_path)) {
    std::printf("spans written to %s\n", spans_path.c_str());
  }
  report.Print(attempted, failed);
  return report.errors().empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
