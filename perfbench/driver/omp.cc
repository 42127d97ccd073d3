// omp-16core: the NAS/SPLASH skeletons (CG, FT, IS, Barnes-Hut, radiosity)
// and the MapReduce jobs (word count, histogram) on 16 cores of the 4x4 AMD,
// each under the user-space and the scalable sync flavors: 14 kernel runs,
// back to back. No network; the coherence model, proc sync and the executor
// do all the work.
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/mapreduce.h"
#include "apps/workloads.h"
#include "common.h"
#include "proc/openmp.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"

namespace perfbench {
namespace {

using mk::apps::WorkloadParams;
using mk::apps::WorkloadResult;
using mk::proc::SyncFlavor;
using mk::sim::Task;

constexpr int kCores = 16;

struct Kernel {
  const mk::apps::WorkloadEntry* entry;
  WorkloadParams params;
  double tolerance;  // relative, against the serial reference
};

// Problem sizes of the Figure 9 bench; the corpus/matrix seed is the
// benchmark seed.
std::vector<Kernel> Kernels(std::uint64_t seed) {
  std::vector<Kernel> ks;
  for (const auto& e : mk::apps::AllWorkloads()) {
    const std::string name = e.name;
    WorkloadParams p;
    p.seed = seed;
    p.iterations = 5;
    double tol = 1e-9;
    if (name == "CG") {
      p.size = 4096;
      tol = 1e-6;
    } else if (name == "FT") {
      p.size = 1 << 14;
    } else if (name == "IS") {
      p.size = 1 << 15;
      tol = 0;
    } else {
      p.size = 1024;  // Barnes-Hut bodies, radiosity patches
      p.iterations = 3;
      // Radiosity's task interleaving varies with threads, so its
      // Jacobi/Gauss-Seidel mix differs from the serial order.
      tol = name == "Barnes-Hut" ? 1e-9 : 0.35;
    }
    ks.push_back({&e, p, tol});
  }
  for (const auto& e : mk::apps::MapReduceWorkloads()) {
    WorkloadParams p;
    p.seed = seed;
    p.size = 1 << 13;
    p.iterations = 2;
    ks.push_back({&e, p, 0});
  }
  return ks;
}

// One simulated machine running one kernel.
struct KernelRun {
  KernelRun(const Kernel& k, int threads, SyncFlavor flavor)
      : kernel(k), machine(exec, mk::hw::Amd4x4()), omp(machine, FirstCores(threads), flavor) {}
  void Start() {
    exec.Spawn([](Task<WorkloadResult> task, WorkloadResult& out) -> Task<> {
      out = co_await std::move(task);
    }(kernel.entry->run(omp, kernel.params), result));
  }
  static std::vector<int> FirstCores(int n) {
    std::vector<int> cores;
    for (int i = 0; i < n; ++i) {
      cores.push_back(i);
    }
    return cores;
  }
  const Kernel& kernel;
  mk::sim::Executor exec;
  mk::hw::Machine machine;
  mk::proc::OmpRuntime omp;
  WorkloadResult result;
};

// The checksum a kernel must produce, computed without the 16-core run:
// MapReduce jobs are recounted serially on the host from the same Rng
// stream; the NAS/SPLASH kernels run their serial (1-thread) algorithm.
double Reference(const Kernel& k) {
  const std::string name = k.entry->name;
  const WorkloadParams& p = k.params;
  if (name == "wordcount") {
    std::vector<std::int64_t> counts(1024, 0);
    mk::sim::Rng rng(p.seed);
    for (std::int64_t i = 0; i < p.size; ++i) {
      ++counts[static_cast<std::size_t>(std::min(rng.Below(1024), rng.Below(1024)))];
    }
    double sum = 0;
    for (std::size_t w = 0; w < counts.size(); ++w) {
      sum += static_cast<double>(counts[w]) * static_cast<double>(w % 97 + 1);
    }
    return sum;
  }
  if (name == "histogram") {
    std::vector<std::int64_t> bins(256, 0);
    mk::sim::Rng rng(p.seed);
    for (std::int64_t i = 0; i < p.size; ++i) {
      const auto b = static_cast<std::int64_t>(rng.NextDouble() * 256.0);
      ++bins[static_cast<std::size_t>(std::min<std::int64_t>(b, 255))];
    }
    double sum = 0;
    for (std::size_t b = 0; b < bins.size(); ++b) {
      sum += static_cast<double>(bins[b]) * static_cast<double>(b + 1);
    }
    return sum;
  }
  KernelRun serial(k, 1, SyncFlavor::kUserSpace);
  serial.Start();
  serial.exec.Run();
  return serial.result.checksum;
}

class Omp16 : public Instance {
 public:
  explicit Omp16(const Params& p) : seed_(p.seed), kernels_(Kernels(p.seed)) {
    for (const Kernel& k : kernels_) {
      for (SyncFlavor f : {SyncFlavor::kUserSpace, SyncFlavor::kScalable}) {
        runs_.push_back(std::make_unique<KernelRun>(k, kCores, f));
      }
    }
  }

  void Start() override {
    for (auto& r : runs_) {
      r->Start();
    }
  }
  void Run() override {
    for (auto& r : runs_) {
      r->exec.Run();
    }
  }

  Outcome Collect() override;

 private:
  std::uint64_t seed_;
  std::vector<Kernel> kernels_;
  std::vector<std::unique_ptr<KernelRun>> runs_;  // kernel-major, 2 flavors each
};

Outcome Omp16::Collect() {
  Outcome out;
  // References depend only on the seed; compute them once per process.
  static std::map<std::uint64_t, std::vector<double>> cache;
  std::vector<double>& refs = cache[seed_];
  if (refs.empty()) {
    for (const Kernel& k : kernels_) {
      refs.push_back(Reference(k));
    }
  }
  Digest d;
  Cycles elapsed = 0;
  std::uint64_t ok = 0;
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Kernel& k = kernels_[i / 2];
    KernelRun& r = *runs_[i];
    const double want = refs[i / 2];
    const double got = r.result.checksum;
    const bool right = std::abs(got - want) <= k.tolerance * (std::abs(want) + 1e-9) &&
                       (std::string(k.entry->name) != "IS" || got > 0);
    const char* flavor = i % 2 == 0 ? "user-space" : "scalable";
    if (right) {
      ++ok;
      out.latencies.push_back(r.result.cycles);
    } else {
      char buf[200];
      std::snprintf(buf, sizeof buf, "omp-16core: %s (%s) checksum %.17g, reference %.17g",
                    k.entry->name, flavor, got, want);
      out.errors.push_back(buf);
    }
    if (r.exec.pending_events() != 0 || r.exec.live_tasks() != 0) {
      out.errors.push_back(std::string("omp-16core: ") + k.entry->name + " (" + flavor +
                           ") did not drain");
    }
    elapsed += r.result.cycles;
    d.Add(r.result.cycles);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &got, sizeof bits);
    d.Add(bits);
    d.Add(r.exec.events_dispatched());
    out.events += r.exec.events_dispatched();
    AddMachineCounters(r.machine, &out.counters);
  }
  auto& counters = out.counters;
  counters["sim.events"] = static_cast<double>(out.events);
  for (const char* k : {"hw.accesses", "hw.cache_misses", "hw.c2c_transfers",
                        "hw.link_dwords"}) {
    d.Add(static_cast<std::uint64_t>(counters[k]));
  }
  out.requests = runs_.size();
  out.requests_ok = ok;
  out.sim_end = elapsed;  // the kernels run back to back
  out.sim_window = elapsed;
  out.digest = d.value();
  out.probe.platform = mk::hw::Amd4x4();
  out.probe.cores = kCores;
  return out;
}

}  // namespace

std::unique_ptr<Instance> MakeOmp16(const Params& p) { return std::make_unique<Omp16>(p); }

}  // namespace perfbench
