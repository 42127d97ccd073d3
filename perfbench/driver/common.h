// Shared types of the benchmark driver: one workload *instance* is built and
// started (timed as set-up), run to drain (timed as wall), then collected
// (untimed: correctness checks, per-layer work counts, simulation digest).
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/db.h"
#include "hw/machine.h"
#include "hw/platform.h"
#include "net/nic.h"
#include "net/stack.h"
#include "net/wire.h"
#include "sim/executor.h"
#include "sim/task.h"
#include "sim/types.h"

namespace perfbench {

using mk::sim::Cycles;

struct Params {
  std::uint64_t seed = 1;
  int threads = 1;  // host threads for multi-domain workloads
};

// FNV-1a over 64-bit words: the simulation digest. Any change in a request's
// completion cycle or status, or in a final component counter, changes it.
class Digest {
 public:
  void Add(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Host cycles a NIC driver charges per frame it moves.
constexpr Cycles kDriverFrameCost = 1400;

// Histogram of the TCP payload sizes of the frames a workload's stacks send,
// filled by their output hooks during the run.
class FrameSizes {
 public:
  void Add(const mk::net::Packet& frame);
  void Merge(const FrameSizes& other);
  // About `n` payload sizes in the recorded proportions (every recorded size
  // at least once), in a fixed shuffled order. Empty if nothing was recorded.
  std::vector<std::size_t> Sample(std::size_t n) const;

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(mk::net::kMtu + 1);
};

// The layer probes' inputs (probes.cc), taken from the workload's run: the
// sizes it recorded, the statements it sent, the deadlines it configured.
// A probe whose layer did no work in the run does not run.
struct ProbeInputs {
  mk::hw::PlatformSpec platform = mk::hw::Amd4x4();
  int cores = 4;                           // cores in the coherence pattern
  std::vector<std::size_t> frame_payloads; // TCP payload bytes, as sent
  std::size_t conn_live = 0;               // peak live ConnTable entries
  std::vector<Cycles> timer_delays;        // the deadlines the stacks arm
  std::vector<std::string> http_requests;  // framer input, as sent
  int db_items = 0;                        // TPC-W catalog size
  std::vector<std::string> db_statements;  // SQL, as sent
  std::vector<std::size_t> wal_payloads;   // WAL payload bytes, as logged
};

// Everything one run of a workload produced, read after Run() returns.
struct Outcome {
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t requests = 0;       // requests (or kernel runs) offered
  std::uint64_t requests_ok = 0;    // of those, answered correctly
  std::vector<Cycles> latencies;    // per correct request or kernel run
  Cycles sim_end = 0;               // cycle the last operation completed
  Cycles sim_window = 0;            // cycles the goodput is measured over
  std::uint64_t events = 0;         // executor events, summed over domains
  std::uint64_t digest = 0;
  std::map<std::string, double> counters;  // per-layer work counts
  ProbeInputs probe;
};

// One workload instance. The constructor builds it (machines, topology,
// tables, inputs) and leaves no task suspended, so an instance that never
// starts tears down cleanly. Start() boots the machines and spawns the
// tasks, up to the first simulated event of the workload. Both are set-up.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual void Start() = 0;
  virtual void Run() = 0;
  virtual Outcome Collect() = 0;
};

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Instance> (*make)(const Params&);
  bool multi_domain;
};

std::unique_ptr<Instance> MakeKeepalive(const Params& p);
std::unique_ptr<Instance> MakeRackRead(const Params& p);
std::unique_ptr<Instance> MakeStoreBrowseBuy(const Params& p);
std::unique_ptr<Instance> MakeOmp16(const Params& p);

// --- Helpers shared by the workloads ---

double NowSeconds();

// Adds a machine's coherence counters (hw.*) to `counters`.
void AddMachineCounters(mk::hw::Machine& m, std::map<std::string, double>* counters);

// Adds the stacks' frame, drop, connection-table and timer-wheel books
// (net.*) to `counters`.
void AddStackCounters(const std::vector<mk::net::NetStack*>& stacks,
                      std::map<std::string, double>* counters);

// Largest peak live population of the stacks' connection tables.
std::size_t PeakLiveConns(const std::vector<mk::net::NetStack*>& stacks);

// Drains one NIC queue into `stack` on `core`, charging kDriverFrameCost
// per frame, and parks on the queue's RX interrupt when it is empty. Runs
// forever if `stop` is null; otherwise until *stop is set, waking at least
// every `stop_poll` cycles to look.
mk::sim::Task<> DrainNicQueue(mk::hw::Machine& m, mk::net::SimNic& nic,
                              mk::net::NetStack& stack, int queue, int core,
                              const bool* stop = nullptr, Cycles stop_poll = 20000);

// Stack costs of an external load generator: its frames cost the simulated
// machine nothing, the server pays for every frame.
mk::net::StackCosts FreeCosts();

// URL form encoding of generated SQL: '+' for ' ', the only reserved
// character the statements contain.
std::string FormEncode(std::string s);

// One HTTP/1.0 GET of `target` on a fresh connection to ip:80. Sets *status
// and *body from the complete response; *status is 0 if none arrived within
// `timeout` cycles. The caller keeps every argument alive until it returns.
mk::sim::Task<> HttpGet(mk::sim::Executor& exec, mk::net::NetStack& client,
                        mk::net::Ipv4Addr ip, std::string target, Cycles timeout,
                        int* status, std::string* body);

// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty sample.
Cycles Percentile(std::vector<Cycles> v, double p);

// Splits an HTTP response into status and body once it holds a complete
// Content-Length-framed message. False while incomplete.
bool ParseHttpResponse(const std::string& buf, int* status, std::string* body,
                       std::size_t* consumed);

// The rows a TPC-W SELECT renders to ("v|v|...|\n" per row, as the db
// replicas reply), computed on a host copy of the catalog: the reference
// every SQL response body is checked against. Adds the rows the query
// scanned to *scanned.
std::string ExpectedRows(const mk::apps::Database& db, const std::string& sql,
                         std::uint64_t* scanned);

// Open-loop schedule: `n` send cycles from `start`, gaps drawn uniformly in
// [gap/2, 3*gap/2) from `rng_seed`.
std::vector<Cycles> OpenLoopSchedule(std::uint64_t rng_seed, int n, Cycles start,
                                     Cycles gap);

// Host-time spans recorded around set-up, run, checks and probes, written
// as Chrome/Perfetto trace JSON at the end of the benchmark process.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s;
    double end_s;
    int parent;  // index into spans(), -1 for a root
  };
  int Begin(const std::string& name);
  void End(int id);
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Spans& GlobalSpans();

// RAII span in GlobalSpans().
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name) : id_(GlobalSpans().Begin(name)) {}
  ~ScopedSpan() { GlobalSpans().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
