// Layer probes: each calls one layer's public functions directly, outside
// the timed run, on inputs taken from the workload's run (ProbeInputs), and
// reports host nanoseconds per operation. The workload's own counters give
// the op count, so ns/op x ops / wall_s estimates the layer's share of the
// run.
#ifndef PERFBENCH_DRIVER_PROBES_H_
#define PERFBENCH_DRIVER_PROBES_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct ProbeResult {
  std::string ns_metric;     // e.g. "net.frame_ns"
  std::string share_metric;  // e.g. "net.host_share"
  std::string ops_counter;   // workload counter that gives the op count
  double ns_per_op = 0;
  double ops = 0;
};

// Runs every probe for about `budget_s` host seconds in total.
std::vector<ProbeResult> RunProbes(const Outcome& o, double budget_s, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_PROBES_H_
