// keepalive-100k: one machine, one serving core, one engine domain. Ramps
// to 100k concurrent keep-alive connections on the lifecycle TCP path, runs
// an open-loop request stream over the held connections, then closes every
// connection and drains.
#include <memory>
#include <string>
#include <vector>

#include "apps/httpd.h"
#include "common.h"
#include "net/stack.h"
#include "net/wire.h"
#include "recover/config.h"
#include "sim/event.h"
#include "sim/executor.h"
#include "sim/random.h"
#include "sim/task.h"

namespace perfbench {
namespace {

using mk::net::NetStack;
using mk::net::Packet;
using mk::sim::Task;

constexpr int kClientCore = 0;
constexpr int kDriverCore = 2;
constexpr int kServerCore = 3;
constexpr mk::net::Ipv4Addr kServerIp = mk::net::MakeIp(10, 0, 0, 1);
const mk::net::MacAddr kServerMac{2, 0, 0, 0, 0, 1};
constexpr int kClientStacks = 8;
constexpr int kHolders = 100'000;
constexpr Cycles kConnectGap = 10'000;     // mean connection inter-arrival
constexpr int kRequests = 5'000;
constexpr Cycles kRequestGap = 40'000;     // mean request inter-arrival
// Every deadline the stacks arm on their timer wheels.
constexpr Cycles kRto = 2'000'000;  // no loss here; handshake queueing is not loss
constexpr Cycles kServerTimeWait = 400'000;
constexpr Cycles kClientTimeWait = 200'000;
constexpr Cycles kSynRcvdTimeout = 1'000'000;
constexpr Cycles kHeaderDeadline = 1'500'000;
constexpr Cycles kConnectTimeout = 6'000'000;
constexpr Cycles kResponseDeadline = 8'000'000;
constexpr Cycles kRequestCost = 8'000;
constexpr int kCloseParallel = 32;          // closes in flight per client stack
const char kRequest[] = "GET / HTTP/1.1\r\nHost: bench\r\n\r\n";

mk::recover::RecoveryConfig LongRto() {
  mk::recover::RecoveryConfig rc;
  rc.tcp_rto = kRto;
  return rc;
}

class Keepalive : public Instance {
 public:
  explicit Keepalive(const Params& p)
      : rc_(LongRto()), m_(exec_, mk::hw::Amd2x2()), all_held_(exec_),
        stream_done_(exec_) {
    mk::net::TcpLifecycle server_lc;
    server_lc.enabled = true;
    server_lc.time_wait = kServerTimeWait;
    server_lc.syn_rcvd_timeout = kSynRcvdTimeout;
    server_lc.max_half_open = 64;
    server_ = std::make_unique<NetStack>(m_, kServerCore, kServerIp, kServerMac);
    server_->SetLifecycle(server_lc);
    for (int i = 0; i < kClientStacks; ++i) {
      const auto ip = mk::net::MakeIp(10, 0, 1, 1 + i);
      const mk::net::MacAddr mac{2, 0, 0, 1, 0, static_cast<std::uint8_t>(1 + i)};
      auto st = std::make_unique<NetStack>(m_, kClientCore, ip, mac, FreeCosts());
      mk::net::TcpLifecycle lc;
      lc.enabled = true;
      lc.time_wait = kClientTimeWait;
      st->SetLifecycle(lc);
      st->AddArp(kServerIp, kServerMac);
      server_->AddArp(ip, mac);
      clients_.push_back(std::move(st));
    }
    // Frames transit the driver core and are routed by destination address.
    auto route = [this](Packet frame) -> Task<> {
      frames_.Add(frame);
      co_await m_.Compute(kDriverCore, kDriverFrameCost);
      auto parsed = mk::net::ParseFrame(frame);
      if (!parsed) {
        ++misrouted_;
        co_return;
      }
      if (parsed->ip.dst == kServerIp) {
        co_await server_->Input(std::move(frame));
        co_return;
      }
      for (auto& c : clients_) {
        if (c->ip() == parsed->ip.dst) {
          co_await c->Input(std::move(frame));
          co_return;
        }
      }
      ++misrouted_;
    };
    server_->SetOutput(route);
    for (auto& c : clients_) {
      c->SetOutput(route);
    }
    http_ = std::make_unique<mk::apps::HttpServer>(m_, *server_, 80, nullptr, kRequestCost);
    mk::apps::HttpServer::KeepAlive ka;
    ka.enabled = true;
    ka.max_requests = 0;     // held connections live for the whole run
    ka.idle_timeout = 0;     // clients close them at drain
    ka.max_pipeline = 8;
    ka.header_deadline = kHeaderDeadline;
    http_->SetKeepAlive(ka);

    // Seeded inputs: connection arrival times, request send times, and the
    // stream of held-connection picks.
    connect_at_ = OpenLoopSchedule(p.seed * 3 + 1, kHolders, 0, kConnectGap);
    request_offsets_ = OpenLoopSchedule(p.seed * 3 + 2, kRequests, 0, kRequestGap);
    pick_rng_.Seed(p.seed * 3 + 3);
    records_.resize(kRequests);
    held_.resize(kClientStacks);
  }

  void Start() override {
    exec_.Spawn(http_->Serve());
    exec_.Spawn(Scenario());
  }
  void Run() override { exec_.Run(); }
  Outcome Collect() override;

 private:
  struct Record {
    Cycles scheduled = 0;
    Cycles done = 0;
    int status = 0;  // HTTP status; 0 = no complete response
    bool body_ok = false;
  };

  Task<> Connect(int stack) {
    NetStack::TcpConn* conn =
        co_await clients_[static_cast<std::size_t>(stack)]->TcpConnect(kServerIp, 80,
                                                                       kConnectTimeout);
    if (conn == nullptr) {
      ++holder_failures_;
    } else {
      held_[static_cast<std::size_t>(stack)].push_back(conn);
      idle_.push_back({stack, conn});
    }
    last_op_ = exec_.now();
    if (++connects_done_ == kHolders) {
      all_held_.Signal();
    }
  }

  Task<> Request(int idx, int stack, NetStack::TcpConn* conn) {
    ++inflight_;
    NetStack& st = *clients_[static_cast<std::size_t>(stack)];
    Record& rec = records_[static_cast<std::size_t>(idx)];
    co_await st.TcpSend(*conn, kRequest);
    std::string buf;
    std::string body;
    std::size_t used = 0;
    bool complete = false;
    while (!(complete = ParseHttpResponse(buf, &rec.status, &body, &used))) {
      if (!co_await st.WaitReadable(*conn, kResponseDeadline)) {
        break;
      }
      std::vector<std::uint8_t> chunk = co_await conn->Read();
      if (chunk.empty()) {
        break;
      }
      buf.append(chunk.begin(), chunk.end());
    }
    rec.done = exec_.now();
    last_op_ = exec_.now();
    if (complete) {
      rec.body_ok = rec.status == 200 && body == page_ && used == buf.size();
    } else {
      rec.status = 0;
    }
    // A connection that failed a request stays held (drain closes it) but
    // carries no more requests.
    if (complete && !conn->peer_closed) {
      idle_.push_back({stack, conn});
    }
    if (--inflight_ == 0 && generator_done_) {
      stream_done_.Signal();
    }
  }

  Task<> CloseAll(int stack, int* left, mk::sim::Event* done) {
    mk::sim::Semaphore slots(exec_, kCloseParallel);
    NetStack& st = *clients_[static_cast<std::size_t>(stack)];
    int pending = static_cast<int>(held_[static_cast<std::size_t>(stack)].size());
    mk::sim::Event all(exec_);
    for (NetStack::TcpConn* conn : held_[static_cast<std::size_t>(stack)]) {
      co_await slots.Acquire();
      exec_.Spawn([](Keepalive& self, NetStack& s, NetStack::TcpConn* c,
                     mk::sim::Semaphore& sem, int& p, mk::sim::Event& ev) -> Task<> {
        co_await s.TcpClose(*c);
        s.Release(c);
        self.last_op_ = self.exec_.now();
        sem.Release();
        if (--p == 0) {
          ev.Signal();
        }
      }(*this, st, conn, slots, pending, all));
    }
    while (pending > 0) {
      co_await all.Wait();
    }
    if (--*left == 0) {
      done->Signal();
    }
  }

  Task<> Scenario() {
    // Ramp: open-loop connection arrivals, round-robin over client stacks.
    for (int i = 0; i < kHolders; ++i) {
      const Cycles at = connect_at_[static_cast<std::size_t>(i)];
      if (at > exec_.now()) {
        co_await exec_.Delay(at - exec_.now());
      }
      exec_.Spawn(Connect(i % kClientStacks));
    }
    while (connects_done_ < kHolders) {
      co_await all_held_.Wait();
    }
    peak_established_ = server_->established_count();
    // Open-loop request stream over the held connections.
    const Cycles t0 = exec_.now() + 1'000'000;
    stream_start_ = t0;
    for (int i = 0; i < kRequests; ++i) {
      const Cycles at = t0 + request_offsets_[static_cast<std::size_t>(i)];
      if (at > exec_.now()) {
        co_await exec_.Delay(at - exec_.now());
      }
      Record& rec = records_[static_cast<std::size_t>(i)];
      rec.scheduled = at;
      late_max_ = std::max(late_max_, exec_.now() - at);
      if (idle_.empty()) {
        rec.done = exec_.now();  // refused: no idle connection to send on
        continue;
      }
      const std::size_t pick = pick_rng_.Below(idle_.size());
      const auto [stack, conn] = idle_[pick];
      idle_[pick] = idle_.back();
      idle_.pop_back();
      exec_.Spawn(Request(i, stack, conn));
    }
    generator_done_ = true;
    while (inflight_ > 0) {
      co_await stream_done_.Wait();
    }
    // Drain: every held connection is closed by its client.
    int left = kClientStacks;
    mk::sim::Event closed(exec_);
    for (int s = 0; s < kClientStacks; ++s) {
      exec_.Spawn(CloseAll(s, &left, &closed));
    }
    while (left > 0) {
      co_await closed.Wait();
    }
    finished_ = true;
  }

  mk::recover::ScopedRecoveryConfig rc_;
  mk::sim::Executor exec_;
  mk::hw::Machine m_;
  std::unique_ptr<NetStack> server_;
  std::vector<std::unique_ptr<NetStack>> clients_;
  std::unique_ptr<mk::apps::HttpServer> http_;
  const std::string page_ = mk::apps::StaticIndexPage();

  std::vector<Cycles> connect_at_;
  std::vector<Cycles> request_offsets_;
  mk::sim::Rng pick_rng_;
  std::vector<Record> records_;
  FrameSizes frames_;
  std::vector<std::vector<NetStack::TcpConn*>> held_;
  std::vector<std::pair<int, NetStack::TcpConn*>> idle_;
  mk::sim::Event all_held_;
  mk::sim::Event stream_done_;
  int connects_done_ = 0;
  int holder_failures_ = 0;
  int peak_established_ = 0;
  int inflight_ = 0;
  bool generator_done_ = false;
  bool finished_ = false;
  Cycles stream_start_ = 0;
  Cycles last_op_ = 0;
  Cycles late_max_ = 0;
  std::uint64_t misrouted_ = 0;
};

Outcome Keepalive::Collect() {
  Outcome out;
  auto fail = [&out](const std::string& what) { out.errors.push_back("keepalive-100k: " + what); };
  if (!finished_) {
    fail("scenario did not finish");
  }
  // Ledger: every request is served (200 with the right page), wrong (200
  // with another body), shed (non-200) or unanswered (refused, reset or past
  // its deadline); the responses clients saw must match the server's books.
  std::uint64_t served = 0, shed = 0, unanswered = 0, wrong = 0;
  Cycles last_done = 0;
  Digest d;
  for (const Record& r : records_) {
    d.Add(r.done);
    d.Add(static_cast<std::uint64_t>(r.status));
    last_done = std::max(last_done, r.done);
    if (r.status == 200 && r.body_ok) {
      ++served;
      out.latencies.push_back(r.done - r.scheduled);
    } else if (r.status == 200) {
      ++wrong;
    } else if (r.status != 0) {
      ++shed;
    } else {
      ++unanswered;
    }
  }
  const std::uint64_t server_shed = http_->shed_progress() + http_->shed_queue_full() +
                                    http_->shed_deadline() + http_->bad_requests();
  if (served + wrong != http_->requests_served() || shed != server_shed) {
    fail("clients saw " + std::to_string(served + wrong) + " pages and " +
         std::to_string(shed) + " sheds; the server answered " +
         std::to_string(http_->requests_served()) + " and shed " + std::to_string(server_shed));
  }
  if (wrong != 0) {
    fail(std::to_string(wrong) + " responses with a wrong body");
  }
  if (peak_established_ < kHolders || holder_failures_ != 0) {
    fail("only " + std::to_string(peak_established_) + " connections held");
  }
  // Drain: the tables and the wheels are empty, every insert was erased.
  std::vector<NetStack*> stacks{server_.get()};
  for (auto& c : clients_) {
    stacks.push_back(c.get());
  }
  auto& counters = out.counters;
  for (NetStack* st : stacks) {
    const auto& tbl = st->conn_table();
    if (tbl.live() != 0 || tbl.inserts() != tbl.erases() || st->wheel().armed() != 0 ||
        st->established_count() != 0 || st->half_open_count() != 0 ||
        st->time_wait_count() != 0) {
      fail("connection table or timer wheel did not drain on stack " +
           std::to_string(st->core()) + "/" + std::to_string(st->ip() & 0xff));
    }
  }
  AddStackCounters(stacks, &counters);
  counters["net.drops"] += static_cast<double>(misrouted_);
  if (exec_.pending_events() != 0) {
    fail("executor did not drain");
  }
  counters["apps.http_served"] = static_cast<double>(http_->requests_served());
  counters["apps.http_shed"] = static_cast<double>(server_shed);
  counters["apps.framer_pops"] = static_cast<double>(http_->requests_served());
  counters["gen.late_kcyc_max"] = static_cast<double>(late_max_) / 1e3;
  AddMachineCounters(m_, &counters);
  counters["sim.events"] = static_cast<double>(exec_.events_dispatched());

  for (const char* k : {"net.frames", "net.table.ops", "net.wheel.scheduled",
                        "net.wheel.fired", "net.wheel.cancelled", "apps.http_served",
                        "hw.accesses", "sim.events"}) {
    d.Add(static_cast<std::uint64_t>(counters[k]));
  }
  d.Add(exec_.now());

  out.requests = records_.size();
  out.requests_ok = served;
  out.sim_end = last_op_;
  out.sim_window = last_done > stream_start_ ? last_done - stream_start_ : 1;
  out.events = exec_.events_dispatched();
  out.digest = d.value();

  ProbeInputs& pi = out.probe;
  pi.platform = mk::hw::Amd2x2();
  pi.cores = 4;
  pi.frame_payloads = frames_.Sample(1000);
  pi.conn_live = PeakLiveConns(stacks);
  pi.timer_delays = {kRto,           kServerTimeWait, kClientTimeWait,  kSynRcvdTimeout,
                     kHeaderDeadline, kConnectTimeout, kResponseDeadline};
  pi.http_requests = {kRequest};
  return out;
}

}  // namespace

std::unique_ptr<Instance> MakeKeepalive(const Params& p) {
  return std::make_unique<Keepalive>(p);
}

}  // namespace perfbench
