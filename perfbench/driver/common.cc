#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "sim/random.h"

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

void AddMachineCounters(mk::hw::Machine& m, std::map<std::string, double>* counters) {
  const mk::hw::CoreCounters t = m.counters().Total();
  (*counters)["hw.accesses"] += static_cast<double>(t.loads + t.stores);
  (*counters)["hw.stores"] += static_cast<double>(t.stores);
  (*counters)["hw.cache_misses"] += static_cast<double>(t.cache_misses);
  (*counters)["hw.c2c_transfers"] += static_cast<double>(t.c2c_transfers);
  const int pkgs = m.topo().num_packages();
  std::uint64_t dwords = 0;
  for (int a = 0; a < pkgs; ++a) {
    for (int b = 0; b < pkgs; ++b) {
      dwords += m.counters().link_dwords(a, b);
    }
  }
  (*counters)["hw.link_dwords"] += static_cast<double>(dwords);
}

void AddStackCounters(const std::vector<mk::net::NetStack*>& stacks,
                      std::map<std::string, double>* counters) {
  auto& c = *counters;
  for (const mk::net::NetStack* st : stacks) {
    const auto& tbl = st->conn_table();
    c["net.frames"] += static_cast<double>(st->frames_out());
    c["net.retx"] += static_cast<double>(st->tcp_retransmits());
    c["net.drops"] += static_cast<double>(st->drops());
    // Every inbound segment looks its connection up once.
    c["net.table.ops"] += static_cast<double>(tbl.inserts() + tbl.erases() + st->frames_in());
    c["net.table.rehashes"] += static_cast<double>(tbl.rehashes());
    c["net.table.max_probe"] =
        std::max(c["net.table.max_probe"], static_cast<double>(tbl.max_probe()));
    c["net.wheel.scheduled"] += static_cast<double>(st->wheel().scheduled());
    c["net.wheel.fired"] += static_cast<double>(st->wheel().fired());
    c["net.wheel.cancelled"] += static_cast<double>(st->wheel().cancelled());
    c["net.wheel.cascades"] += static_cast<double>(st->wheel().cascades());
  }
}

std::size_t PeakLiveConns(const std::vector<mk::net::NetStack*>& stacks) {
  std::size_t peak = 0;
  for (const mk::net::NetStack* st : stacks) {
    peak = std::max(peak, st->conn_table().peak_live());
  }
  return peak;
}

void FrameSizes::Add(const mk::net::Packet& frame) {
  // Ethernet, then IPv4 (total length at bytes 2-3, protocol at byte 9),
  // then TCP (header length in the top nibble of byte 12).
  constexpr std::size_t kIp = mk::net::kEthHeaderBytes;
  constexpr std::size_t kTcp = kIp + mk::net::kIpHeaderBytes;
  if (frame.size() < kTcp + mk::net::kTcpHeaderBytes || frame[12] != 0x08 ||
      frame[13] != 0x00 || frame[kIp + 9] != mk::net::kIpProtoTcp) {
    return;
  }
  const std::size_t ip_len = (std::size_t{frame[kIp + 2]} << 8) | frame[kIp + 3];
  const std::size_t hdrs = mk::net::kIpHeaderBytes + 4 * (std::size_t{frame[kTcp + 12]} >> 4);
  ++counts_[std::min(ip_len - std::min(ip_len, hdrs), mk::net::kMtu)];
}

void FrameSizes::Merge(const FrameSizes& other) {
  for (std::size_t len = 0; len < counts_.size(); ++len) {
    counts_[len] += other.counts_[len];
  }
}

std::vector<std::size_t> FrameSizes::Sample(std::size_t n) const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) {
    total += c;
  }
  std::vector<std::size_t> out;
  for (std::size_t len = 0; len < counts_.size() && total > 0; ++len) {
    if (counts_[len] == 0) {
      continue;
    }
    const std::uint64_t k = std::max<std::uint64_t>(1, counts_[len] * n / total);
    out.insert(out.end(), k, len);
  }
  mk::sim::Rng rng(1);
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Below(i)]);
  }
  return out;
}

mk::sim::Task<> DrainNicQueue(mk::hw::Machine& m, mk::net::SimNic& nic,
                              mk::net::NetStack& stack, int queue, int core,
                              const bool* stop, Cycles stop_poll) {
  while (stop == nullptr || !*stop) {
    if (nic.RxReady(queue)) {
      nic.SetInterruptsEnabled(queue, false);
      auto frame = co_await nic.DriverRxPop(core, queue);
      if (frame) {
        co_await m.Compute(core, kDriverFrameCost);
        co_await stack.Input(std::move(*frame));
      }
      continue;
    }
    nic.SetInterruptsEnabled(queue, true);
    if (nic.RxReady(queue)) {
      continue;
    }
    if (stop == nullptr) {
      co_await nic.rx_irq(queue).Wait();
      co_await m.Trap(core);
    } else if (co_await nic.rx_irq(queue).WaitTimeout(stop_poll) && !*stop) {
      co_await m.Trap(core);
    }
  }
}

mk::net::StackCosts FreeCosts() {
  mk::net::StackCosts c;
  c.per_packet_in = 0;
  c.per_packet_out = 0;
  c.per_byte_checksum = 0;
  return c;
}

std::string FormEncode(std::string s) {
  for (char& ch : s) {
    if (ch == ' ') {
      ch = '+';
    }
  }
  return s;
}

mk::sim::Task<> HttpGet(mk::sim::Executor& exec, mk::net::NetStack& client,
                        mk::net::Ipv4Addr ip, std::string target, Cycles timeout,
                        int* status, std::string* body) {
  *status = 0;
  const Cycles deadline = exec.now() + timeout;
  mk::net::NetStack::TcpConn* conn = co_await client.TcpConnect(ip, 80, timeout);
  if (conn == nullptr) {
    co_return;
  }
  co_await client.TcpSend(*conn, "GET " + target + " HTTP/1.0\r\n\r\n");
  std::string resp;
  while (true) {
    while (!conn->rx.empty()) {
      resp.push_back(static_cast<char>(conn->rx.front()));
      conn->rx.pop_front();
    }
    if (conn->peer_closed || exec.now() >= deadline) {
      break;
    }
    co_await conn->readable.WaitTimeout(deadline - exec.now());
  }
  std::size_t used = 0;
  if (!conn->peer_closed || !ParseHttpResponse(resp, status, body, &used) ||
      used != resp.size()) {
    *status = 0;
  }
  co_await client.TcpClose(*conn);
}

Cycles Percentile(std::vector<Cycles> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of the sample <= it.
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

bool ParseHttpResponse(const std::string& buf, int* status, std::string* body,
                       std::size_t* consumed) {
  const std::size_t hdr_end = buf.find("\r\n\r\n");
  if (hdr_end == std::string::npos) {
    return false;
  }
  const std::size_t sp = buf.find(' ');
  if (sp == std::string::npos || sp > hdr_end) {
    return false;
  }
  const std::size_t cl = buf.find("Content-Length: ");
  if (cl == std::string::npos || cl > hdr_end) {
    return false;
  }
  const std::size_t len = std::strtoul(buf.c_str() + cl + 16, nullptr, 10);
  if (buf.size() < hdr_end + 4 + len) {
    return false;
  }
  *status = std::atoi(buf.c_str() + sp + 1);
  *body = buf.substr(hdr_end + 4, len);
  *consumed = hdr_end + 4 + len;
  return true;
}

std::string ExpectedRows(const mk::apps::Database& db, const std::string& sql,
                         std::uint64_t* scanned) {
  auto result = db.Query(sql);
  if (!std::holds_alternative<mk::apps::Database::ResultSet>(result)) {
    return "error: " + std::get<mk::apps::DbError>(result).message;
  }
  const auto& rs = std::get<mk::apps::Database::ResultSet>(result);
  *scanned += rs.rows_scanned;
  std::string out;
  for (const auto& row : rs.rows) {
    for (const auto& v : row) {
      out += mk::apps::DbValueToString(v);
      out += '|';
    }
    out += '\n';
  }
  return out;
}

std::vector<Cycles> OpenLoopSchedule(std::uint64_t rng_seed, int n, Cycles start,
                                     Cycles gap) {
  mk::sim::Rng rng(rng_seed);
  std::vector<Cycles> at;
  at.reserve(static_cast<std::size_t>(n));
  Cycles t = start;
  for (int i = 0; i < n; ++i) {
    at.push_back(t);
    t += gap / 2 + rng.Below(gap);
  }
  return at;
}

int Spans::Begin(const std::string& name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, NowSeconds(), 0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Spans::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = NowSeconds();
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

bool Spans::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Spans& GlobalSpans() {
  static Spans spans;
  return spans;
}

}  // namespace perfbench
