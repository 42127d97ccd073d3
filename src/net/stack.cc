#include "net/stack.h"

#include <cstring>

#include "fault/fault.h"
#include "trace/trace.h"

namespace mk::net {
namespace {

// Serial-number comparison (RFC 1982 style) for 32-bit sequence space.
bool SeqLt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool SeqLe(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}

}  // namespace

const char* CloseCauseName(CloseCause c) {
  switch (c) {
    case CloseCause::kActiveFin: return "active-fin";
    case CloseCause::kPassiveFin: return "passive-fin";
    case CloseCause::kReset: return "reset";
    case CloseCause::kConnectTimeout: return "connect-timeout";
    case CloseCause::kHalfOpenExpiry: return "half-open-expiry";
    case CloseCause::kRetxAbort: return "retx-abort";
    case CloseCause::kNumCauses: break;
  }
  return "?";
}

Task<NetStack::UdpDatagram> NetStack::UdpSocket::Recv() {
  while (queue.empty()) {
    co_await ready.Wait();
  }
  UdpDatagram d = std::move(queue.front());
  queue.pop_front();
  co_return d;
}

bool NetStack::UdpSocket::TryRecv(UdpDatagram* out) {
  if (queue.empty()) {
    return false;
  }
  *out = std::move(queue.front());
  queue.pop_front();
  return true;
}

Task<std::vector<std::uint8_t>> NetStack::TcpConn::Read() {
  while (rx.empty() && !peer_closed) {
    co_await readable.Wait();
  }
  std::vector<std::uint8_t> out(rx.begin(), rx.end());
  rx.clear();
  co_return out;
}

Task<NetStack::TcpConn*> NetStack::Listener::Accept() {
  while (accepted.empty()) {
    co_await ready.Wait();
  }
  TcpConn* conn = accepted.front();
  accepted.pop_front();
  co_return conn;
}

NetStack::NetStack(hw::Machine& machine, int core, Ipv4Addr ip, MacAddr mac,
                   StackCosts costs)
    : machine_(machine),
      core_(core),
      ip_(ip),
      mac_(mac),
      costs_(costs),
      wheel_(machine.exec()) {}

MacAddr NetStack::ResolveMac(Ipv4Addr ip) const {
  auto it = arp_.find(ip);
  if (it != arp_.end()) {
    return it->second;
  }
  return MacAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
}

Task<> NetStack::Emit(Packet frame, std::size_t payload_len) {
  ++frames_out_;
  co_await machine_.Compute(
      core_, costs_.per_packet_out +
                 static_cast<Cycles>(static_cast<double>(payload_len) *
                                     costs_.per_byte_checksum));
  if (output_) {
    co_await output_(std::move(frame));
  }
}

NetStack::UdpSocket& NetStack::UdpBind(std::uint16_t port) {
  auto [it, inserted] = udp_.try_emplace(port, nullptr);
  if (inserted) {
    it->second = std::make_unique<UdpSocket>(machine_.exec());
  }
  return *it->second;
}

Task<> NetStack::UdpSendTo(std::uint16_t src_port, Ipv4Addr dst_ip, std::uint16_t dst_port,
                           std::vector<std::uint8_t> payload) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(dst_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = dst_ip;
  ip.ident = ip_ident_++;
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  std::size_t len = payload.size();
  Packet frame = BuildUdpFrame(eth, ip, udp, payload.data(), payload.size());
  co_await Emit(std::move(frame), len);
}

Task<> NetStack::Input(Packet frame) {
  ++frames_in_;
  ParseInfo info;
  auto parsed = ParseFrame(frame, &info);
  // Checksum cost is charged on the L4 payload bytes the parser actually
  // summed — the same basis whether the frame parsed or not (a truncated
  // frame sums nothing; a corrupt one sums its payload before rejecting it).
  co_await machine_.Compute(
      core_, costs_.per_packet_in +
                 static_cast<Cycles>(static_cast<double>(info.payload_len) *
                                     costs_.per_byte_checksum));
  if (!parsed) {
    if (info.error == ParseError::kUnknownProto) {
      ++drops_unknown_proto_;
    } else {
      ++drops_bad_frame_;
    }
    co_return;
  }
  if (parsed->ip.dst != ip_ && parsed->ip.dst != 0xffffffff) {
    ++drops_not_for_us_;
    co_return;
  }
  if (parsed->udp) {
    auto it = udp_.find(parsed->udp->dst_port);
    if (it == udp_.end()) {
      ++drops_no_listener_;
      co_return;
    }
    UdpDatagram d;
    d.src_ip = parsed->ip.src;
    d.src_port = parsed->udp->src_port;
    d.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset),
                     frame.begin() + static_cast<std::ptrdiff_t>(parsed->payload_offset +
                                                                 parsed->payload_len));
    it->second->queue.push_back(std::move(d));
    it->second->ready.Signal();
    co_return;
  }
  if (parsed->tcp) {
    co_await HandleTcp(*parsed, frame);
    co_return;
  }
  ++drops_unknown_proto_;
}

Task<> NetStack::SendTcpSegment(TcpConn& conn, TcpFlags flags, const std::uint8_t* data,
                                std::size_t len) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(conn.remote_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = conn.remote_ip;
  ip.ident = ip_ident_++;
  TcpHeader tcp;
  tcp.src_port = conn.local_port;
  tcp.dst_port = conn.remote_port;
  tcp.seq = conn.snd_nxt;
  tcp.ack = conn.rcv_nxt;
  tcp.flags = flags;
  auto seq_len = static_cast<std::uint32_t>(len) + (flags.syn ? 1 : 0) +
                 (flags.fin ? 1 : 0);
  conn.snd_nxt += seq_len;
  if (seq_len > 0) {
    // Segments that occupy sequence space are kept until acknowledged (pure
    // ACKs are not retransmittable). This bookkeeping runs on every send; the
    // wheel timer that retransmits from it is armed only under fault
    // injection, the one source of loss. SYN_RCVD never arms it — a
    // half-open connection does not retransmit its SYN-ACK (the client's SYN
    // retransmit provokes a re-send instead), so a SYN flood cannot make the
    // server arm 100k timers.
    TcpConn::SentSeg seg;
    seg.seq = tcp.seq;
    seg.seq_len = seq_len;
    seg.flags = flags;
    seg.data.assign(data, data + len);
    conn.unacked.push_back(std::move(seg));
    if (fault::Injector::active() != nullptr && conn.state != TcpState::kSynRcvd &&
        conn.retx_id == TimerWheel::kNoTimer) {
      ArmRetx(conn, recover::Config().tcp_rto);
    }
  }
  Packet frame = BuildTcpFrame(eth, ip, tcp, data, len);
  co_await Emit(std::move(frame), len);
}

Task<> NetStack::SendTcpRaw(TcpConn& conn, std::uint32_t seq, TcpFlags flags,
                            const std::uint8_t* data, std::size_t len) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(conn.remote_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = conn.remote_ip;
  ip.ident = ip_ident_++;
  TcpHeader tcp;
  tcp.src_port = conn.local_port;
  tcp.dst_port = conn.remote_port;
  tcp.seq = seq;
  tcp.ack = conn.rcv_nxt;
  tcp.flags = flags;
  Packet frame = BuildTcpFrame(eth, ip, tcp, data, len);
  co_await Emit(std::move(frame), len);
}

// --- Connection lifecycle internals ---

std::uint32_t NetStack::CookieFor(Ipv4Addr remote_ip, std::uint16_t remote_port,
                                  std::uint16_t local_port) const {
  // splitmix64 over the flow key xor a fixed secret; deterministic across
  // runs, unforgeable enough for a simulated attacker that picks random ACKs.
  std::uint64_t x = ConnKey(remote_ip, remote_port, local_port) ^ 0x6d6b636f6f6b6965ull;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x);
}

std::uint16_t NetStack::AllocEphemeralPort(Ipv4Addr dst_ip, std::uint16_t dst_port) {
  // Wraps 65535 -> 49152 and skips 4-tuples still present in the table
  // (TIME_WAIT parks a tuple for a while after a clean close). 0 = the full
  // 16k-port range to this destination is in use.
  for (int tries = 0; tries < 16384; ++tries) {
    std::uint16_t port = next_ephemeral_;
    next_ephemeral_ =
        next_ephemeral_ == 65535 ? static_cast<std::uint16_t>(49152)
                                 : static_cast<std::uint16_t>(next_ephemeral_ + 1);
    if (conns_.Find(ConnKey(dst_ip, dst_port, port)) == nullptr) {
      return port;
    }
  }
  return 0;
}

void NetStack::LeaveState(TcpConn& c) {
  switch (c.state) {
    case TcpState::kSynSent:
    case TcpState::kSynRcvd:
      --half_open_count_;
      break;
    case TcpState::kEstablished:
      --established_count_;
      break;
    case TcpState::kTimeWait:
      --time_wait_count_;
      break;
    default:
      break;
  }
}

void NetStack::CloseConn(TcpConn& c, CloseCause cause) {
  if (c.state == TcpState::kClosed) {
    return;
  }
  LeaveState(c);
  if (c.retx_id != TimerWheel::kNoTimer) {
    wheel_.Cancel(c.retx_id);
    c.retx_id = TimerWheel::kNoTimer;
  }
  if (c.lifecycle_id != TimerWheel::kNoTimer) {
    wheel_.Cancel(c.lifecycle_id);
    c.lifecycle_id = TimerWheel::kNoTimer;
  }
  c.state = TcpState::kClosed;
  c.close_cause = cause;
  c.unacked.clear();
  c.dup_acks = 0;
  c.peer_closed = true;  // readers observe end-of-stream
  ++closes_[static_cast<std::size_t>(cause)];
  trace::Emit<trace::Category::kConn>(
      trace::EventId::kConnClose, machine_.exec().now(), core_,
      static_cast<std::uint64_t>(cause),
      ConnKey(c.remote_ip, c.remote_port, c.local_port));
  c.readable.Signal();
  c.closed_ev.Signal();
  MaybeReap(c);
}

void NetStack::EnterTimeWait(TcpConn& c) {
  c.state = TcpState::kTimeWait;
  ++time_wait_count_;
  trace::Emit<trace::Category::kConn>(
      trace::EventId::kConnTimeWait, machine_.exec().now(), core_,
      ConnKey(c.remote_ip, c.remote_port, c.local_port));
  TcpConn* cp = &c;
  c.lifecycle_id = wheel_.Schedule(lifecycle_.time_wait, [this, cp] {
    cp->lifecycle_id = TimerWheel::kNoTimer;
    ++time_wait_reaped_;
    CloseConn(*cp, CloseCause::kActiveFin);
  });
}

void NetStack::MaybeReap(TcpConn& c) {
  if (c.state != TcpState::kClosed || !c.app_released || c.pins != 0) {
    return;
  }
  // Every timer referencing the conn was cancelled on the way to kClosed and
  // no suspended coroutine pins it, so destroying it here is safe.
  conns_.Erase(ConnKey(c.remote_ip, c.remote_port, c.local_port));
}

void NetStack::ArmRetx(TcpConn& c, Cycles rto) {
  c.retx_rto = rto;
  c.retx_marker = c.snd_una;
  TcpConn* cp = &c;
  c.retx_id = wheel_.Schedule(rto, [this, cp] { RetxFire(cp); });
}

void NetStack::RetxFire(TcpConn* c) {
  c->retx_id = TimerWheel::kNoTimer;
  if (c->state == TcpState::kClosed || c->unacked.empty() ||
      fault::Injector::active() == nullptr) {
    c->retx_tries = 0;
    return;
  }
  if (c->retx_marker != c->snd_una) {
    // Forward progress since the timer was armed: restart with a fresh RTO.
    c->retx_tries = 0;
    ArmRetx(*c, recover::Config().tcp_rto);
    return;
  }
  if (++c->retx_tries > recover::Config().tcp_max_retx) {
    CloseConn(*c, CloseCause::kRetxAbort);
    return;
  }
  ++tcp_retransmits_;
  trace::Emit<trace::Category::kFault>(trace::EventId::kFaultTcpRetransmit,
                                       machine_.exec().now(), core_, c->snd_una,
                                       static_cast<std::uint64_t>(c->retx_tries));
  ArmRetx(*c, c->retx_rto * 2);  // keeps retx_tries: backoff until progress
  machine_.exec().Spawn(ResendWindow(c));
}

Task<> NetStack::ResendWindow(TcpConn* c) {
  PinGuard pin(this, c);
  std::vector<TcpConn::SentSeg> window(c->unacked.begin(), c->unacked.end());
  for (const TcpConn::SentSeg& seg : window) {
    if (c->state == TcpState::kClosed) {
      break;
    }
    co_await SendTcpRaw(*c, seg.seq, seg.flags, seg.data.data(), seg.data.size());
  }
}

void NetStack::Release(TcpConn* conn) {
  if (conn == nullptr) {
    return;
  }
  conn->app_released = true;
  MaybeReap(*conn);
}

Task<bool> NetStack::WaitReadable(TcpConn& conn, Cycles timeout) {
  if (timeout == 0) {
    while (conn.rx.empty() && !conn.peer_closed) {
      co_await conn.readable.Wait();
    }
    co_return true;
  }
  conn.wait_timed_out = false;
  if (conn.rx.empty() && !conn.peer_closed) {
    TcpConn* cp = &conn;
    conn.wait_id = wheel_.Schedule(timeout, [cp] {
      cp->wait_id = TimerWheel::kNoTimer;
      cp->wait_timed_out = true;
      cp->readable.Signal();
    });
    while (conn.rx.empty() && !conn.peer_closed && !conn.wait_timed_out) {
      co_await conn.readable.Wait();
    }
    if (conn.wait_id != TimerWheel::kNoTimer) {
      wheel_.Cancel(conn.wait_id);
      conn.wait_id = TimerWheel::kNoTimer;
    }
  }
  co_return !conn.rx.empty() || conn.peer_closed || !conn.wait_timed_out;
}

NetStack::Listener& NetStack::TcpListen(std::uint16_t port) {
  auto [it, inserted] = listeners_.try_emplace(port, nullptr);
  if (inserted) {
    it->second = std::make_unique<Listener>(machine_.exec());
  }
  return *it->second;
}

Task<NetStack::TcpConn*> NetStack::TcpConnect(Ipv4Addr dst_ip, std::uint16_t dst_port,
                                              Cycles timeout) {
  std::uint16_t port = AllocEphemeralPort(dst_ip, dst_port);
  if (port == 0) {
    co_return nullptr;  // ephemeral range to this destination exhausted
  }
  auto owned = std::make_unique<TcpConn>(machine_.exec());
  owned->remote_ip = dst_ip;
  owned->remote_port = dst_port;
  owned->local_port = port;
  owned->snd_nxt = 1000;  // deterministic ISN
  owned->snd_una = 1000;
  owned->state = TcpState::kSynSent;
  TcpConn* c = conns_.Insert(ConnKey(dst_ip, dst_port, port), std::move(owned));
  ++half_open_count_;
  PinGuard pin(this, c);
  if (timeout > 0) {
    c->lifecycle_id = wheel_.Schedule(timeout, [this, c] {
      c->lifecycle_id = TimerWheel::kNoTimer;
      if (c->state != TcpState::kSynSent) {
        return;
      }
      // Handshake abandoned: sweep the entry so the 4-tuple is reusable.
      ++abandoned_swept_;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnTimeout, machine_.exec().now(), core_, 0,
          ConnKey(c->remote_ip, c->remote_port, c->local_port));
      CloseConn(*c, CloseCause::kConnectTimeout);
    });
  }
  co_await SendTcpSegment(*c, TcpFlags{.syn = true}, nullptr, 0);
  while (c->state == TcpState::kSynSent) {
    co_await c->readable.Wait();
  }
  if (c->state != TcpState::kEstablished) {
    // Timed out or reset before completion; the pin guard reaps on return.
    c->app_released = true;
    co_return nullptr;
  }
  co_return c;
}

Task<> NetStack::HandleTcp(const ParsedFrame& f, const Packet& frame) {
  const TcpHeader& tcp = *f.tcp;
  TcpConn* cp = conns_.Find(ConnKey(f.ip.src, tcp.src_port, tcp.dst_port));
  if (cp != nullptr) {
    co_await HandleTcpConn(f, frame, *cp);
    co_return;
  }
  auto lit = listeners_.find(tcp.dst_port);
  if (lit != listeners_.end() && tcp.flags.syn && !tcp.flags.ack && !tcp.flags.rst) {
    if (lifecycle_.max_half_open > 0 && half_open_count_ >= lifecycle_.max_half_open) {
      // Half-open table full: answer statelessly with a SYN-cookie ISN. A
      // legitimate client's ACK reconstructs the connection below; a flood
      // source that never ACKs costs us nothing.
      std::uint32_t cookie = CookieFor(f.ip.src, tcp.src_port, tcp.dst_port);
      ++syn_cookies_sent_;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnCookieSent, machine_.exec().now(), core_, cookie,
          ConnKey(f.ip.src, tcp.src_port, tcp.dst_port));
      co_await SendStatelessSegment(f.ip.src, tcp.dst_port, tcp.src_port,
                                    cookie, tcp.seq + 1,
                                    TcpFlags{.syn = true, .ack = true});
      co_return;
    }
    // True 3-way handshake: park the connection half-open; accept completes
    // only on the client's ACK.
    auto owned = std::make_unique<TcpConn>(machine_.exec());
    owned->remote_ip = f.ip.src;
    owned->remote_port = tcp.src_port;
    owned->local_port = tcp.dst_port;
    owned->rcv_nxt = tcp.seq + 1;
    owned->snd_nxt = 5000;  // deterministic ISN
    owned->snd_una = 5000;
    owned->state = TcpState::kSynRcvd;
    TcpConn* c =
        conns_.Insert(ConnKey(f.ip.src, tcp.src_port, tcp.dst_port), std::move(owned));
    ++half_open_count_;
    trace::Emit<trace::Category::kConn>(
        trace::EventId::kConnSynRcvd, machine_.exec().now(), core_,
        ConnKey(f.ip.src, tcp.src_port, tcp.dst_port));
    c->lifecycle_id = wheel_.Schedule(lifecycle_.syn_rcvd_timeout, [this, c] {
      c->lifecycle_id = TimerWheel::kNoTimer;
      if (c->state != TcpState::kSynRcvd) {
        return;
      }
      ++half_open_evicted_;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnEvict, machine_.exec().now(), core_, 0,
          ConnKey(c->remote_ip, c->remote_port, c->local_port));
      c->app_released = true;  // never reached the application
      CloseConn(*c, CloseCause::kHalfOpenExpiry);
    });
    PinGuard pin(this, c);
    co_await SendTcpSegment(*c, TcpFlags{.syn = true, .ack = true}, nullptr, 0);
    co_return;
  }
  if (lit != listeners_.end() && lifecycle_.max_half_open > 0 &&
      tcp.flags.ack && !tcp.flags.syn && !tcp.flags.rst && !tcp.flags.fin) {
    std::uint32_t cookie = CookieFor(f.ip.src, tcp.src_port, tcp.dst_port);
    if (tcp.ack == cookie + 1) {
      // Stateless handshake completion: the ACK proves the peer saw our
      // cookie SYN-ACK; rebuild the connection it encodes.
      auto owned = std::make_unique<TcpConn>(machine_.exec());
      owned->remote_ip = f.ip.src;
      owned->remote_port = tcp.src_port;
      owned->local_port = tcp.dst_port;
      owned->rcv_nxt = tcp.seq;
      owned->snd_nxt = tcp.ack;
      owned->snd_una = tcp.ack;
      owned->state = TcpState::kEstablished;
      owned->established = true;
      TcpConn* c =
          conns_.Insert(ConnKey(f.ip.src, tcp.src_port, tcp.dst_port), std::move(owned));
      ++established_count_;
      if (established_count_ > peak_established_) {
        peak_established_ = established_count_;
      }
      ++syn_cookie_accepts_;
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnCookieAccept, machine_.exec().now(), core_,
          cookie, ConnKey(f.ip.src, tcp.src_port, tcp.dst_port));
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnEstablished, machine_.exec().now(), core_,
          ConnKey(f.ip.src, tcp.src_port, tcp.dst_port), 1);
      lit->second->accepted.push_back(c);
      lit->second->ready.Signal();
      // The ACK may already carry request bytes; run it through the
      // established-path handler so they are buffered and acked.
      co_await HandleTcpConn(f, frame, *c);
      co_return;
    }
    ++syn_cookie_rejects_;
  }
  // Unknown flow: reset it. Cleanly-closed connections are erased from the
  // table, so a late segment deserves to learn the flow is gone; a mid-flow
  // segment re-steered here from a dead shard tells its client to retry with
  // a fresh SYN that this stack's listener accepts (flow adoption).
  if (!tcp.flags.rst) {
    co_await SendRstForSegment(f);
  }
  ++drops_no_listener_;
}

Task<> NetStack::HandleTcpConn(const ParsedFrame& f, const Packet& frame,
                               TcpConn& c) {
  PinGuard pin(this, &c);
  const TcpHeader& tcp = *f.tcp;
  if (tcp.flags.rst) {
    ++tcp_rsts_received_;
    CloseConn(c, CloseCause::kReset);
    co_return;
  }
  if (c.state == TcpState::kClosed) {
    co_return;  // late segment for a connection awaiting reap
  }
  // Retransmitted SYN for a half-open connection: the SYN-ACK was lost.
  // Re-send it verbatim (half-open connections arm no retransmit timer).
  if (c.state == TcpState::kSynRcvd && tcp.flags.syn && !tcp.flags.ack) {
    co_await SendTcpRaw(c, c.snd_una, TcpFlags{.syn = true, .ack = true},
                        nullptr, 0);
    co_return;
  }
  // Client side: the SYN-ACK completes our active open.
  if (c.state == TcpState::kSynSent) {
    if (tcp.flags.syn && tcp.flags.ack && tcp.ack == c.snd_nxt) {
      c.rcv_nxt = tcp.seq + 1;
      c.snd_una = tcp.ack;
      c.unacked.clear();
      if (c.retx_id != TimerWheel::kNoTimer) {
        wheel_.Cancel(c.retx_id);
        c.retx_id = TimerWheel::kNoTimer;
      }
      if (c.lifecycle_id != TimerWheel::kNoTimer) {  // connect deadline
        wheel_.Cancel(c.lifecycle_id);
        c.lifecycle_id = TimerWheel::kNoTimer;
      }
      LeaveState(c);
      c.state = TcpState::kEstablished;
      c.established = true;
      ++established_count_;
      if (established_count_ > peak_established_) {
        peak_established_ = established_count_;
      }
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnEstablished, machine_.exec().now(), core_,
          ConnKey(c.remote_ip, c.remote_port, c.local_port), 0);
      co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
      c.readable.Signal();
    }
    co_return;
  }
  // ACK processing: advance snd_una, retire acknowledged segments, settle
  // the retransmit timer and any in-flight FIN of ours.
  if (tcp.flags.ack) {
    if (SeqLt(c.snd_una, tcp.ack) && SeqLe(tcp.ack, c.snd_nxt)) {
      c.snd_una = tcp.ack;
      c.dup_acks = 0;
      while (!c.unacked.empty() &&
             SeqLe(c.unacked.front().seq + c.unacked.front().seq_len, c.snd_una)) {
        c.unacked.pop_front();
      }
      if (c.unacked.empty() && c.retx_id != TimerWheel::kNoTimer) {
        wheel_.Cancel(c.retx_id);
        c.retx_id = TimerWheel::kNoTimer;
        c.retx_tries = 0;
      }
    } else if (tcp.ack == c.snd_una && !c.unacked.empty() && f.payload_len == 0 &&
               !tcp.flags.syn && !tcp.flags.fin) {
      ++c.dup_acks;
    }
    if (c.state == TcpState::kSynRcvd && c.snd_una == c.snd_nxt) {
      // The client's ACK covers our SYN-ACK: promote the half-open
      // connection and complete the accept.
      if (c.lifecycle_id != TimerWheel::kNoTimer) {  // SYN_RCVD expiry
        wheel_.Cancel(c.lifecycle_id);
        c.lifecycle_id = TimerWheel::kNoTimer;
      }
      LeaveState(c);
      c.state = TcpState::kEstablished;
      c.established = true;
      ++established_count_;
      if (established_count_ > peak_established_) {
        peak_established_ = established_count_;
      }
      trace::Emit<trace::Category::kConn>(
          trace::EventId::kConnEstablished, machine_.exec().now(), core_,
          ConnKey(c.remote_ip, c.remote_port, c.local_port), 0);
      auto lit = listeners_.find(c.local_port);
      if (lit != listeners_.end()) {
        lit->second->accepted.push_back(&c);
        lit->second->ready.Signal();
      }
    }
    if (c.fin_sent && SeqLt(c.fin_seq, c.snd_una)) {
      // Our FIN is acknowledged.
      switch (c.state) {
        case TcpState::kFinWait1:
          c.state = TcpState::kFinWait2;
          break;
        case TcpState::kClosing:
          EnterTimeWait(c);
          break;
        case TcpState::kLastAck:
          CloseConn(c, CloseCause::kPassiveFin);
          co_return;
        default:
          break;
      }
    }
  }
  bool advanced = false;
  if (f.payload_len > 0 && tcp.seq == c.rcv_nxt) {
    c.rx.append(frame.data() + f.payload_offset, f.payload_len);
    c.rcv_nxt += static_cast<std::uint32_t>(f.payload_len);
    advanced = true;
  }
  // In-order FIN (rcv_nxt was already advanced past any payload above).
  if (tcp.flags.fin &&
      tcp.seq + static_cast<std::uint32_t>(f.payload_len) == c.rcv_nxt) {
    c.rcv_nxt += 1;
    c.peer_closed = true;
    advanced = true;
    c.closed_ev.Signal();
    switch (c.state) {
      case TcpState::kEstablished:
        LeaveState(c);
        c.state = TcpState::kCloseWait;
        break;
      case TcpState::kFinWait1:
        c.state = TcpState::kClosing;  // simultaneous close
        break;
      case TcpState::kFinWait2:
        EnterTimeWait(c);
        break;
      default:
        break;
    }
  }
  if (advanced) {
    co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
    c.readable.Signal();
    co_return;
  }
  // Out-of-order or duplicate sequence-consuming segment (including a peer's
  // retransmitted FIN while we sit in TIME_WAIT): re-announce rcv_nxt so the
  // peer's go-back-N converges.
  if (f.payload_len > 0 || tcp.flags.syn || tcp.flags.fin) {
    co_await SendTcpSegment(c, TcpFlags{.ack = true}, nullptr, 0);
  }
}

Task<> NetStack::SendRstForSegment(const ParsedFrame& f) {
  const TcpHeader& tcp = *f.tcp;
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(f.ip.src);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = f.ip.src;
  ip.ident = ip_ident_++;
  TcpHeader rst;
  rst.src_port = tcp.dst_port;
  rst.dst_port = tcp.src_port;
  rst.seq = tcp.flags.ack ? tcp.ack : 0;
  rst.ack = tcp.seq + static_cast<std::uint32_t>(f.payload_len) +
            (tcp.flags.syn ? 1 : 0) + (tcp.flags.fin ? 1 : 0);
  rst.flags = TcpFlags{.ack = true, .rst = true};
  ++tcp_rsts_sent_;
  co_await Emit(BuildTcpFrame(eth, ip, rst, nullptr, 0), 0);
}

Task<> NetStack::SendStatelessSegment(Ipv4Addr dst_ip, std::uint16_t src_port,
                                      std::uint16_t dst_port, std::uint32_t seq,
                                      std::uint32_t ack, TcpFlags flags) {
  EthHeader eth;
  eth.src = mac_;
  eth.dst = ResolveMac(dst_ip);
  IpHeader ip;
  ip.src = ip_;
  ip.dst = dst_ip;
  ip.ident = ip_ident_++;
  TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  co_await Emit(BuildTcpFrame(eth, ip, tcp, nullptr, 0), 0);
}

Task<> NetStack::TcpSend(TcpConn& conn, const std::uint8_t* data, std::size_t len) {
  constexpr std::size_t kMss = kMtu - kIpHeaderBytes - kTcpHeaderBytes;
  std::size_t off = 0;
  while (off < len) {
    std::size_t seg = std::min(kMss, len - off);
    co_await SendTcpSegment(conn, TcpFlags{.ack = true}, data + off, seg);
    off += seg;
  }
}

Task<> NetStack::TcpSend(TcpConn& conn, const std::string& data) {
  co_await TcpSend(conn, reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

Task<> NetStack::TcpClose(TcpConn& conn) {
  // Full FIN/ACK close handshake. Active close walks FIN_WAIT_1 → FIN_WAIT_2
  // → TIME_WAIT; closing after the peer's FIN walks CLOSE_WAIT → LAST_ACK →
  // CLOSED.
  if (conn.state == TcpState::kEstablished) {
    LeaveState(conn);
    conn.state = TcpState::kFinWait1;
  } else if (conn.state == TcpState::kCloseWait) {
    conn.state = TcpState::kLastAck;
  } else {
    co_return;  // half-open, already closing, or closed: nothing to send
  }
  conn.fin_sent = true;
  conn.fin_seq = conn.snd_nxt;
  co_await SendTcpSegment(conn, TcpFlags{.ack = true, .fin = true}, nullptr, 0);
}

}  // namespace mk::net
