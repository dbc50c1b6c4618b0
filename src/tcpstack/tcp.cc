#include "tcpstack/tcp.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "net/fault.h"

namespace sv::tcpstack {
namespace {

// Delayed-ACK flush timeout (Linux-era default ~40 ms is far above any
// latency this paper studies; 200 us keeps it visible but realistic for a
// LAN benchmark kernel).
constexpr SimTime kDelayedAckTimeout = SimTime::microseconds(200);

// RTO ceiling for the exponential backoff (doubles per expiry).
constexpr SimTime kRtoMax = SimTime::milliseconds(64);

}  // namespace

TcpConnection::TcpConnection(TcpStack* stack, std::string name,
                             TcpOptions options)
    : stack_(stack),
      name_(std::move(name)),
      options_(options),
      rto_current_(kRtoInitial),
      send_space_(&stack->sim(), name_ + ".sndbuf"),
      tx_wake_(&stack->sim(), name_ + ".txwake"),
      recv_wait_(&stack->sim(), name_ + ".rcvwait") {
  obs::Registry& reg = stack_->sim().obs().registry;
  // Endpoint names can repeat across independent connect() calls; a
  // creation serial keeps the metric family unique per endpoint (creation
  // order is deterministic, so names are stable per seed).
  auto& serial = reg.counter("tcpstack.connections");
  serial.inc();
  const std::string cl =
      "{conn=" + name_ + "#" + std::to_string(serial.value()) + "}";
  c_bytes_sent_ = &reg.counter("tcpstack.bytes_sent" + cl);
  c_bytes_received_ = &reg.counter("tcpstack.bytes_received" + cl);
  c_segments_sent_ = &reg.counter("tcpstack.segments_sent" + cl);
  c_acks_sent_ = &reg.counter("tcpstack.acks_sent" + cl);
  c_retx_ = &reg.counter("tcpstack.segments_retransmitted" + cl);
  c_rto_expirations_ = &reg.counter("tcpstack.rto_expirations" + cl);
  c_fast_retx_ = &reg.counter("tcpstack.fast_retransmits" + cl);
  c_dup_acks_ = &reg.counter("tcpstack.dup_acks_received" + cl);
  c_ooo_ = &reg.counter("tcpstack.ooo_segments_received" + cl);
}

void TcpConnection::bind_link_obs() {
  const std::string ll = "{link=" + std::to_string(stack_->node().id()) +
                         "->" + std::to_string(peer_->stack_->node().id()) +
                         "}";
  c_retx_link_ =
      &stack_->sim().obs().registry.counter("tcpstack.segments_retransmitted" +
                                            ll);
}

obs::Tracer& TcpConnection::tracer() const {
  return stack_->sim().obs().tracer;
}

int TcpConnection::node_id() const { return stack_->node().id(); }

net::Node& TcpConnection::peer_node() const { return peer_->stack_->node(); }

std::uint64_t TcpConnection::peer_window_available() const {
  const std::uint64_t used = peer_->recv_buf_bytes_ + inflight_bytes_;
  if (used >= options_.recv_buffer) return 0;
  return options_.recv_buffer - used;
}

void TcpConnection::send(std::uint64_t bytes) {
  // Timing-only stream: a virtual payload flows through the exact same
  // segmentation/reassembly machinery as materialized bytes.
  (void)send_until(mem::Payload::virtual_bytes(bytes), SimTime::max());
}

Result<void> TcpConnection::send_until(mem::Payload payload,
                                       SimTime deadline) {
  if (fin_queued_) {
    throw std::logic_error("TcpConnection[" + name_ + "]::send after close");
  }
  // Syscall entry, then copy into the socket buffer incrementally as ACKs
  // free space — like the kernel, so large writes overlap with transmission
  // instead of degenerating to stop-and-wait.
  stack_->node().tx_host().use(stack_->profile().send_fixed);
  // Copy in bounded quanta so transmission of early bytes overlaps the
  // copying of later ones (as the kernel's skb-at-a-time copy does). The
  // buffered quantum is a zero-copy slice; the user→kernel copy *time* is
  // the send_per_byte charge below, and the copy *event* is counted once
  // per message by the socket layer (mem/ledger.h).
  const std::uint64_t quantum = std::uint64_t{2} * options_.mss;
  const std::uint64_t bytes = payload.size();
  std::uint64_t offset = 0;
  while (offset < bytes) {
    std::uint64_t used = unsent_bytes_ + inflight_bytes_;
    while (used >= options_.send_buffer) {
      const bool woken = send_space_.wait_until(deadline);
      used = unsent_bytes_ + inflight_bytes_;
      if (!woken && used >= options_.send_buffer) {
        return Error::timeout("TcpConnection[" + name_ +
                              "]: send timed out with a full socket buffer "
                              "(peer not ACKing)");
      }
    }
    const std::uint64_t take =
        std::min({bytes - offset, options_.send_buffer - used, quantum});
    stack_->node().tx_host().use(
        stack_->profile().send_per_byte.for_bytes(take));
    unsent_stream_.push(payload.slice(offset, take));
    unsent_bytes_ += take;
    c_bytes_sent_->inc(take);
    offset += take;
    tx_wake_.notify_all();
    // Yield so the tx stage can interleave segment transmission with the
    // next copy quantum on the shared host path.
    stack_->sim().delay(SimTime::zero());
  }
  return Result<void>::success();
}

void TcpConnection::close() {
  fin_queued_ = true;
  tx_wake_.notify_all();
}

std::uint64_t TcpConnection::recv(std::uint64_t max) {
  if (max == 0) return 0;
  while (recv_buf_bytes_ == 0 && !fin_received_) {
    recv_wait_.wait();
  }
  if (recv_buf_bytes_ == 0) return 0;  // clean end-of-stream
  // Syscall cost charged once data is deliverable.
  stack_->sim().delay(stack_->profile().recv_fixed);
  const std::uint64_t take = std::min(max, recv_buf_bytes_);
  (void)recv_stream_.pop(take);  // byte-count caller: discard the views
  recv_buf_bytes_ -= take;
  // Window opened: the peer's tx stage may resume.
  peer_->tx_wake_.notify_all();
  return take;
}

std::uint64_t TcpConnection::recv_exact(std::uint64_t n) {
  return recv_exact_task(n, SimTime::max(), nullptr).run_in_place().value();
}

Result<mem::Payload> TcpConnection::recv_exact_until(std::uint64_t n,
                                                     SimTime deadline) {
  mem::Payload out;
  auto r = recv_exact_task(n, deadline, &out).run_in_place();
  if (!r.ok()) return r.error();
  return out;
}

sim::Task<Result<std::uint64_t>> TcpConnection::recv_exact_task(
    std::uint64_t n, SimTime deadline, mem::Payload* out) {
  if (n == 0) co_return std::uint64_t{0};
  // One MSG_WAITALL syscall: a single fixed cost, then drain until n bytes.
  bool charged = false;
  std::uint64_t total = 0;
  while (total < n) {
    while (recv_buf_bytes_ == 0 && !fin_received_) {
      if (!co_await recv_wait_.wait_until_stage(deadline) &&
          recv_buf_bytes_ == 0 && !fin_received_) {
        co_return Error::timeout("TcpConnection[" + name_ +
                                 "]: recv timed out at " +
                                 deadline.to_string());
      }
    }
    if (recv_buf_bytes_ == 0) break;  // EOF before n bytes
    if (!charged) {
      co_await stack_->sim().sleep(stack_->profile().recv_fixed);
      charged = true;
    }
    const std::uint64_t take = std::min(n - total, recv_buf_bytes_);
    mem::Payload part = recv_stream_.pop(take);
    if (out != nullptr) *out = out->concat(part);
    recv_buf_bytes_ -= take;
    total += take;
    peer_->tx_wake_.notify_all();
  }
  co_return total;
}

sim::Stage TcpConnection::tx_stage() {
  sim::Simulation& sim = stack_->sim();
  sim::Resource& tx_host = stack_->node().tx_host();
  const SimTime send_per_seg = stack_->profile().send_per_seg;
  const std::uint64_t mss = options_.mss;
  while (true) {
    Segment seg;
    // Loss recovery has priority over new data: the RTO handler and fast
    // retransmit run in event context, where transmission cannot wait for
    // tx_host, so they hand the actual re-send to this stage.
    if (std::exchange(retx_pending_, false) && !unacked_.empty()) {
      seg = retransmit_front();
    } else if (unsent_bytes_ == 0) {
      if (fin_queued_ && !fin_sent_) {
        seg = send_segment(0, true);  // pure FIN
      } else if (fin_sent_ && unacked_.empty()) {
        co_return;  // everything delivered+ACKed
      } else {
        co_await tx_wake_.wait_stage();
        continue;
      }
    } else {
      const std::uint64_t window = peer_window_available();
      if (window == 0) {
        co_await tx_wake_.wait_stage();
        continue;
      }
      const std::uint64_t bytes = std::min({mss, unsent_bytes_, window});
      // Nagle: hold back a sub-MSS segment while data is in flight, unless
      // this flushes the stream (close pending with nothing more coming).
      if (options_.nagle && bytes < mss && bytes == unsent_bytes_ &&
          inflight_bytes_ > 0 && !fin_queued_) {
        co_await tx_wake_.wait_stage();
        continue;
      }
      unsent_bytes_ -= bytes;
      seg = send_segment(bytes, fin_queued_ && unsent_bytes_ == 0);
    }
    // Per-segment kernel TX work (header build, checksum, queueing), then
    // the wire; the RTO runs from the moment the segment leaves.
    co_await tx_host.acquire_stage();
    co_await sim.sleep(send_per_seg);
    tx_host.release();
    stack_->wire_out_.send(std::move(seg));
    arm_rto();
  }
}

Segment TcpConnection::send_segment(std::uint64_t bytes, bool fin) {
  const std::uint64_t seq = snd_nxt_;
  snd_nxt_ += bytes + (fin ? 1 : 0);  // FIN occupies one sequence number
  inflight_bytes_ += bytes;
  // Slice this segment's bytes off the unsent stream by reference; the
  // retransmit buffer holds the same views (no copy, ever).
  mem::Payload seg_payload;
  if (bytes > 0) {
    SV_DCHECK(unsent_stream_.bytes() >= bytes,
              "unsent stream out of sync with unsent_bytes_");
    seg_payload = unsent_stream_.pop(bytes);
  }
  unacked_.push_back(UnackedSegment{seq, HeldSegment{bytes, fin, seg_payload}});
  c_segments_sent_->inc();
  if (fin) {
    fin_sent_ = true;
    tracer().instant(stack_->sim().now(), node_id(), "tcp", "fin_sent", seq);
  }
  // Piggyback any pending ACK for the reverse direction on this data
  // segment (standard TCP behaviour; prevents the Nagle/delayed-ACK
  // stall in request-response traffic).
  bool has_ack = false;
  if (unacked_segments_ > 0) {
    has_ack = true;
    c_acks_sent_->inc();
    unacked_segments_ = 0;
  }
  return Segment{this, seq, bytes, rcv_nxt_, has_ack, fin,
                 std::move(seg_payload)};
}

Segment TcpConnection::retransmit_front() {
  const UnackedSegment& front = unacked_.front();
  SV_DCHECK(front.seq == snd_una_,
            "earliest unacked segment must start at snd_una");
  const HeldSegment& held = front.held;
  c_retx_->inc();
  if (c_retx_link_ != nullptr) c_retx_link_->inc();
  tracer().instant(stack_->sim().now(), node_id(), "tcp", "retx", held.bytes);
  return Segment{this, front.seq, held.bytes, rcv_nxt_, false, held.fin,
                 held.payload};
}

void TcpConnection::arm_rto() {
  if (rto_armed_ || unacked_.empty()) return;
  rto_armed_ = true;
  rto_event_ =
      stack_->sim().schedule(rto_current_, [this] { on_rto_expiry(); });
}

void TcpConnection::cancel_rto() {
  if (!rto_armed_) return;
  rto_armed_ = false;
  stack_->sim().cancel(rto_event_);
}

void TcpConnection::on_rto_expiry() {
  rto_armed_ = false;
  if (unacked_.empty()) return;  // ACK landed at the same instant
  c_rto_expirations_->inc();
  tracer().instant(stack_->sim().now(), node_id(), "tcp", "rto_expiry",
                   static_cast<std::uint64_t>(rto_current_.ns()));
  if (!in_recovery_episode_) {
    in_recovery_episode_ = true;
    recovery_started_ = stack_->sim().now();
  }
  rto_current_ = std::min(rto_current_ * 2, kRtoMax);
  retx_pending_ = true;
  tx_wake_.notify_all();
}

void TcpConnection::on_segment(std::uint64_t seq, std::uint64_t bytes,
                               bool fin, mem::Payload payload) {
  const std::uint64_t seg_end = seq + bytes + (fin ? 1 : 0);
  if (seg_end <= rcv_nxt_) {
    // Spurious retransmission of fully-received data: re-ACK so the sender
    // can advance.
    send_ack_now();
    return;
  }
  if (seq > rcv_nxt_) {
    // A gap: hold for reassembly and emit an immediate duplicate ACK (the
    // signal fast retransmit counts). Fixed segment boundaries make the
    // map key collision-free; re-inserts of the same segment are no-ops.
    ooo_segments_.emplace(seq, HeldSegment{bytes, fin, std::move(payload)});
    c_ooo_->inc();
    send_ack_now();
    return;
  }
  SV_DCHECK(seq == rcv_nxt_, "partial segment overlap is impossible with "
                             "fixed retransmit boundaries");
  accept_segment(bytes, fin, std::move(payload));
  // Drain the reassembly queue now contiguous with rcv_nxt.
  while (!ooo_segments_.empty()) {
    const auto it = ooo_segments_.begin();
    if (it->first > rcv_nxt_) break;
    if (it->first == rcv_nxt_) {
      accept_segment(it->second.bytes, it->second.fin,
                     std::move(it->second.payload));
    }
    ooo_segments_.erase(it);
  }
  recv_wait_.notify_all();
  maybe_ack();
}

void TcpConnection::accept_segment(std::uint64_t bytes, bool fin,
                                   mem::Payload payload) {
  SV_DCHECK(payload.size() == bytes, "segment payload/byte-count mismatch");
  rcv_nxt_ += bytes + (fin ? 1 : 0);
  recv_buf_bytes_ += bytes;
  recv_stream_.push(std::move(payload));
  c_bytes_received_->inc(bytes);
  if (fin) {
    fin_received_ = true;
    tracer().instant(stack_->sim().now(), node_id(), "tcp", "fin_received",
                     rcv_nxt_);
  }
  ++unacked_segments_;
}

void TcpConnection::maybe_ack() {
  if (!options_.delayed_ack || unacked_segments_ >= 2 || fin_received_) {
    send_ack_now();
    return;
  }
  if (!ack_timer_armed_) {
    ack_timer_armed_ = true;
    stack_->sim().schedule(kDelayedAckTimeout, [this] {
      ack_timer_armed_ = false;
      if (unacked_segments_ > 0) send_ack_now();
    });
  }
}

void TcpConnection::send_ack_now() {
  // Pure ACKs bypass the socket buffer; enqueue straight to the wire (the
  // kernel generates them in interrupt context). wire_out_ is unbounded, so
  // this never blocks: it is safe from the receive stage and from the
  // delayed-ACK timer's event.
  stack_->wire_out_.send(Segment{this, 0, 0, rcv_nxt_, true, false});
  c_acks_sent_->inc();
  unacked_segments_ = 0;
}

void TcpConnection::on_ack(std::uint64_t ackno, bool pure) {
  if (ackno > snd_una_) {
    // Forward progress: retire fully-covered segments, reset the dup-ACK
    // count and the RTO backoff, and restart the timer for what remains.
    snd_una_ = ackno;
    while (!unacked_.empty()) {
      const UnackedSegment& front = unacked_.front();
      const HeldSegment& held = front.held;
      if (front.seq + held.bytes + (held.fin ? 1 : 0) > ackno) break;
      inflight_bytes_ -= held.bytes;
      unacked_.pop_front();
    }
    dup_acks_ = 0;
    if (in_recovery_ && ackno >= recover_seq_) in_recovery_ = false;
    if (in_recovery_episode_ && !in_recovery_) {
      // Forward progress with fast recovery (if any) complete: the episode
      // that began at the first loss signal is over.
      in_recovery_episode_ = false;
      tracer().span(recovery_started_, stack_->sim().now(), node_id(), "tcp",
                    "recovery", ackno);
    }
    cancel_rto();
    rto_current_ = kRtoInitial;
    arm_rto();  // no-op when everything is acknowledged
    send_space_.notify_all();
    tx_wake_.notify_all();
    return;
  }
  if (pure && ackno == snd_una_ && !unacked_.empty()) {
    c_dup_acks_->inc();
    if (++dup_acks_ == 3) {
      // Fast retransmit: three duplicate ACKs imply the next segment was
      // lost while later ones arrived; re-send without waiting for the RTO.
      // While in recovery, later dup ACKs for the same hole are ignored —
      // they are echoes of segments already in flight, not new losses.
      dup_acks_ = 0;
      if (!in_recovery_) {
        in_recovery_ = true;
        recover_seq_ = snd_nxt_;
        c_fast_retx_->inc();
        tracer().instant(stack_->sim().now(), node_id(), "tcp", "fast_retx",
                         ackno);
        if (!in_recovery_episode_) {
          in_recovery_episode_ = true;
          recovery_started_ = stack_->sim().now();
        }
        retx_pending_ = true;
        tx_wake_.notify_all();
      }
    }
  }
}

TcpStack::TcpStack(sim::Simulation* sim, net::Node* node,
                   net::CalibrationProfile profile)
    : sim_(sim),
      node_(node),
      profile_(std::move(profile)),
      model_(profile_),
      wire_out_(sim, 0, node->name() + ".tcp_wire"),
      rx_queue_(sim, 0, node->name() + ".tcp_rx") {
  sim_->start(wire_stage());
  sim_->start(rx_stage());
}

TcpStack::~TcpStack() {
  wire_out_.close();
  rx_queue_.close();
}

sim::Stage TcpStack::wire_stage() {
  while (true) {
    while (wire_out_.empty() && !wire_out_.closed()) {
      co_await wire_out_.readable();
    }
    std::optional<Segment> seg = wire_out_.try_recv();
    if (!seg) co_return;  // closed and drained
    TcpStack* dest = seg->sender->peer_->stack_;
    // Data segments occupy the inbound link for payload + headers; pure
    // ACKs cost one header's worth.
    sim::Resource& link_in = dest->node_->link_in();
    co_await link_in.acquire_stage();
    co_await sim_->sleep(model_.wire_time(seg->bytes));
    link_in.release();
    SimTime extra = SimTime::zero();
    if (net::FaultInjector* inj = node_->fault_injector()) {
      const net::FaultDecision d =
          inj->on_frame(node_->id(), dest->node_->id());
      if (d.drop) continue;  // lost on the wire: TCP recovery takes over
      extra = d.extra_delay;
    }
    auto shared = std::make_shared<Segment>(std::move(*seg));
    sim_->schedule(profile_.propagation + extra, [dest, shared] {
      dest->rx_queue_.send(std::move(*shared));
    });
  }
}

sim::Stage TcpStack::rx_stage() {
  sim::Resource& rx_proto = node_->rx_proto();
  while (true) {
    while (rx_queue_.empty() && !rx_queue_.closed()) {
      co_await rx_queue_.readable();
    }
    std::optional<Segment> seg = rx_queue_.try_recv();
    if (!seg) co_return;  // closed and drained
    TcpConnection* receiver = seg->sender->peer_;
    if (seg->bytes > 0 || seg->fin) {
      // Interrupt + TCP/IP input + checksum + copy to the socket buffer.
      co_await rx_proto.acquire_stage();
      co_await sim_->sleep(profile_.recv_per_seg +
                           profile_.recv_per_byte.for_bytes(seg->bytes));
      rx_proto.release();
      receiver->on_segment(seg->seq, seg->bytes, seg->fin,
                           std::move(seg->payload));
    }
    if (seg->has_ack) {
      // ACK processing is cheap but not free.
      co_await rx_proto.acquire_stage();
      co_await sim_->sleep(SimTime::microseconds(1));
      rx_proto.release();
      receiver->on_ack(seg->ack, seg->bytes == 0 && !seg->fin);
    }
  }
}

std::pair<std::shared_ptr<TcpConnection>, std::shared_ptr<TcpConnection>>
TcpStack::connect(TcpStack& client, TcpStack& server, TcpOptions options) {
  // Three-way handshake: 1.5 RTT of small-message exchanges charged to the
  // connecting process.
  if (client.sim_->current() != nullptr) {
    client.sim_->delay(client.model_.one_way(0) * 3);
  }
  const auto id = client.next_conn_id_++;
  auto c = std::make_shared<TcpConnection>(
      &client, client.node_->name() + ".tcp" + std::to_string(id), options);
  auto s = std::make_shared<TcpConnection>(
      &server, server.node_->name() + ".tcp" + std::to_string(id), options);
  c->peer_ = s.get();
  s->peer_ = c.get();
  c->bind_link_obs();
  s->bind_link_obs();
  client.connections_.push_back(c);
  server.connections_.push_back(s);
  client.sim_->start(c->tx_stage());
  server.sim_->start(s->tx_stage());
  return {c, s};
}

}  // namespace sv::tcpstack
