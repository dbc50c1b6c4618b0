#include "net/fabric.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace sv::net {
namespace {

// Fast-fabric recovery pause charged per internal re-send of a lost frame
// (stands in for a transport-level retransmission round trip).
constexpr SimTime kRecoveryDelay = SimTime::microseconds(500);

}  // namespace

Pipe::State::State(sim::Simulation* sim_in, Node* src_in, Node* dst_in,
                   CalibrationProfile profile_in, std::string name_in)
    : sim(sim_in),
      src(src_in),
      dst(dst_in),
      profile(std::move(profile_in)),
      model(profile),
      name(std::move(name_in)),
      window_waiters(sim_in, name + ".window"),
      to_wire(sim_in, 0, name + ".wire_q"),
      to_proto(sim_in, 0, name + ".proto_q"),
      delivered(sim_in, 0, name + ".delivered_q") {
  topo = src->topology();
  if (topo != nullptr) {
    route = topo->route(src->id(), dst->id());
    fabric_latency = topo->path_latency(src->id(), dst->id());
  }
  obs::Registry& reg = sim->obs().registry;
  // Pipe names are caller-chosen and may repeat; a creation serial keeps
  // per-pipe metric names unique (creation order is deterministic).
  auto& serial = reg.counter("fabric.pipes");
  serial.inc();
  const std::string pl =
      "{pipe=" + name + "#" + std::to_string(serial.value()) + "}";
  const std::string ll = "{link=" + std::to_string(src->id()) + "->" +
                         std::to_string(dst->id()) + "}";
  c_msgs_sent = &reg.counter("fabric.messages_sent" + pl);
  c_bytes_sent = &reg.counter("fabric.bytes_sent" + pl);
  c_frames_retx = &reg.counter("fabric.frames_retransmitted" + pl);
  c_frames_retx_total = &reg.counter("fabric.frames_retransmitted");
  c_frames_link = &reg.counter("fabric.frames" + ll);
  c_frame_bytes_sent_link = &reg.counter("fabric.frame_bytes_sent" + ll);
  c_frame_bytes_recv_link = &reg.counter("fabric.frame_bytes_received" + ll);
  c_wire_ns_link = &reg.counter("fabric.wire_ns" + ll);
  g_in_flight_link = &reg.gauge("fabric.in_flight_bytes" + ll);
  c_msgs_recv_total = &reg.counter("fabric.messages_received");
  h_msg_latency = &reg.histogram("fabric.msg_latency_ns");
}

Pipe::Pipe(sim::Simulation* sim, Node* src, Node* dst,
           CalibrationProfile profile, std::string name)
    : st_(std::make_shared<State>(sim, src, dst, std::move(profile),
                                  std::move(name))) {
  sim->start(State::wire_stage(st_));
  sim->start(State::proto_stage(st_));
}

Pipe::~Pipe() {
  // Stop intake and wake any blocked receiver; the stage frames co-own the
  // state and wind down on their own. to_proto stays open so in-flight
  // propagation events can still land safely.
  st_->closed = true;
  st_->to_wire.close();
  st_->delivered.close();
}

SimTime Pipe::State::sender_frame_time(const Frame& f) const {
  SimTime t = profile.send_per_seg *
                  static_cast<std::int64_t>(model.segments(f.bytes)) +
              profile.send_per_byte.for_bytes(f.bytes);
  if (f.first) t += profile.send_fixed;  // per-message cost, once
  return t;
}

SimTime Pipe::State::recv_frame_time(const Frame& f) const {
  SimTime t = profile.recv_per_seg *
                  static_cast<std::int64_t>(model.segments(f.bytes)) +
              profile.recv_per_byte.for_bytes(f.bytes);
  if (f.last) t += profile.recv_fixed;  // delivery-to-application cost
  return t;
}

void Pipe::send(Message m) {
  // timeout <= 0 waits forever, so the result is always ok.
  (void)send_for(std::move(m), SimTime::zero());
}

Result<void> Pipe::send_for(Message m, SimTime timeout) {
  return send_task(std::move(m), timeout).run_in_place();
}

sim::Task<Result<void>> Pipe::send_task(Message m, SimTime timeout) {
  State& st = *st_;
  if (st.closed) {
    throw std::logic_error("Pipe[" + st.name + "]::send after close");
  }
  const SimTime deadline = st.sim->deadline_after(timeout);
  m.seq = st.next_seq++;
  m.sent_at = st.sim->now();
  st.c_msgs_sent->inc();
  st.c_bytes_sent->inc(m.bytes);

  sim::Resource& tx_host = st.src->tx_host();
  const std::uint64_t frame_cap =
      std::max<std::uint64_t>(1, st.profile.pipeline_frame_bytes);
  std::uint64_t remaining = m.bytes;
  bool first = true;
  while (true) {
    const std::uint64_t flen = std::min(remaining, frame_cap);
    remaining -= flen;
    const bool last = remaining == 0;
    // Flow control: block until this frame fits in the window (a frame is
    // always admitted when nothing is in flight, guaranteeing progress).
    const auto window_closed = [&] {
      return st.in_flight_bytes > 0 &&
             st.in_flight_bytes + flen > st.profile.window_bytes;
    };
    while (window_closed()) {
      if (!co_await st.window_waiters.wait_until_stage(deadline) &&
          window_closed()) {
        co_return Error::timeout("Pipe[" + st.name +
                                 "]: send timed out with the flow-control "
                                 "window closed (receiver stalled?)");
      }
    }
    st.in_flight_bytes += flen;
    st.g_in_flight_link->add(static_cast<std::int64_t>(flen));
    st.c_frames_link->inc();
    st.c_frame_bytes_sent_link->inc(flen);
    const Frame f{.bytes = flen, .first = first, .last = last};
    // Sender-host stage, serialized with other sends from this node.
    co_await tx_host.acquire_stage();
    co_await st.sim->sleep(st.sender_frame_time(f));
    tx_host.release();
    if (last) st.messages.push_back(std::move(m));
    st.to_wire.send(f);
    if (last) break;
    first = false;
  }
  co_return Result<void>::success();
}

void Pipe::close() {
  State& st = *st_;
  if (st.closed) return;
  st.closed = true;
  st.to_wire.send(Frame{.eof = true});
}

std::optional<Message> Pipe::recv() { return st_->delivered.recv(); }

sim::Task<Result<std::optional<Message>>> Pipe::recv_task(SimTime timeout) {
  return st_->delivered.recv_task(timeout);
}

sim::WaitQueue::Wait Pipe::readable() { return st_->delivered.readable(); }

std::optional<Message> Pipe::try_recv() { return st_->delivered.try_recv(); }

bool Pipe::drained() const {
  return st_->delivered.empty() && st_->delivered.closed();
}

const CostModel& Pipe::model() const { return st_->model; }

const std::string& Pipe::name() const { return st_->name; }

std::uint64_t Pipe::messages_sent() const {
  return st_->c_msgs_sent->value();
}

std::uint64_t Pipe::bytes_sent() const { return st_->c_bytes_sent->value(); }

std::uint64_t Pipe::frames_retransmitted() const {
  return st_->c_frames_retx->value();
}

sim::Stage Pipe::State::wire_stage(std::shared_ptr<State> self) {
  State& st = *self;
  sim::Simulation& sim = *st.sim;
  sim::Resource& link_in = st.dst->link_in();
  while (true) {
    while (st.to_wire.empty() && !st.to_wire.closed()) {
      co_await st.to_wire.readable();
    }
    std::optional<Frame> f = st.to_wire.try_recv();
    if (!f) co_return;
    const bool eof = f->eof;
    // Inbound link / DMA occupancy at the destination (EOF is free).
    if (!eof) {
      const SimTime wire_start = sim.now();
      FaultInjector* const inj = st.src->fault_injector();
      FaultDecision d;
      while (true) {
        // Cross the switch fabric first (queueing on shared uplinks), then
        // occupy the destination's inbound link / DMA path.
        for (std::uint32_t i = 0; i < st.route.hops; ++i) {
          const Topology::Link& l = st.topo->link(st.route.link[i]);
          const SimTime t0 = sim.now();
          co_await l.res->acquire_stage();
          const SimTime waited = sim.now() - t0;
          const SimTime hold = l.per_byte.for_bytes(f->bytes);
          if (hold > SimTime::zero()) co_await sim.sleep(hold);
          l.res->release();
          l.c_frames->inc();
          l.c_bytes->inc(f->bytes);
          l.c_busy_ns->inc(static_cast<std::uint64_t>(hold.ns()));
          l.c_wait_ns->inc(static_cast<std::uint64_t>(waited.ns()));
        }
        co_await link_in.acquire_stage();
        co_await sim.sleep(st.model.wire_time(f->bytes));
        link_in.release();
        if (inj == nullptr) break;
        d = inj->on_frame(st.src->id(), st.dst->id());
        if (!d.drop) break;
        // Lost on the wire. The fast fabric models the transport *after*
        // recovery, so charge the recovery pause plus a full re-crossing
        // and keep delivery reliable and in-order.
        st.c_frames_retx->inc();
        st.c_frames_retx_total->inc();
        sim.obs().tracer.instant(sim.now(), st.dst->id(), "fabric", "retx",
                                 f->bytes);
        co_await sim.sleep(kRecoveryDelay);
      }
      // Jitter is occupancy on this stage (not added propagation) so
      // frames cannot reorder; the pipe's in-order contract holds.
      if (d.extra_delay > SimTime::zero()) co_await sim.sleep(d.extra_delay);
      const SimTime wire_end = sim.now();
      st.c_wire_ns_link->inc(static_cast<std::uint64_t>(
          (wire_end - wire_start).ns()));
      sim.obs().tracer.span(wire_start, wire_end, st.dst->id(), "fabric",
                            "wire", f->bytes);
    }
    // Propagation is latency, not occupancy: hand off without blocking this
    // stage so back-to-back frames overlap their flight time. EOF takes the
    // same path so it cannot overtake the final data frame. The delay is
    // fixed per pipe, so arrivals fire in push order and each takes the
    // oldest frame in flight. to_proto is unbounded, so the event-context
    // send cannot block. The event co-owns the state (safe across Pipe
    // destruction).
    st.propagating.push_back(std::move(*f));
    sim.schedule(st.profile.propagation + st.fabric_latency, [self] {
      self->to_proto.send(std::move(self->propagating.front()));
      self->propagating.pop_front();
    });
    if (eof) co_return;
  }
}

sim::Stage Pipe::State::proto_stage(std::shared_ptr<State> self) {
  State& st = *self;
  sim::Simulation& sim = *st.sim;
  sim::Resource& rx_proto = st.dst->rx_proto();
  while (true) {
    while (st.to_proto.empty() && !st.to_proto.closed()) {
      co_await st.to_proto.readable();
    }
    std::optional<Frame> f = st.to_proto.try_recv();
    if (!f) co_return;
    if (f->eof) {
      if (!st.delivered.closed()) st.delivered.close();
      co_return;
    }
    // Receiver-side protocol processing (the kernel-TCP bottleneck).
    const SimTime rx_start = sim.now();
    co_await rx_proto.acquire_stage();
    co_await sim.sleep(st.recv_frame_time(*f));
    rx_proto.release();
    sim.obs().tracer.span(rx_start, sim.now(), st.dst->id(), "fabric",
                          "rx_proto", f->bytes);
    st.c_frame_bytes_recv_link->inc(f->bytes);
    // Return window credit.
    st.in_flight_bytes -= f->bytes;
    st.g_in_flight_link->add(-static_cast<std::int64_t>(f->bytes));
    st.window_waiters.notify_all();
    if (f->last) {
      Message& m = st.messages.front();
      m.delivered_at = sim.now();
      st.c_msgs_recv_total->inc();
      st.h_msg_latency->observe((m.delivered_at - m.sent_at).ns());
      // delivered is unbounded, so this send never blocks the stage.
      if (!st.delivered.closed()) st.delivered.send(std::move(m));
      st.messages.pop_front();
    }
  }
}

}  // namespace sv::net
