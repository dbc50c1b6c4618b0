#include "sockets/via_socket.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sv::sockets {

DetailedViaSocket::Side::Side(sim::Simulation* sim, int index)
    : credit_wait(sim, "via_sock.credits." + std::to_string(index)),
      delivered(sim, 0, "via_sock.delivered." + std::to_string(index)) {}

DetailedViaSocket::~DetailedViaSocket() = default;

DetailedViaSocket::DetailedViaSocket(std::shared_ptr<PairState> state,
                                     int side)
    : state_(std::move(state)), side_(side) {
  const Side& me = mine();
  const Side& peer = state_->sides[static_cast<std::size_t>(1 - side_)];
  init_obs(state_->sim, me.nic->node().id(), peer.nic->node().id(),
           state_->rdma() ? "rdma" : "svia");
}

SocketPair DetailedViaSocket::make_pair(via::Nic& a, via::Nic& b,
                                        ViaSocketOptions options) {
  if (options.credits == 0 || options.credit_batch == 0 ||
      options.credit_batch > options.credits) {
    throw std::invalid_argument(
        "ViaSocketOptions: need credits >= credit_batch >= 1");
  }
  auto state = std::make_shared<PairState>(&a.sim(), options);
  auto va = a.create_vi();
  auto vb = b.create_vi();
  via::Nic::connect(*va, *vb);
  state->setup_side(0, a, std::move(va));
  state->setup_side(1, b, std::move(vb));
  for (int i = 0; i < 2; ++i) a.sim().start(demux_stage(state, i));
  std::unique_ptr<SvSocket> sa(new DetailedViaSocket(state, 0));
  std::unique_ptr<SvSocket> sb(new DetailedViaSocket(std::move(state), 1));
  return {std::move(sa), std::move(sb)};
}

void DetailedViaSocket::PairState::bookkeeping(SimTime cost) {
  if (!rdma()) sim->delay(cost);
}

void DetailedViaSocket::PairState::setup_side(int i, via::Nic& nic,
                                              std::shared_ptr<via::Vi> vi) {
  Side& s = sides[static_cast<std::size_t>(i)];
  s.nic = &nic;
  s.vi = std::move(vi);
  s.credits = options.credits;
  obs::Registry& reg = sim->obs().registry;
  auto& serial = reg.counter("via_sock.sides");
  serial.inc();
  s.credit_updates = &reg.counter("via_sock.credit_updates{side=" +
                                  std::to_string(serial.value()) + "}");
  // Control slack: credit updates and EOF do not spend data credits, so the
  // pool holds extra descriptors for them.
  const std::uint32_t control_slack =
      options.credits / options.credit_batch + 2;
  // Sanctioned modeled-DMA setup: these pins are connection-lifetime VIA
  // descriptor regions, not per-message staging, and via::Nic charges them
  // to the registration ledger itself.
  s.send_region = nic.register_memory(options.chunk_bytes);  // svlint:allow(SV013)
  if (rdma()) {
    s.ring = nic.register_memory(  // svlint:allow(SV013)
        static_cast<std::size_t>(options.chunk_bytes) * options.credits);
  }
  // Push-path receives only take notifications, which carry no data.
  s.recv_pool = nic.register_memory(  // svlint:allow(SV013)
      rdma() ? 64 : options.chunk_bytes);
  for (std::uint32_t k = 0; k < options.credits + control_slack; ++k) {
    post_one_recv(i);
  }
}

void DetailedViaSocket::PairState::post_one_recv(int i) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.recv_pool;
  d.offset = 0;
  d.length = rdma() ? 0 : options.chunk_bytes;
  s.vi->post_recv(std::move(d));
}

sim::Task<void> DetailedViaSocket::PairState::send_control(
    int i, Kind kind, std::uint32_t value) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.send_region;
  d.length = 0;
  d.immediate = (static_cast<std::uint32_t>(kind) << kKindShift) |
                (value & kValueMask);
  co_await s.vi->post_send_task(std::move(d));
  while (s.vi->send_cq().poll()) {
  }
}

sim::Stage DetailedViaSocket::demux_stage(std::shared_ptr<PairState> state,
                                          int i) {
  PairState& ps = *state;
  Side& me = ps.sides[static_cast<std::size_t>(i)];
  Side& peer = ps.sides[static_cast<std::size_t>(1 - i)];
  via::CompletionQueue& cq = me.vi->recv_cq();
  while (true) {
    while (cq.pending() == 0) co_await cq.readable();
    const via::Completion c = *cq.poll();
    if (c.status != via::Status::kSuccess) {
      throw std::logic_error("SocketVIA: unexpected VIA receive error: " +
                             std::string(via::status_name(c.status)));
    }
    // Immediately re-post the consumed descriptor to keep the pool full —
    // the invariant that makes credit-gated sends always land.
    ps.post_one_recv(i);
    const auto kind = static_cast<Kind>(c.immediate >> kKindShift);
    const std::uint32_t value = c.immediate & kValueMask;
    switch (kind) {
      case kCredit:
        // Credits returned for data *this side* previously sent.
        me.credits += value;
        me.credit_wait.notify_all();
        break;
      case kEof:
        if (!me.delivered.closed()) me.delivered.close();
        break;
      case kFirst:
        me.pending_chunks = value;
        [[fallthrough]];
      case kCont: {
        --me.pending_chunks;
        // Receiver-side socket bookkeeping delta over raw VIA (none on the
        // push path, as bookkeeping() charges).
        if (!ps.rdma()) co_await ps.sim->sleep(SimTime::nanoseconds(100));
        ++me.consumed_since_credit;
        if (me.pending_chunks == 0) {
          // The message is complete; metadata comes from the peer's side
          // queue, in order.
          if (!ps.rdma()) co_await ps.sim->sleep(SimTime::nanoseconds(250));
          if (peer.outgoing_meta.empty()) {
            throw std::logic_error("SocketVIA: data chunk without metadata");
          }
          net::Message m = std::move(peer.outgoing_meta.front());
          peer.outgoing_meta.pop_front();
          m.delivered_at = ps.sim->now();
          if (!me.delivered.closed()) {
            me.delivered.send(std::move(m));
          }
        }
        if (me.consumed_since_credit >= ps.options.credit_batch) {
          co_await ps.send_control(i, kCredit, me.consumed_since_credit);
          me.credit_updates->inc();
          me.consumed_since_credit = 0;
        }
        break;
      }
    }
  }
}

std::uint32_t DetailedViaSocket::available_credits() const {
  return mine().credits;
}

std::uint64_t DetailedViaSocket::credit_updates_sent() const {
  return mine().credit_updates == nullptr ? 0
                                          : mine().credit_updates->value();
}

Result<void> DetailedViaSocket::send_for(net::Message m, SimTime timeout) {
  Side& me = mine();
  const Side& peer = state_->sides[static_cast<std::size_t>(1 - side_)];
  if (me.send_closed) {
    throw std::logic_error("DetailedViaSocket::send after close");
  }
  const SimTime start = obs_now();
  const SimTime deadline = state_->sim->deadline_after(timeout);
  m.sent_at = state_->sim->now();

  // Selective-copy policy consult (DESIGN.md §14): decides whether this
  // message is staged through the preregistered send_region (legacy /
  // eager) or pinned in place. No policy installed = static-pool default.
  const std::uint64_t buffer = m.buffer;
  const bool release = policy_acquire(buffer, m.bytes);

  const std::uint64_t chunk = state_->options.chunk_bytes;
  const std::uint64_t nchunks =
      std::max<std::uint64_t>(1, (m.bytes + chunk - 1) / chunk);
  if (nchunks > kValueMask) {
    throw std::invalid_argument("DetailedViaSocket::send: message too large");
  }
  // SocketVIA bookkeeping beyond raw VIA (buffer management, header build):
  // the calibrated delta between the SocketVIA and VIA profiles.
  state_->bookkeeping(SimTime::nanoseconds(250));

  const std::uint64_t total = m.bytes;
  me.outgoing_meta.push_back(std::move(m));
  std::uint64_t remaining = total;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    while (me.credits == 0) {
      // Credit-stall detection: a receiver that stops consuming (stalled
      // node, wedged filter) stops returning credits; bail out cleanly
      // instead of blocking this process forever.
      if (!me.credit_wait.wait_until(deadline) && me.credits == 0) {
        // A pinned-on-the-fly region is unpinned even on a failed send.
        if (release) policy_release(buffer, total);
        note_timeout("timeout.credit_stall");
        return Error::timeout(
            "SocketVIA: credit stall — receiver returned no credits "
            "before the send deadline");
      }
    }
    --me.credits;
    const std::uint64_t len = std::min(remaining, chunk);
    remaining -= len;
    via::Descriptor d;
    d.region = me.send_region;
    d.offset = 0;
    d.length = len;
    d.immediate =
        i == 0 ? ((kFirst << kKindShift) |
                  (static_cast<std::uint32_t>(nchunks) & kValueMask))
               : (kCont << kKindShift);
    if (state_->rdma()) {
      d.op = via::Opcode::kRdmaWrite;
      d.remote_handle = peer.ring->handle();
      d.remote_offset = (me.next_slot++ % state_->options.credits) * chunk;
      d.remote_notify = true;
    }
    // Per-chunk socket-layer work (the per-segment calibration delta).
    state_->bookkeeping(SimTime::nanoseconds(100));
    me.vi->post_send(std::move(d));
    // Reap send completions opportunistically to keep the CQ shallow.
    while (me.vi->send_cq().poll()) {
    }
  }
  if (release) policy_release(buffer, total);
  note_sent(total);
  obs_span(start, "send", total);
  return Result<void>::success();
}

sim::Task<Result<std::optional<net::Message>>> DetailedViaSocket::recv_task(
    SimTime timeout) {
  const SimTime start = obs_now();
  co_return finish_recv(start, co_await mine().delivered.recv_task(timeout));
}

void DetailedViaSocket::close_send() {
  Side& me = mine();
  if (me.send_closed) return;
  me.send_closed = true;
  state_->send_control(side_, kEof, 0).run_in_place();
}

}  // namespace sv::sockets
