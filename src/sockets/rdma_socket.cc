#include "sockets/rdma_socket.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sv::sockets {

RdmaPushSocket::Side::Side(sim::Simulation* sim, int index)
    : slot_wait(sim, "rdma_sock.slots." + std::to_string(index)),
      delivered(sim, 0, "rdma_sock.delivered." + std::to_string(index)) {}

RdmaPushSocket::~RdmaPushSocket() = default;

RdmaPushSocket::RdmaPushSocket(std::shared_ptr<PairState> state, int side)
    : state_(std::move(state)), side_(side) {
  const Side& me = mine();
  const Side& peer = state_->sides[static_cast<std::size_t>(1 - side_)];
  init_obs(state_->sim, me.nic->node().id(), peer.nic->node().id(), "rdma");
}

SocketPair RdmaPushSocket::make_pair(via::Nic& a, via::Nic& b,
                                     RdmaSocketOptions options) {
  if (options.ring_slots == 0 || options.credit_batch == 0 ||
      options.credit_batch > options.ring_slots) {
    throw std::invalid_argument(
        "RdmaSocketOptions: need ring_slots >= credit_batch >= 1");
  }
  auto state = std::make_shared<PairState>(&a.sim(), options);
  auto va = a.create_vi();
  auto vb = b.create_vi();
  via::Nic::connect(*va, *vb);
  state->setup_side(0, a, std::move(va));
  state->setup_side(1, b, std::move(vb));
  for (int i = 0; i < 2; ++i) {
    a.sim().spawn("rdma_sock.demux" + std::to_string(i),
                  [state, i] { state->demux_loop(i); });
  }
  std::unique_ptr<SvSocket> sa(new RdmaPushSocket(state, 0));
  std::unique_ptr<SvSocket> sb(new RdmaPushSocket(std::move(state), 1));
  return {std::move(sa), std::move(sb)};
}

void RdmaPushSocket::PairState::setup_side(int i, via::Nic& nic,
                                           std::shared_ptr<via::Vi> vi) {
  Side& s = sides[static_cast<std::size_t>(i)];
  s.nic = &nic;
  s.vi = std::move(vi);
  s.slots = options.ring_slots;
  // Sanctioned modeled-DMA setup: connection-lifetime RDMA regions pinned
  // once at connect, not per-message staging; via::Nic charges the ledger.
  s.send_region = nic.register_memory(options.slot_bytes);  // svlint:allow(SV013)
  // The ring the *peer* RDMA-writes into (advertised by handle).
  s.ring = nic.register_memory(  // svlint:allow(SV013)
      static_cast<std::size_t>(options.slot_bytes) * options.ring_slots);
  s.control_pool = nic.register_memory(64);  // svlint:allow(SV013)
  // Control descriptors: notifications (one per incoming slot write) plus
  // credit updates and EOF.
  const std::uint32_t pool = options.ring_slots +
                             options.ring_slots / options.credit_batch + 2;
  for (std::uint32_t k = 0; k < pool; ++k) {
    post_control_recv(i);
  }
}

void RdmaPushSocket::PairState::post_control_recv(int i) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.control_pool;
  d.offset = 0;
  d.length = 0;  // notifications carry no data of their own
  s.vi->post_recv(std::move(d));
}

void RdmaPushSocket::PairState::send_control(int i, Kind kind,
                                             std::uint32_t value) {
  Side& s = sides[static_cast<std::size_t>(i)];
  via::Descriptor d;
  d.region = s.send_region;
  d.length = 0;
  d.immediate = (static_cast<std::uint32_t>(kind) << kKindShift) |
                (value & kValueMask);
  s.vi->post_send(std::move(d));
  while (s.vi->send_cq().poll()) {
  }
}

void RdmaPushSocket::PairState::demux_loop(int i) {
  Side& me = sides[static_cast<std::size_t>(i)];
  Side& peer = sides[static_cast<std::size_t>(1 - i)];
  while (true) {
    via::Completion c = me.vi->recv_cq().wait();
    if (c.status != via::Status::kSuccess) {
      throw std::logic_error("RdmaPushSocket: VIA receive error: " +
                             std::string(via::status_name(c.status)));
    }
    post_control_recv(i);  // keep the notification pool full
    const auto kind = static_cast<Kind>(c.immediate >> kKindShift);
    const std::uint32_t value = c.immediate & kValueMask;
    switch (kind) {
      case kCredit:
        me.slots += value;
        me.slot_wait.notify_all();
        break;
      case kEof:
        if (!me.delivered.closed()) me.delivered.close();
        break;
      case kFirst:
        me.pending_chunks = value;
        [[fallthrough]];
      case kCont: {
        --me.pending_chunks;
        ++me.consumed_since_credit;
        if (me.pending_chunks == 0) {
          if (peer.outgoing_meta.empty()) {
            throw std::logic_error("RdmaPushSocket: data without metadata");
          }
          net::Message m = std::move(peer.outgoing_meta.front());
          peer.outgoing_meta.pop_front();
          m.delivered_at = sim->now();
          if (!me.delivered.closed()) {
            me.delivered.send(std::move(m));
          }
        }
        if (me.consumed_since_credit >= options.credit_batch) {
          send_control(i, kCredit, me.consumed_since_credit);
          me.consumed_since_credit = 0;
        }
        break;
      }
    }
  }
}

std::uint32_t RdmaPushSocket::available_slots() const { return mine().slots; }

Result<void> RdmaPushSocket::send_for(net::Message m, SimTime timeout) {
  Side& me = mine();
  Side& peer = state_->sides[static_cast<std::size_t>(1 - side_)];
  if (me.send_closed) {
    throw std::logic_error("RdmaPushSocket::send after close");
  }
  const SimTime start = obs_now();
  const SimTime deadline = state_->sim->deadline_after(timeout);
  m.sent_at = state_->sim->now();

  // Selective-copy policy consult (DESIGN.md §14); null policy = legacy
  // static ring staging, zero extra cost.
  const std::uint64_t buffer = m.buffer;
  const bool release = policy_acquire(buffer, m.bytes);

  const std::uint64_t slot_bytes = state_->options.slot_bytes;
  const std::uint64_t nchunks =
      std::max<std::uint64_t>(1, (m.bytes + slot_bytes - 1) / slot_bytes);
  if (nchunks > kValueMask) {
    throw std::invalid_argument("RdmaPushSocket::send: message too large");
  }
  const std::uint64_t total = m.bytes;
  me.outgoing_meta.push_back(std::move(m));
  std::uint64_t remaining = total;
  for (std::uint64_t i = 0; i < nchunks; ++i) {
    while (me.slots == 0) {
      if (!me.slot_wait.wait_until(deadline) && me.slots == 0) {
        if (release) policy_release(buffer, total);
        note_timeout("timeout.slot_stall");
        return Error::timeout(
            "RdmaPushSocket: slot stall — receiver returned no ring slots "
            "before the send deadline");
      }
    }
    --me.slots;
    const std::uint64_t len = std::min(remaining, slot_bytes);
    remaining -= len;
    via::Descriptor d;
    d.op = via::Opcode::kRdmaWrite;
    d.region = me.send_region;
    d.offset = 0;
    d.length = len;
    d.remote_handle = peer.ring->handle();
    d.remote_offset =
        (me.next_slot++ % state_->options.ring_slots) * slot_bytes;
    d.remote_notify = true;
    d.immediate =
        i == 0 ? ((kFirst << kKindShift) |
                  (static_cast<std::uint32_t>(nchunks) & kValueMask))
               : (kCont << kKindShift);
    me.vi->post_send(std::move(d));
    while (me.vi->send_cq().poll()) {
    }
  }
  if (release) policy_release(buffer, total);
  note_sent(total);
  obs_span(start, "send", total);
  return Result<void>::success();
}

Result<std::optional<net::Message>> RdmaPushSocket::recv_for(
    SimTime timeout) {
  const SimTime start = obs_now();
  return finish_recv(start, mine().delivered.recv_for(timeout));
}

void RdmaPushSocket::close_send() {
  Side& me = mine();
  if (me.send_closed) return;
  me.send_closed = true;
  state_->send_control(side_, kEof, 0);
}

}  // namespace sv::sockets
