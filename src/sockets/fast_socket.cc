#include "sockets/fast_socket.h"

namespace sv::sockets {
namespace {

/// Kernel TCP is the only fast-model transport that copies payload across
/// the user/kernel boundary (once per side per message); VIA, SocketVIA
/// and RDMA DMA straight from registered user buffers. The per-byte *time*
/// of these copies is already inside the calibrated profile; here the
/// *events* are counted (DESIGN.md §10).
bool transport_copies(net::Transport t) {
  return t == net::Transport::kKernelTcp;
}

}  // namespace

SocketPair FastSocket::make_pair(sim::Simulation* sim, net::Node* a,
                                 net::Node* b, net::Transport transport,
                                 net::CalibrationProfile profile,
                                 const std::string& name) {
  auto ab = std::make_shared<net::Pipe>(sim, a, b, profile, name + ".ab");
  auto ba = std::make_shared<net::Pipe>(sim, b, a, profile, name + ".ba");
  std::unique_ptr<SvSocket> sa(new FastSocket(sim, transport, a, b, ab, ba));
  std::unique_ptr<SvSocket> sb(new FastSocket(sim, transport, b, a, ba, ab));
  return {std::move(sa), std::move(sb)};
}

FastSocket::FastSocket(sim::Simulation* sim, net::Transport transport,
                       net::Node* node, net::Node* peer,
                       std::shared_ptr<net::Pipe> out,
                       std::shared_ptr<net::Pipe> in)
    : sim_(sim),
      transport_(transport),
      out_(std::move(out)),
      in_(std::move(in)) {
  init_obs(sim, node->id(), peer->id(), "fast");
}

Result<void> FastSocket::send_for(net::Message m, SimTime timeout) {
  const std::uint64_t bytes = m.bytes;
  const std::uint64_t buffer = m.buffer;
  const SimTime start = obs_now();
  // Copy and policy work happen before the transport accepts the message:
  // a timed-out message has still paid for its copy or its pin.
  bool release = false;
  if (transport_copies(transport_)) {
    // TCP's copies are structural; the policy does not apply.
    const SimTime copy = note_copy(CopyStage::kUserToKernel, bytes);
    if (copy > SimTime::zero()) sim_->delay(copy);
  } else {
    release = policy_acquire(buffer, bytes);
  }
  auto r = out_->send_for(std::move(m), timeout);
  if (release) policy_release(buffer, bytes);
  if (!r.ok()) {
    note_timeout("timeout.window");
    return r;
  }
  note_sent(bytes);
  obs_span(start, "send", bytes);
  return r;
}

sim::Task<Result<std::optional<net::Message>>> FastSocket::recv_task(
    SimTime timeout) {
  const SimTime start = obs_now();
  auto r = co_await in_->recv_task(timeout);
  if (r.ok() && r.value() && transport_copies(transport_)) {
    const SimTime copy = note_copy(CopyStage::kKernelToUser, r.value()->bytes);
    if (copy > SimTime::zero()) co_await sim_->sleep(copy);
  }
  co_return finish_recv(start, std::move(r));
}

void FastSocket::close_send() { out_->close(); }

}  // namespace sv::sockets
