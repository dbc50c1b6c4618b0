#include "datacutter/local_socket.h"

namespace sv::dc {

sockets::SocketPair LocalSocket::make_pair(sim::Simulation* sim,
                                           net::Node* node,
                                           const std::string& name) {
  auto ab = std::make_shared<Queue>(sim, 0, name + ".ab");
  auto ba = std::make_shared<Queue>(sim, 0, name + ".ba");
  std::unique_ptr<sockets::SvSocket> a(new LocalSocket(sim, node, ab, ba));
  std::unique_ptr<sockets::SvSocket> b(new LocalSocket(sim, node, ba, ab));
  return {std::move(a), std::move(b)};
}

sv::Result<void> LocalSocket::send_for(net::Message m, SimTime /*timeout*/) {
  const std::uint64_t bytes = m.bytes;
  const SimTime start = obs_now();
  m.sent_at = sim_->now();
  sim_->delay(kHandoffCost);
  m.delivered_at = sim_->now();
  out_->send(std::move(m));
  note_sent(bytes);
  obs_span(start, "send", bytes);
  return sv::Result<void>::success();
}

sim::Task<sv::Result<std::optional<net::Message>>> LocalSocket::recv_task(
    SimTime timeout) {
  const SimTime start = obs_now();
  co_return finish_recv(start, co_await in_->recv_task(timeout));
}

void LocalSocket::close_send() {
  if (!out_->closed()) out_->close();
}

}  // namespace sv::dc
