// Same-host stream endpoint: filters placed on one node exchange buffers
// through memory, paying only a small runtime overhead per message.
#pragma once

#include <memory>

#include "sim/sync.h"
#include "sockets/socket.h"

namespace sv::dc {

class LocalSocket final : public sockets::SvSocket {
 public:
  /// Builds a connected same-node pair.
  static sockets::SocketPair make_pair(sim::Simulation* sim, net::Node* node,
                                       const std::string& name);

  /// The hand-off queue is unbounded: a same-host send never blocks on
  /// the peer, so its timeout cannot trip.
  [[nodiscard]] sv::Result<void> send_for(net::Message m, SimTime timeout) override;
  sim::Task<sv::Result<std::optional<net::Message>>> recv_task(
      SimTime timeout) override;
  void close_send() override;

  /// Per-message hand-off cost between threads on one host.
  static constexpr SimTime kHandoffCost = SimTime::microseconds(2);

 private:
  using Queue = sim::Channel<net::Message>;

  LocalSocket(sim::Simulation* sim, net::Node* node,
              std::shared_ptr<Queue> out, std::shared_ptr<Queue> in)
      : sim_(sim), out_(std::move(out)), in_(std::move(in)) {
    init_obs(sim_, node->id(), node->id(), "local");
  }

  sim::Simulation* sim_;
  std::shared_ptr<Queue> out_;
  std::shared_ptr<Queue> in_;
};

}  // namespace sv::dc
