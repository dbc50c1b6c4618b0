// Fast-fidelity socket: two net::Pipe instances (one per direction).
#pragma once

#include <memory>

#include "net/fabric.h"
#include "sockets/socket.h"

namespace sv::sockets {

class FastSocket final : public SvSocket {
 public:
  /// Builds a connected pair between two nodes with the given profile.
  static SocketPair make_pair(sim::Simulation* sim, net::Node* a,
                              net::Node* b, net::Transport transport,
                              net::CalibrationProfile profile,
                              const std::string& name);

  [[nodiscard]] Result<void> send_for(net::Message m, SimTime timeout) override;
  sim::Task<Result<std::optional<net::Message>>> recv_task(
      SimTime timeout) override;
  void close_send() override;

 private:
  FastSocket(sim::Simulation* sim, net::Transport transport, net::Node* node,
             net::Node* peer, std::shared_ptr<net::Pipe> out,
             std::shared_ptr<net::Pipe> in);

  sim::Simulation* sim_;
  net::Transport transport_;
  std::shared_ptr<net::Pipe> out_;
  std::shared_ptr<net::Pipe> in_;
};

}  // namespace sv::sockets
