// SocketFactory: per-cluster owner of protocol stacks, dispensing connected
// socket pairs over any transport at either fidelity.
#pragma once

#include <map>
#include <memory>

#include "net/cluster.h"
#include "sockets/socket.h"
#include "tcpstack/tcp.h"
#include "via/via.h"

namespace sv::sockets {

class SocketFactory {
 public:
  SocketFactory(sim::Simulation* sim, net::Cluster* cluster,
                Fidelity fidelity = Fidelity::kFast);

  /// Connects node `src` to node `dst` over `transport`. For kDetailed the
  /// caller should be a simulated process (TCP pays its handshake).
  /// Raw kVia is only available at kFast fidelity (it is not a sockets
  /// layer; use via::Nic directly for detailed raw-VIA experiments).
  SocketPair connect(std::size_t src, std::size_t dst,
                     net::Transport transport);

  /// Per-connection window override for the next fast-fidelity connect
  /// (0 = use the profile default).
  void set_window_override(std::uint64_t bytes) { window_override_ = bytes; }

  /// Copy-cost ablation for subsequently connected sockets: every modeled
  /// payload copy additionally charges profile.copy_per_byte*n * pct / 100
  /// of sim time to the copying process.
  /// 0 (default) = pure accounting. Only copying transports (kernel TCP)
  /// are affected; zero-copy transports record no copies to scale.
  void set_copy_cost_scale_pct(int pct) { copy_scale_pct_ = pct; }

  /// Selective-copy policy for subsequently connected sockets
  /// (DESIGN.md §14). kStaticPool (default) installs nothing — the legacy
  /// zero-overhead path, digests unchanged. Any other kind builds one
  /// mem::CopyPolicy per *node* (lazily, so RegCache state is shared by
  /// all of a node's sockets) and installs it on each new endpoint.
  /// Kernel TCP endpoints never consult the policy.
  void set_copy_policy(const mem::CopyPolicyConfig& config);

  /// The per-node policy engine (created on demand; null under the
  /// static-pool default). Benches use this to inspect RegCache state.
  mem::CopyPolicy* copy_policy(std::size_t node);

  /// Lazily-created per-node stacks (also usable directly by benches).
  tcpstack::TcpStack& tcp_stack(std::size_t node);
  via::Nic& via_nic(std::size_t node);

 private:
  sim::Simulation* sim_;
  net::Cluster* cluster_;
  Fidelity fidelity_;
  std::uint64_t window_override_ = 0;
  int copy_scale_pct_ = 0;
  std::uint64_t next_conn_id_ = 0;
  mem::CopyPolicyConfig policy_config_{};
  std::map<std::size_t, std::shared_ptr<mem::CopyPolicy>> policies_;
  std::map<std::size_t, std::unique_ptr<tcpstack::TcpStack>> tcp_stacks_;
  std::map<std::size_t, std::unique_ptr<via::Nic>> via_nics_;
};

}  // namespace sv::sockets
