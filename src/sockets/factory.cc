#include "sockets/factory.h"

#include <stdexcept>

#include "sockets/fast_socket.h"
#include "sockets/tcp_socket.h"
#include "sockets/via_socket.h"

namespace sv::sockets {

SocketFactory::SocketFactory(sim::Simulation* sim, net::Cluster* cluster,
                             Fidelity fidelity)
    : sim_(sim), cluster_(cluster), fidelity_(fidelity) {}

tcpstack::TcpStack& SocketFactory::tcp_stack(std::size_t node) {
  auto it = tcp_stacks_.find(node);
  if (it == tcp_stacks_.end()) {
    it = tcp_stacks_
             .emplace(node, std::make_unique<tcpstack::TcpStack>(
                                sim_, &cluster_->node(node)))
             .first;
  }
  return *it->second;
}

via::Nic& SocketFactory::via_nic(std::size_t node) {
  auto it = via_nics_.find(node);
  if (it == via_nics_.end()) {
    it = via_nics_
             .emplace(node, std::make_unique<via::Nic>(
                                sim_, &cluster_->node(node)))
             .first;
  }
  return *it->second;
}

void SocketFactory::set_copy_policy(const mem::CopyPolicyConfig& config) {
  policy_config_ = config;
  // Existing per-node engines are dropped; sockets already connected keep
  // the policy they were built with (shared_ptr ownership).
  policies_.clear();
}

mem::CopyPolicy* SocketFactory::copy_policy(std::size_t node) {
  if (policy_config_.kind == mem::CopyPolicyKind::kStaticPool) return nullptr;
  auto it = policies_.find(node);
  if (it == policies_.end()) {
    it = policies_
             .emplace(node, std::make_shared<mem::CopyPolicy>(
                                &sim_->obs(), static_cast<int>(node),
                                policy_config_))
             .first;
  }
  return it->second.get();
}

SocketPair SocketFactory::connect(std::size_t src, std::size_t dst,
                                  net::Transport transport) {
  SocketPair pair = [&] {
    if (fidelity_ == Fidelity::kFast) {
      const std::string name = std::string(net::transport_name(transport)) +
                               ".conn" + std::to_string(next_conn_id_++);
      auto profile = net::CalibrationProfile::for_transport(transport);
      if (window_override_ != 0) profile.window_bytes = window_override_;
      return FastSocket::make_pair(sim_, &cluster_->node(src),
                                   &cluster_->node(dst), transport, profile,
                                   name);
    }
    switch (transport) {
      case net::Transport::kKernelTcp:
        return DetailedTcpSocket::make_pair(tcp_stack(src), tcp_stack(dst));
      case net::Transport::kSocketVia:
        return DetailedViaSocket::make_pair(via_nic(src), via_nic(dst));
      case net::Transport::kVia:
        throw std::invalid_argument(
            "SocketFactory: raw VIA has no detailed sockets layer; use "
            "via::Nic directly");
    }
    throw std::invalid_argument("SocketFactory: unknown transport");
  }();
  if (copy_scale_pct_ > 0) {
    const auto profile = net::CalibrationProfile::for_transport(transport);
    pair.first->set_copy_ablation(profile.copy_per_byte, copy_scale_pct_);
    pair.second->set_copy_ablation(profile.copy_per_byte, copy_scale_pct_);
  }
  if (policy_config_.kind != mem::CopyPolicyKind::kStaticPool &&
      transport != net::Transport::kKernelTcp) {
    (void)copy_policy(src);
    (void)copy_policy(dst);
    pair.first->set_copy_policy(policies_.at(src));
    pair.second->set_copy_policy(policies_.at(dst));
  }
  return pair;
}

}  // namespace sv::sockets
