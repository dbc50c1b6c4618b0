#include "sockets/socket.h"

#include <utility>

#include "sim/simulation.h"

namespace sv::sockets {

void SvSocket::init_obs(sim::Simulation* sim, int local_node, int peer_node,
                        std::string_view transport_label) {
  sim_ = sim;
  hub_ = &sim->obs();
  node_id_ = local_node;
  label_ = std::string(transport_label);
  obs::Registry& reg = hub_->registry;
  // Endpoint serial keeps per-socket metric names unique; creation order is
  // deterministic per seed, so names are stable across runs.
  auto& serial = reg.counter("socket.instances");
  serial.inc();
  const std::string sl =
      "{socket=" + label_ + "." + std::to_string(serial.value()) + "}";
  const std::string ll = "{link=" + std::to_string(local_node) + "->" +
                         std::to_string(peer_node) + "}";
  c_msgs_sent_ = &reg.counter("socket.messages_sent" + sl);
  c_bytes_sent_ = &reg.counter("socket.bytes_sent" + sl);
  c_msgs_recv_ = &reg.counter("socket.messages_received" + sl);
  c_bytes_recv_ = &reg.counter("socket.bytes_received" + sl);
  c_timeouts_ = &reg.counter("socket.timeouts" + sl);
  c_msgs_sent_total_ = &reg.counter("socket.messages_sent");
  c_msgs_recv_total_ = &reg.counter("socket.messages_received");
  c_timeouts_total_ = &reg.counter("socket.timeouts");
  c_timeouts_link_ = &reg.counter("socket.timeouts" + ll);
  h_msg_bytes_ = &reg.histogram("socket.msg_bytes",
                                obs::Registry::size_bounds_bytes());
}

SocketStats SvSocket::stats() const {
  SocketStats s;
  if (c_msgs_sent_ == nullptr) return s;
  s.messages_sent = c_msgs_sent_->value();
  s.bytes_sent = c_bytes_sent_->value();
  s.messages_received = c_msgs_recv_->value();
  s.bytes_received = c_bytes_recv_->value();
  s.timeouts = c_timeouts_->value();
  return s;
}

void SvSocket::note_sent(std::uint64_t bytes) {
  if (c_msgs_sent_ == nullptr) return;
  c_msgs_sent_->inc();
  c_bytes_sent_->inc(bytes);
  c_msgs_sent_total_->inc();
  h_msg_bytes_->observe(static_cast<std::int64_t>(bytes));
}

void SvSocket::note_received(std::uint64_t bytes) {
  if (c_msgs_recv_ == nullptr) return;
  c_msgs_recv_->inc();
  c_bytes_recv_->inc(bytes);
  c_msgs_recv_total_->inc();
}

Result<std::optional<net::Message>> SvSocket::finish_recv(
    SimTime start, Result<std::optional<net::Message>>&& r) {
  if (!r.ok()) {
    note_timeout("timeout.recv");
  } else if (r.value()) {
    note_received(r.value()->bytes);
    obs_span(start, "recv", r.value()->bytes);
  }
  return std::move(r);
}

void SvSocket::note_timeout(std::string_view op) {
  if (c_timeouts_ == nullptr) return;
  c_timeouts_->inc();
  c_timeouts_total_->inc();
  c_timeouts_link_->inc();
  if (hub_->tracer.enabled()) {
    std::string name(label_);
    name += '.';
    name += op;
    hub_->tracer.instant(sim_->now(), node_id_, "socket", name);
  }
}

SimTime SvSocket::note_copy(CopyStage stage, std::uint64_t bytes) {
  if (sim_ == nullptr) return SimTime::zero();
  static constexpr std::array<std::string_view, 2> kStageNames = {
      "tcp.user_to_kernel", "tcp.kernel_to_user"};
  const auto i = static_cast<std::size_t>(stage);
  if (!copy_counters_[i]) copy_counters_[i].emplace(hub_, kStageNames[i]);
  copy_counters_[i]->charge(sim_->now(), node_id_, bytes);
  if (copy_scale_pct_ <= 0) return SimTime::zero();
  // Scaled copy time (ablation): integer ns arithmetic keeps the charge
  // bit-reproducible (no float time; svlint SV006).
  const SimTime base = copy_per_byte_.for_bytes(bytes);
  return SimTime::nanoseconds(base.ns() * copy_scale_pct_ / 100);
}

void SvSocket::set_copy_ablation(PerByteCost copy_per_byte, int scale_pct) {
  copy_per_byte_ = copy_per_byte;
  copy_scale_pct_ = scale_pct;
}

void SvSocket::set_copy_policy(std::shared_ptr<mem::CopyPolicy> policy) {
  policy_ = std::move(policy);
}

bool SvSocket::policy_acquire(std::uint64_t buffer_id, std::uint64_t bytes) {
  if (policy_ == nullptr || sim_ == nullptr) return false;
  const mem::CopyVerdict v = policy_->acquire(sim_->now(), buffer_id, bytes);
  if (v.cpu_cost > SimTime::zero()) sim_->delay(v.cpu_cost);
  return v.needs_release;
}

void SvSocket::policy_release(std::uint64_t buffer_id, std::uint64_t bytes) {
  if (policy_ == nullptr || sim_ == nullptr) return;
  const SimTime unpin = policy_->release(sim_->now(), buffer_id, bytes);
  if (unpin > SimTime::zero()) sim_->delay(unpin);
}

void SvSocket::obs_span(SimTime start, std::string_view op,
                        std::uint64_t bytes) {
  if (hub_ == nullptr || !hub_->tracer.enabled()) return;
  std::string name(label_);
  name += '.';
  name += op;
  hub_->tracer.span(start, sim_->now(), node_id_, "socket", name, bytes);
}

SimTime SvSocket::obs_now() const {
  return sim_ == nullptr ? SimTime::zero() : sim_->now();
}

}  // namespace sv::sockets
