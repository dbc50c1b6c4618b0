#include "via/via.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "mem/ledger.h"

namespace sv::via {

const char* status_name(Status s) {
  switch (s) {
    case Status::kSuccess: return "success";
    case Status::kNoReceiveDescriptor: return "no-receive-descriptor";
    case Status::kLengthError: return "length-error";
    case Status::kFlushed: return "flushed";
  }
  return "?";
}

Vi::Vi(Nic* nic, std::shared_ptr<CompletionQueue> send_cq,
       std::shared_ptr<CompletionQueue> recv_cq)
    : nic_(nic),
      send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {}

void Vi::post_recv(Descriptor d) {
  if (!d.region) {
    throw std::invalid_argument("post_recv: descriptor without region");
  }
  if (d.offset + d.length > d.region->size()) {
    throw std::invalid_argument("post_recv: descriptor exceeds region");
  }
  recv_queue_.push_back(std::move(d));
}

void Vi::post_send(Descriptor d) {
  post_send_task(std::move(d)).run_in_place();
}

sim::Task<void> Vi::post_send_task(Descriptor d) {
  if (!connected()) {
    throw std::logic_error("post_send: VI not connected");
  }
  if (d.op == Opcode::kSend) {
    if (!d.region) {
      throw std::invalid_argument("post_send: descriptor without region");
    }
    if (d.offset + d.length > d.region->size()) {
      throw std::invalid_argument("post_send: descriptor exceeds region");
    }
  }
  // Doorbell + sender-side library work, serialized on the host TX path.
  Nic& nic = *nic_;
  sim::Resource& tx_host = nic.node_->tx_host();
  co_await tx_host.acquire_stage();
  co_await nic.sim_->sleep(nic.model_.sender_time(d.length));
  tx_host.release();
  nic.tx_queue_.send(Nic::TxWork{this, std::move(d)});
}

Nic::Nic(sim::Simulation* sim, net::Node* node, net::CalibrationProfile profile)
    : sim_(sim),
      node_(node),
      profile_(std::move(profile)),
      model_(profile_),
      tx_queue_(sim, 0, node->name() + ".via_tx"),
      rx_queue_(sim, 0, node->name() + ".via_rx") {
  sim_->start(tx_stage());
  sim_->start(rx_stage());
}

Nic::~Nic() {
  tx_queue_.close();
  rx_queue_.close();
}

std::shared_ptr<MemoryRegion> Nic::register_memory(std::size_t size) {
  // Registration pins pages; on the paper's era hardware this was a
  // multi-microsecond kernel operation. Charge a fixed cost when called
  // from a process; setup code outside processes registers for free.
  if (sim_->current() != nullptr) {
    sim_->delay(SimTime::microseconds(20));
  }
  mem::charge_registration(&sim_->obs(), sim_->now(), node_->id(), size);
  auto region = std::make_shared<MemoryRegion>(next_handle_++, size);
  regions_.push_back(region);
  return region;
}

std::shared_ptr<MemoryRegion> Nic::find_region(std::uint64_t handle) const {
  for (const auto& r : regions_) {
    if (r->handle() == handle) return r;
  }
  return nullptr;
}

void Nic::deregister_memory(std::uint64_t handle) {
  std::erase_if(regions_,
                [handle](const auto& r) { return r->handle() == handle; });
}

std::shared_ptr<Vi> Nic::create_vi() {
  auto send_cq = std::make_shared<CompletionQueue>(
      sim_, node_->name() + ".scq" + std::to_string(next_vi_id_));
  auto recv_cq = std::make_shared<CompletionQueue>(
      sim_, node_->name() + ".rcq" + std::to_string(next_vi_id_));
  return create_vi(std::move(send_cq), std::move(recv_cq));
}

std::shared_ptr<Vi> Nic::create_vi(std::shared_ptr<CompletionQueue> send_cq,
                                   std::shared_ptr<CompletionQueue> recv_cq) {
  ++next_vi_id_;
  auto vi = std::make_shared<Vi>(this, std::move(send_cq), std::move(recv_cq));
  vis_.push_back(vi);
  return vi;
}

void Nic::connect(Vi& a, Vi& b) {
  if (a.peer_ != nullptr || b.peer_ != nullptr) {
    throw std::logic_error("Nic::connect: VI already connected");
  }
  a.peer_ = &b;
  b.peer_ = &a;
}

sim::Stage Nic::tx_stage() {
  while (true) {
    while (tx_queue_.empty() && !tx_queue_.closed()) {
      co_await tx_queue_.readable();
    }
    std::optional<TxWork> work = tx_queue_.try_recv();
    if (!work) co_return;  // closed and drained
    Vi* vi = work->vi;
    Vi* peer = vi->peer_;
    Nic* peer_nic = peer->nic_;
    // DMA out of host memory and across the wire into the peer NIC. The
    // propagation delay is fixed per NIC, so arrivals fire in push order
    // and each takes the oldest work in flight.
    sim::Resource& link_in = peer_nic->node_->link_in();
    co_await link_in.acquire_stage();
    co_await sim_->sleep(model_.wire_time(work->desc.length));
    link_in.release();
    propagating_.push_back(std::move(*work));
    sim_->schedule(profile_.propagation, [this] {
      TxWork& w = propagating_.front();
      w.vi->peer_->nic_->rx_queue_.send(RxWork{w.vi, std::move(w.desc)});
      propagating_.pop_front();
    });
  }
}

sim::Stage Nic::rx_stage() {
  sim::Resource& rx_proto = node_->rx_proto();
  while (true) {
    while (rx_queue_.empty() && !rx_queue_.closed()) {
      co_await rx_queue_.readable();
    }
    std::optional<RxWork> work = rx_queue_.try_recv();
    if (!work) co_return;  // closed and drained
    Vi* sender_vi = work->vi;
    Vi* receiver_vi = sender_vi->peer_;
    Descriptor& d = work->desc;
    // Receiver-side completion processing. RDMA writes land by DMA with no
    // receive-descriptor matching or host per-byte work — that is their
    // point; only a small NIC handling cost applies.
    co_await rx_proto.acquire_stage();
    co_await sim_->sleep(d.op == Opcode::kRdmaWrite
                             ? profile_.recv_per_seg
                             : model_.recv_time(d.length));
    rx_proto.release();
    const SimTime now = sim_->now();

    if (d.op == Opcode::kRdmaWrite) {
      Completion c;
      c.op = Opcode::kRdmaWrite;
      c.cookie = d.cookie;
      c.bytes = d.length;
      c.timestamp = now;
      auto remote = find_region(d.remote_handle);
      if (!remote || d.remote_offset + d.length > remote->size()) {
        c.status = Status::kLengthError;
      } else {
        if (d.region) {
          // Models the NIC's DMA between registered regions, not a host
          // CPU copy; never charged to the ledger. svlint:allow(SV008)
          std::memcpy(remote->data() + d.remote_offset,
                      d.region->data() + d.offset, d.length);
        }
        c.status = Status::kSuccess;
        if (d.remote_notify) {
          // RDMA write with immediate: consume one posted receive
          // descriptor (dataless) and surface a receive completion.
          if (receiver_vi->recv_queue_.empty()) {
            ++recv_misses_;
            c.status = Status::kNoReceiveDescriptor;
          } else {
            Descriptor rd = std::move(receiver_vi->recv_queue_.front());
            receiver_vi->recv_queue_.pop_front();
            Completion recv_c;
            recv_c.op = Opcode::kRdmaWrite;
            recv_c.status = Status::kSuccess;
            recv_c.bytes = d.length;
            recv_c.immediate = d.immediate;
            recv_c.cookie = rd.cookie;
            recv_c.timestamp = now;
            receiver_vi->recv_cq_->push(recv_c);
          }
        }
      }
      sender_vi->send_cq_->push(c);
      if (c.status == Status::kSuccess) ++sends_completed_;
      continue;
    }

    // Two-sided send: must match a posted receive descriptor.
    if (receiver_vi->recv_queue_.empty()) {
      ++recv_misses_;
      Completion c;
      c.op = Opcode::kSend;
      c.status = Status::kNoReceiveDescriptor;
      c.cookie = d.cookie;
      c.bytes = d.length;
      c.timestamp = now;
      sender_vi->send_cq_->push(c);
      continue;
    }
    Descriptor rd = std::move(receiver_vi->recv_queue_.front());
    receiver_vi->recv_queue_.pop_front();

    Completion send_c;
    send_c.op = Opcode::kSend;
    send_c.cookie = d.cookie;
    send_c.bytes = d.length;
    send_c.timestamp = now;
    Completion recv_c;
    recv_c.op = Opcode::kSend;
    recv_c.cookie = rd.cookie;
    recv_c.bytes = d.length;
    recv_c.immediate = d.immediate;
    recv_c.timestamp = now;

    if (d.length > rd.length) {
      send_c.status = Status::kLengthError;
      recv_c.status = Status::kLengthError;
    } else {
      send_c.status = Status::kSuccess;
      recv_c.status = Status::kSuccess;
      if (d.region && rd.region) {
        // Models the NIC's DMA from the sender's registered region into the
        // posted receive descriptor's region. svlint:allow(SV008)
        std::memcpy(rd.region->data() + rd.offset, d.region->data() + d.offset,
                    d.length);
      }
      ++sends_completed_;
    }
    sender_vi->send_cq_->push(send_c);
    receiver_vi->recv_cq_->push(recv_c);
  }
}

}  // namespace sv::via
