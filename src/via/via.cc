#include "via/via.h"

#include <algorithm>
#include <cstring>
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

Vi::Vi(Nic* nic, std::uint64_t id, std::shared_ptr<CompletionQueue> send_cq,
       std::shared_ptr<CompletionQueue> recv_cq)
    : nic_(nic),
      id_(id),
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
  nic_->post_send_internal(this, std::move(d));
}

Nic::Nic(sim::Simulation* sim, net::Node* node, net::CalibrationProfile profile)
    : sim_(sim),
      node_(node),
      profile_(std::move(profile)),
      model_(profile_),
      tx_queue_(sim, 0, node->name() + ".via_tx"),
      rx_queue_(sim, 0, node->name() + ".via_rx") {
  sim_->spawn(node->name() + ".via_tx_engine", [this] { tx_loop(); });
  sim_->spawn(node->name() + ".via_rx_engine", [this] { rx_loop(); });
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
  auto vi = std::make_shared<Vi>(this, next_vi_id_++, std::move(send_cq),
                                 std::move(recv_cq));
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

void Nic::post_send_internal(Vi* vi, Descriptor d) {
  // Doorbell + sender-side library work, serialized on the host TX path.
  node_->tx_host().use(model_.sender_time(d.length));
  tx_queue_.send(TxWork{vi, std::move(d)});
}

void Nic::tx_loop() {
  while (auto work = tx_queue_.recv()) {
    Vi* vi = work->vi;
    Vi* peer = vi->peer_;
    Nic* peer_nic = peer->nic_;
    // DMA out of host memory and across the wire into the peer NIC. The
    // propagation delay is fixed per NIC, so arrivals fire in push order
    // and each takes the oldest work in flight.
    peer_nic->node_->link_in().use(model_.wire_time(work->desc.length));
    propagating_.push_back(std::move(*work));
    sim_->schedule(profile_.propagation, [this] {
      TxWork& w = propagating_.front();
      w.vi->peer_->nic_->rx_queue_.send(RxWork{w.vi, std::move(w.desc)});
      propagating_.pop_front();
    });
  }
}

void Nic::rx_loop() {
  while (auto work = rx_queue_.recv()) {
    Vi* sender_vi = work->vi;
    Vi* receiver_vi = sender_vi->peer_;
    Descriptor& d = work->desc;
    // Receiver-side completion processing. RDMA writes land by DMA with no
    // receive-descriptor matching or host per-byte work — that is their
    // point; only a small NIC handling cost applies.
    if (d.op == Opcode::kRdmaWrite) {
      node_->rx_proto().use(profile_.recv_per_seg);
    } else {
      node_->rx_proto().use(model_.recv_time(d.length));
    }
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
