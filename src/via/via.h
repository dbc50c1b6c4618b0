// A functional Virtual Interface Architecture (VIA) provider library.
//
// Models the user-level NIC interface of the GigaNet cLAN: applications
// register memory, create VI endpoints, post send/receive descriptors to
// work queues, ring a doorbell, and reap completions from completion
// queues. All protocol machinery is executed (descriptor matching, queue
// depths, completion ordering, RDMA writes); only the *time* each step
// takes comes from the calibrated VIA profile (net/calibration.h).
//
// Semantics follow the VIA spec where it matters to the paper:
//  - Reliable delivery: data arrives in order, exactly once.
//  - A send arriving with no posted receive descriptor is an error
//    (completes with Status::kNoReceiveDescriptor at the *sender* CQ); the
//    sockets layer above avoids this with credit-based flow control,
//    exactly as SocketVIA did.
//  - RDMA write requires no receive descriptor and completes at the sender
//    only (the paper's future-work push/pull model builds on this).
//
// The NIC's transmit and receive engines are sim::Stage coroutines
// (sim/stage.h), not processes: a NIC owns no fiber stack, a descriptor
// costs coroutine resumes instead of fiber round trips, and every event
// keeps the (time, id) the process form gave it (DESIGN.md §5.2). The
// doorbell is written once, as the sim::Task Vi::post_send_task: a process
// runs it in place (post_send) and a stage awaits it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/calibration.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/ring_fifo.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sv::via {

/// Registered memory: VIA requires all transfer buffers to be registered
/// (pinned) before use. Backing storage is materialized so payload-carrying
/// transfers actually move bytes.
class MemoryRegion {
 public:
  MemoryRegion(std::uint64_t handle, std::size_t size)
      : handle_(handle), data_(size) {}

  [[nodiscard]] std::uint64_t handle() const { return handle_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::byte* data() { return data_.data(); }
  [[nodiscard]] const std::byte* data() const { return data_.data(); }

 private:
  std::uint64_t handle_;
  std::vector<std::byte> data_;
};

enum class Opcode { kSend, kRdmaWrite };

enum class Status {
  kSuccess,
  kNoReceiveDescriptor,  // send arrived with empty receive queue
  kLengthError,          // receive buffer too small for incoming data
  kFlushed,              // endpoint torn down with work outstanding
};

[[nodiscard]] const char* status_name(Status s);

/// A work descriptor (the VIP_DESCRIPTOR analogue).
struct Descriptor {
  Opcode op = Opcode::kSend;
  std::shared_ptr<MemoryRegion> region;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  /// 32-bit immediate delivered with the payload (like VIP immediate data).
  std::uint32_t immediate = 0;
  /// For RDMA write: remote region handle + offset.
  std::uint64_t remote_handle = 0;
  std::uint64_t remote_offset = 0;
  /// RDMA write with immediate data (VIA spec): after the data lands, a
  /// posted receive descriptor at the target is consumed and a receive
  /// completion carrying `immediate` is generated. Without it, RDMA writes
  /// are silent at the target.
  bool remote_notify = false;
  /// Application cookie returned in the completion.
  std::uint64_t cookie = 0;
};

struct Completion {
  Status status = Status::kSuccess;
  Opcode op = Opcode::kSend;
  std::uint64_t bytes = 0;
  std::uint32_t immediate = 0;
  std::uint64_t cookie = 0;
  SimTime timestamp;
};

/// Completion queue: multiple VIs may share one (as VIPL allows).
class CompletionQueue {
 public:
  CompletionQueue(sim::Simulation* sim, std::string name)
      : items_(sim, 0, std::move(name)) {}

  /// Blocks until a completion is available (VipCQWait).
  Completion wait() {
    auto c = items_.recv();
    if (!c) {
      throw std::logic_error("CompletionQueue: closed while waiting");
    }
    return *c;
  }
  /// Non-blocking poll (VipCQDone).
  std::optional<Completion> poll() { return items_.try_recv(); }
  /// wait()'s stage form: `while (!cq.pending()) co_await cq.readable();`
  /// then poll().
  [[nodiscard]] sim::WaitQueue::Wait readable() { return items_.readable(); }
  [[nodiscard]] std::size_t pending() const { return items_.size(); }

  void push(Completion c) { items_.send(std::move(c)); }

 private:
  sim::Channel<Completion> items_;
};

class Nic;

/// A connected Virtual Interface endpoint pair member.
class Vi {
 public:
  Vi(Nic* nic, std::shared_ptr<CompletionQueue> send_cq,
     std::shared_ptr<CompletionQueue> recv_cq);

  /// Connects this VI to a remote VI (both directions set symmetrically by
  /// Nic::connect). Must be connected before posting sends.
  [[nodiscard]] bool connected() const { return peer_ != nullptr; }

  /// Posts a receive descriptor (VipPostRecv). Never blocks.
  void post_recv(Descriptor d);
  /// Posts a send/RDMA descriptor and rings the doorbell (VipPostSend).
  /// Costs the doorbell time; the transfer itself is asynchronous. Runs
  /// post_send_task() in place.
  void post_send(Descriptor d);
  /// The one doorbell body, as a task (sim/task.h): a stage `co_await`s it
  /// with post_send()'s events. The VI must outlive the task.
  sim::Task<void> post_send_task(Descriptor d);

  [[nodiscard]] CompletionQueue& send_cq() { return *send_cq_; }
  [[nodiscard]] CompletionQueue& recv_cq() { return *recv_cq_; }

 private:
  friend class Nic;

  Nic* nic_;
  Vi* peer_ = nullptr;
  std::shared_ptr<CompletionQueue> send_cq_;
  std::shared_ptr<CompletionQueue> recv_cq_;
  std::deque<Descriptor> recv_queue_;
};

/// The per-node VIA NIC: owns memory registration, the transmit engine
/// that drains posted send descriptors in FIFO order and the receive
/// engine that matches them against posted receives.
class Nic {
 public:
  Nic(sim::Simulation* sim, net::Node* node,
      net::CalibrationProfile profile = net::CalibrationProfile::via());
  ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Registers (pins) memory; costs registration time.
  std::shared_ptr<MemoryRegion> register_memory(std::size_t size);
  /// Looks up a registered region by handle (RDMA target resolution).
  [[nodiscard]] std::shared_ptr<MemoryRegion> find_region(
      std::uint64_t handle) const;
  void deregister_memory(std::uint64_t handle);

  /// Creates an unconnected VI with fresh CQs (or caller-shared CQs).
  std::shared_ptr<Vi> create_vi();
  std::shared_ptr<Vi> create_vi(std::shared_ptr<CompletionQueue> send_cq,
                                std::shared_ptr<CompletionQueue> recv_cq);

  /// Connects two VIs (possibly on different NICs) as a reliable pair.
  static void connect(Vi& a, Vi& b);

  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] net::Node& node() { return *node_; }
  [[nodiscard]] std::uint64_t sends_completed() const {
    return sends_completed_;
  }
  [[nodiscard]] std::uint64_t recv_misses() const { return recv_misses_; }

 private:
  friend class Vi;

  struct TxWork {
    Vi* vi;  // the *sending* VI
    Descriptor desc;
  };
  struct RxWork {
    Vi* vi;  // the *sending* VI (receiver resolved via its peer link)
    Descriptor desc;
  };

  /// The transmit engine: per posted descriptor, the peer's link_in, then
  /// the propagation hand-off to the peer NIC's receive engine.
  sim::Stage tx_stage();
  /// The receive engine: rx_proto per descriptor, then descriptor matching
  /// and the completion-queue pushes.
  sim::Stage rx_stage();

  sim::Simulation* sim_;
  net::Node* node_;
  net::CalibrationProfile profile_;
  net::CostModel model_;
  std::uint64_t next_handle_ = 1;
  std::uint64_t next_vi_id_ = 1;
  std::vector<std::shared_ptr<MemoryRegion>> regions_;
  std::vector<std::shared_ptr<Vi>> vis_;
  sim::Channel<TxWork> tx_queue_;
  /// Work crossing the propagation delay to a peer NIC, oldest first.
  sim::RingFifo<TxWork> propagating_;
  sim::Channel<RxWork> rx_queue_;
  std::uint64_t sends_completed_ = 0;
  std::uint64_t recv_misses_ = 0;
};

}  // namespace sv::via
