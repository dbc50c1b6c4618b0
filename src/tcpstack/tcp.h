// A simplified in-simulator kernel TCP: the "traditional sockets" baseline.
//
// Executed machinery: MSS segmentation, byte sequence numbers with
// cumulative ACKs, sliding-window flow control against the receiver's
// buffer, delayed-ACK (ack every 2nd segment or after a timeout), Nagle's
// algorithm, blocking send/recv with socket buffers (one body each for
// sending and for draining exactly n bytes, which waits until a deadline;
// send() and recv_exact() pass none, and the drain is a sim::Task that a
// stage can await), FIN/close sequencing,
// and real loss recovery: a retransmission timer with exponential backoff,
// duplicate-ACK fast retransmit, and out-of-order reassembly at the
// receiver. Per-segment and per-syscall costs come from the calibrated
// kernel-TCP profile; segments occupy the same per-node tx/link/rx
// resources as every other transport, so TCP contends realistically with
// itself and with VIA traffic.
//
// The engines are sim::Stage coroutines (sim/stage.h), not processes: each
// stack runs a wire stage (the destination's link_in and the fault
// injector per segment, then propagation) and a receive stage (rx_proto,
// then segment and ACK processing), and each connection a transmit stage
// (tx_host per segment, then the wire). A stack owns no fiber stack, a
// segment costs coroutine resumes instead of fiber round trips, and every
// event keeps the (time, id) the process form gave it (DESIGN.md §5.2).
//
// The fabric drops segments only under an installed net::FaultPlan
// (DESIGN.md §8; net/fault.h): the paper's cLAN/FastEthernet LAN was
// loss-free, so the baseline runs never retransmit, while fault-injection
// experiments exercise RTO expiry and fast retransmit deterministically.
//
// Deliberate simplifications (documented in DESIGN.md): congestion control
// is not modeled (no cwnd — the paper's LAN is a single switch with no
// cross traffic); receive-window state is read directly rather than carried
// in ACK headers (window *timing* effects are still modeled via the
// ACK-gated send buffer).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "mem/payload.h"
#include "net/calibration.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "obs/metrics.h"
#include "sim/ring_fifo.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sv::tcpstack {

/// Initial retransmission timeout. Scaled for a microsecond-RTT LAN
/// (kernels of the era clamped RTO to >= 200 ms, which would make lossy
/// runs glacial in simulated time without changing the recovery logic);
/// comfortably above the delayed-ACK timeout so lone segments do not
/// spuriously retransmit.
inline constexpr SimTime kRtoInitial = SimTime::milliseconds(1);

struct TcpOptions {
  std::uint32_t mss = 1460;
  std::uint64_t send_buffer = 64 * 1024;
  std::uint64_t recv_buffer = 64 * 1024;
  bool nagle = true;
  bool delayed_ack = true;
};

class TcpConnection;
class TcpStack;

/// One segment on the wire: data (carrying any pending ACK) or a pure ACK.
struct Segment {
  TcpConnection* sender = nullptr;  // sending endpoint
  std::uint64_t seq = 0;            // starting sequence of the payload
  std::uint64_t bytes = 0;          // payload bytes (0 for pure ACK)
  std::uint64_t ack = 0;            // cumulative ack (receiver's rcv_nxt)
  bool has_ack = false;
  bool fin = false;
  /// Zero-copy slice of the sender's stream (empty for pure ACKs).
  mem::Payload payload{};
};

/// One endpoint of an established connection. Byte-stream semantics.
class TcpConnection {
 public:
  TcpConnection(TcpStack* stack, std::string name, TcpOptions options);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Blocking send of `bytes` (copied into the socket buffer; blocks while
  /// the buffer is full). Returns when all bytes are buffered. Timing-only:
  /// the stream carries a virtual payload of `bytes` bytes.
  void send(std::uint64_t bytes);

  /// The one send body: buffers a payload chain, blocking while the socket
  /// buffer is full. The stack slices it into segments by reference
  /// (mem/payload.h): retransmit buffers and reassembly hold views, never
  /// copies. The modeled user→kernel copy time is the send_per_byte
  /// charge; the *event* is counted by the socket layer. ErrorCode::kTimeout
  /// if buffer space stops freeing up before `deadline` (a peer that stops
  /// ACKing, e.g. a stalled node); bytes already buffered stay queued, so
  /// treat a timeout as fatal for the stream. SimTime::max() waits forever.
  [[nodiscard]] Result<void> send_until(mem::Payload payload,
                                        SimTime deadline);

  /// Blocking receive: returns 1..max bytes, or 0 at end-of-stream.
  std::uint64_t recv(std::uint64_t max);

  /// MSG_WAITALL-style receive: blocks until exactly `n` bytes are drained
  /// (or end-of-stream; returns bytes actually read). Runs
  /// recv_exact_task() in place.
  std::uint64_t recv_exact(std::uint64_t n);

  /// recv_exact returning the drained bytes as a payload chain assembled
  /// zero-copy from the delivered segments (short on end-of-stream). On a
  /// `deadline` that passes first it returns ErrorCode::kTimeout and the
  /// partially drained bytes are lost to the caller, so treat a timeout as
  /// fatal for the stream (the recovery story the DataCutter runtime needs
  /// for stalled peers). SimTime::max() waits forever. Runs
  /// recv_exact_task() in place.
  [[nodiscard]] Result<mem::Payload> recv_exact_until(std::uint64_t n,
                                                      SimTime deadline);
  /// The one MSG_WAITALL body, as a task (sim/task.h) that a stage or a
  /// socket's receive task awaits: drains `n` bytes by `deadline` and
  /// returns how many it drained. When `out` is non-null the drained bytes
  /// are appended to it as zero-copy slices. The connection must outlive
  /// the task.
  sim::Task<Result<std::uint64_t>> recv_exact_task(std::uint64_t n,
                                                   SimTime deadline,
                                                   mem::Payload* out);

  /// Half-closes the sending direction (FIN after all queued data).
  void close();

  // Statistics live in the simulation's obs::Registry under
  // `tcpstack.*{conn=<name>#<serial>}` (DESIGN.md §9); these accessors
  // forward to the registry counters.
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return c_bytes_sent_->value();
  }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return c_bytes_received_->value();
  }
  [[nodiscard]] std::uint64_t segments_sent() const {
    return c_segments_sent_->value();
  }
  [[nodiscard]] std::uint64_t acks_sent() const { return c_acks_sent_->value(); }
  /// Loss-recovery counters (all zero on a loss-free fabric).
  [[nodiscard]] std::uint64_t segments_retransmitted() const {
    return c_retx_->value();
  }
  [[nodiscard]] std::uint64_t rto_expirations() const {
    return c_rto_expirations_->value();
  }
  [[nodiscard]] std::uint64_t fast_retransmits() const {
    return c_fast_retx_->value();
  }
  [[nodiscard]] std::uint64_t dup_acks_received() const {
    return c_dup_acks_->value();
  }
  [[nodiscard]] std::uint64_t ooo_segments_received() const {
    return c_ooo_->value();
  }
  /// Current RTO (exposed so tests can observe the exponential backoff).
  [[nodiscard]] SimTime current_rto() const { return rto_current_; }
  [[nodiscard]] const TcpOptions& options() const { return options_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TcpStack& stack() const { return *stack_; }
  /// The remote endpoint's node (valid once connected).
  [[nodiscard]] net::Node& peer_node() const;

 private:
  friend class TcpStack;

  // A sent-but-unacked or out-of-order held segment keeps a zero-copy view
  // of its payload slice, so retransmits and reassembly re-use the
  // original storage (never copy).
  struct HeldSegment {
    std::uint64_t bytes = 0;
    bool fin = false;
    mem::Payload payload{};
  };
  // The retransmit ring has no key, so each entry carries its sequence.
  struct UnackedSegment {
    std::uint64_t seq = 0;
    HeldSegment held{};
  };

  /// The transmit stage: picks the next segment (a retransmit, new data
  /// or a FIN), holds tx_host for send_per_seg, puts it on the wire and
  /// arms the RTO; waits on tx_wake_ when nothing may be sent.
  sim::Stage tx_stage();
  /// Books a fresh segment of `bytes` payload (seq = snd_nxt_), slicing
  /// its bytes off the front of the unsent stream, and returns it for the
  /// transmit stage to send.
  Segment send_segment(std::uint64_t bytes, bool fin);
  /// Books a re-send of the earliest unacknowledged segment (go-back
  /// recovery) and returns it for the transmit stage to send.
  Segment retransmit_front();
  void arm_rto();
  void cancel_rto();
  void on_rto_expiry();
  /// Receiver side: segment arrived off the wire (any order).
  void on_segment(std::uint64_t seq, std::uint64_t bytes, bool fin,
                  mem::Payload payload);
  /// Delivers one in-sequence segment into the receive buffer.
  void accept_segment(std::uint64_t bytes, bool fin, mem::Payload payload);
  /// Sender side: cumulative ACK. `pure` marks a data-free segment, the
  /// only kind that counts toward the duplicate-ACK threshold.
  void on_ack(std::uint64_t ackno, bool pure);
  void send_ack_now();
  void maybe_ack();
  [[nodiscard]] std::uint64_t peer_window_available() const;
  /// Binds the per-link retransmit counter; requires peer_ (called from
  /// TcpStack::connect once both endpoints exist).
  void bind_link_obs();
  [[nodiscard]] obs::Tracer& tracer() const;
  [[nodiscard]] int node_id() const;

  TcpStack* stack_;
  std::string name_;
  TcpOptions options_;
  TcpConnection* peer_ = nullptr;

  // --- send side (sequence space: payload bytes; FIN occupies one) ---
  std::uint64_t snd_una_ = 0;  // oldest unacknowledged sequence
  std::uint64_t snd_nxt_ = 0;  // next sequence to assign
  /// Sent-but-unacked segments in sequence order: send_segment appends
  /// at increasing seq and cumulative ACKs retire from the front.
  /// Boundaries are fixed at first transmission, so retransmits never
  /// partially overlap.
  sim::RingFifo<UnackedSegment> unacked_;
  std::uint64_t unsent_bytes_ = 0;    // buffered, not yet segmented
  /// Payload views of the buffered-but-unsegmented stream, in order;
  /// always holds exactly unsent_bytes_ bytes.
  mem::PayloadQueue unsent_stream_;
  std::uint64_t inflight_bytes_ = 0;  // payload bytes sent, not yet ACKed
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool retx_pending_ = false;  // RTO/fast-retransmit handoff to tx stage
  std::uint32_t dup_acks_ = 0;
  /// Fast-recovery guard (NewReno-style): once a fast retransmit fires,
  /// further duplicate ACKs for the same hole must not retrigger it until
  /// the cumulative ACK passes the highest sequence outstanding at the
  /// time of the retransmit.
  bool in_recovery_ = false;
  std::uint64_t recover_seq_ = 0;
  SimTime rto_current_;
  bool rto_armed_ = false;
  sim::EventId rto_event_{};
  sim::WaitQueue send_space_;  // senders blocked on a full socket buffer
  sim::WaitQueue tx_wake_;     // tx stage wakeups (data/ack/window/retx)

  // --- receive side ---
  std::uint64_t rcv_nxt_ = 0;  // next expected sequence
  /// Out-of-order segments held for reassembly, by starting sequence.
  std::map<std::uint64_t, HeldSegment> ooo_segments_;
  std::uint64_t recv_buf_bytes_ = 0;
  /// In-order delivered payload awaiting recv(); holds recv_buf_bytes_.
  mem::PayloadQueue recv_stream_;
  bool fin_received_ = false;
  std::uint64_t unacked_segments_ = 0;
  bool ack_timer_armed_ = false;
  sim::WaitQueue recv_wait_;

  // --- stats (obs::Registry counters, bound in the constructor) ---
  obs::Counter* c_bytes_sent_;
  obs::Counter* c_bytes_received_;
  obs::Counter* c_segments_sent_;
  obs::Counter* c_acks_sent_;
  obs::Counter* c_retx_;
  obs::Counter* c_rto_expirations_;
  obs::Counter* c_fast_retx_;
  obs::Counter* c_dup_acks_;
  obs::Counter* c_ooo_;
  /// Per-link `tcpstack.segments_retransmitted{link=s->d}` (the number the
  /// fault-invariant tests compare against injector drops); bound once the
  /// peer is known.
  obs::Counter* c_retx_link_ = nullptr;
  // Recovery-episode span tracking (tracer only; no timing effect).
  bool in_recovery_episode_ = false;
  SimTime recovery_started_{};
};

/// The per-node kernel TCP instance.
class TcpStack {
 public:
  TcpStack(sim::Simulation* sim, net::Node* node,
           net::CalibrationProfile profile =
               net::CalibrationProfile::kernel_tcp());
  ~TcpStack();

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Establishes a connection between two stacks (three-way handshake cost
  /// charged to the caller, who must be a simulated process). Returns the
  /// (client_endpoint, server_endpoint) pair.
  static std::pair<std::shared_ptr<TcpConnection>,
                   std::shared_ptr<TcpConnection>>
  connect(TcpStack& client, TcpStack& server, TcpOptions options = {});

  [[nodiscard]] sim::Simulation& sim() { return *sim_; }
  [[nodiscard]] net::Node& node() { return *node_; }
  [[nodiscard]] const net::CostModel& model() const { return model_; }
  [[nodiscard]] const net::CalibrationProfile& profile() const {
    return profile_;
  }

 private:
  friend class TcpConnection;

  /// The wire stage: per segment, the destination's link_in and the fault
  /// injector, then the propagation hand-off to the peer's receive stage.
  sim::Stage wire_stage();
  /// The receive stage: rx_proto per segment, then the receiving
  /// endpoint's segment and ACK processing.
  sim::Stage rx_stage();

  sim::Simulation* sim_;
  net::Node* node_;
  net::CalibrationProfile profile_;
  net::CostModel model_;
  sim::Channel<Segment> wire_out_;
  sim::Channel<Segment> rx_queue_;
  std::vector<std::shared_ptr<TcpConnection>> connections_;
  std::uint64_t next_conn_id_ = 1;
};

}  // namespace sv::tcpstack
