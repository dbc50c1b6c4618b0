// The executed transport fabric: flow-controlled, staged message pipes.
//
// A Pipe is one unidirectional connection between two nodes, parameterized
// by a CalibrationProfile. Each message is split into pipeline frames that
// cross three stages:
//
//   sender (process or stage) --(window)--> [tx_host] --> wire stage
//        [fabric hops, link_in @ dst] --propagation event--> proto stage
//        [rx_proto @ dst] --> receive queue
//
// The wire and protocol stages are sim::Stage coroutines (sim/stage.h), not
// processes: a pipe owns no fiber stack, and a stage hop costs a coroutine
// resume instead of a fiber round trip. Each stage schedules exactly the
// events a process running the same loop would (DESIGN.md §5.2), so every
// event keeps its (time, id).
//
// Stage occupancy uses the per-node shared resources from cluster.h, so
// concurrent connections contend realistically (the mechanism behind the
// paper's application-level results). Flow control returns window credit
// when the receiver-side protocol stage finishes a frame, modeling the TCP
// advertised window / SocketVIA credit scheme. Sending has one body, the
// sim::Task send_task(), whose window wait takes a deadline: a stage
// co_awaits it, send_for() runs it in place in a process, and send() is
// send_for() with no deadline. The timed receive is a task too,
// recv_task(), which FastSocket's receive task awaits.
//
// Lifetime: the stage frames co-own the pipe state, so a Pipe handle may be
// destroyed at any simulated time; in-flight work finishes against the
// shared state and the stages wind down. Nodes and the Simulation must
// outlive message flow.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mem/payload.h"
#include "net/calibration.h"
#include "net/cluster.h"
#include "net/cost_model.h"
#include "sim/ring_fifo.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sv::net {

struct Message {
  /// Logical size that drives all timing (payload need not be materialized).
  std::uint64_t bytes = 0;
  /// Per-pipe sequence number, assigned by send().
  std::uint64_t seq = 0;
  /// Application tag (e.g. DataCutter stream id or query id).
  std::uint64_t tag = 0;
  /// Timestamps for latency accounting.
  SimTime sent_at{};
  SimTime delivered_at{};
  /// Payload view (mem/payload.h): empty for pure timing messages,
  /// virtual or materialized otherwise. Shared by reference — the fabric
  /// and every transport move it without copying bytes (svlint SV008);
  /// copies happen only at modeled user↔kernel boundaries and are charged
  /// through mem::charge_copy.
  mem::Payload payload{};
  /// Buffer-region id for the selective-copy policy layer (DESIGN.md §14):
  /// messages sharing a `buffer` reuse the same registered region, which
  /// is what the pin-down RegCache keys on. 0 (default) means "anonymous
  /// one-shot buffer" — never a cache hit against another message.
  std::uint64_t buffer = 0;
};

class Pipe {
 public:
  /// Creates a connected pipe from `src` to `dst`. Starts the wire stage,
  /// then the protocol stage. The Simulation must outlive all message flow.
  Pipe(sim::Simulation* sim, Node* src, Node* dst, CalibrationProfile profile,
       std::string name);
  ~Pipe();

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Blocking send (call from a simulated process on the source node's
  /// side). Blocks while the flow-control window is exhausted, then spends
  /// the sender-host time before returning (the blocking-socket model the
  /// paper's applications use).
  void send(Message m);

  /// Like send(), but the wait on the flow-control window gives up after
  /// `timeout` (<= 0 = wait forever; send() is send_for with no deadline)
  /// with ErrorCode::kTimeout. Frames already admitted stay in flight, so
  /// a timed-out pipe must be treated as failed by the caller. Runs
  /// send_task() in place.
  [[nodiscard]] Result<void> send_for(Message m, SimTime timeout);
  /// The one send body, as a task (sim/task.h): a stage `co_await`s it and
  /// gets send_for()'s result, with the same events. The pipe must outlive
  /// the task.
  sim::Task<Result<void>> send_task(Message m, SimTime timeout);

  /// Blocking receive; nullopt after close() once drained.
  std::optional<Message> recv();
  /// Timed receive, as a task (sim/task.h): ok(nullopt) means
  /// closed-and-drained, kTimeout means nothing was deliverable within
  /// `timeout` (<= 0 = wait forever). A stage `co_await`s it; a process
  /// runs it in place. The pipe must outlive the task.
  sim::Task<Result<std::optional<Message>>> recv_task(SimTime timeout);
  /// The stage form of recv(): take with try_recv(); when it finds nothing
  /// and drained() is false, `co_await readable()` and try again.
  [[nodiscard]] sim::WaitQueue::Wait readable();
  std::optional<Message> try_recv();
  /// True once the stream has ended and every message was received: recv()
  /// would return nullopt.
  [[nodiscard]] bool drained() const;

  /// Closes the sending side; in-flight messages still deliver, then
  /// receivers see end-of-stream.
  void close();

  [[nodiscard]] const CostModel& model() const;
  [[nodiscard]] const std::string& name() const;

  /// Totals for reporting.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  /// Frames internally re-sent after fault-injected wire loss. The fast
  /// fabric stays reliable and in-order: a lost frame costs a fixed
  /// recovery pause plus a second wire crossing (see net/fault.h).
  [[nodiscard]] std::uint64_t frames_retransmitted() const;

 private:
  /// A pipeline frame. The message it ends waits in State::messages.
  struct Frame {
    std::uint64_t bytes = 0;
    bool first = false;
    bool last = false;
    bool eof = false;
  };

  /// All mutable pipe state, co-owned by the two stage frames (and the
  /// propagation events) so the Pipe handle can be destroyed while work is
  /// still in flight.
  struct State {
    State(sim::Simulation* sim_in, Node* src_in, Node* dst_in,
          CalibrationProfile profile_in, std::string name_in);

    [[nodiscard]] SimTime sender_frame_time(const Frame& f) const;
    [[nodiscard]] SimTime recv_frame_time(const Frame& f) const;
    /// The wire stage: per frame, the fabric hops, link_in and any fault
    /// recovery, then the propagation hand-off to the protocol stage.
    static sim::Stage wire_stage(std::shared_ptr<State> self);
    /// The protocol stage: rx_proto per frame, window credit, delivery.
    static sim::Stage proto_stage(std::shared_ptr<State> self);

    sim::Simulation* sim;
    Node* src;
    Node* dst;
    CalibrationProfile profile;
    CostModel model;
    std::string name;
    /// Switch fabric between src and dst (nullptr = single crossbar). The
    /// wire stage walks `route` (computed once: routing is pure) before the
    /// destination's link_in, and `fabric_latency` (path hops * hop
    /// latency) extends propagation.
    Topology* topo = nullptr;
    Topology::Path route{};
    SimTime fabric_latency{};

    std::uint64_t next_seq = 0;
    bool closed = false;

    // Registry-backed statistics (bound in the constructor): per-pipe
    // totals under `{pipe=<name>#<serial>}` plus per-link aggregates
    // shared by every pipe crossing the same (src, dst) link.
    obs::Counter* c_msgs_sent;
    obs::Counter* c_bytes_sent;
    obs::Counter* c_frames_retx;
    obs::Counter* c_frames_retx_total;
    obs::Counter* c_frames_link;
    obs::Counter* c_frame_bytes_sent_link;
    obs::Counter* c_frame_bytes_recv_link;
    obs::Counter* c_wire_ns_link;
    obs::Gauge* g_in_flight_link;
    obs::Counter* c_msgs_recv_total;
    obs::Histogram* h_msg_latency;

    std::uint64_t in_flight_bytes = 0;
    sim::WaitQueue window_waiters;

    sim::Channel<Frame> to_wire;
    /// The messages whose last frame is in to_wire, propagating or
    /// to_proto, in last-frame order: the protocol stage takes the front
    /// one on each last frame.
    sim::RingFifo<Message> messages;
    /// Frames crossing the propagation delay, oldest first.
    sim::RingFifo<Frame> propagating;
    sim::Channel<Frame> to_proto;
    sim::Channel<Message> delivered;
  };

  std::shared_ptr<State> st_;
};

}  // namespace sv::net
