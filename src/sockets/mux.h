// SendMux: send-queue aggregation for thousands of connections per node.
//
// The paper's applications open one socket per peer and drive it from a
// dedicated thread — fine at 16 nodes, fatal at viz scale, where a single
// server fans out to thousands of clients. Following the aggregation design
// the Ibdxnet transport documents (arXiv:1812.01963), SendMux multiplexes
// any number of logical connections onto one net::Pipe per (src, dst) node
// pair and ONE sender stage per node:
//
//   submit(conn, bytes)  appends a MuxRecord to the destination's send
//                        queue (bounded; overflow drops, like an open-loop
//                        generator's kernel socket buffer would) and marks
//                        the destination "interested".
//   sender stage         round-robins over interested destinations,
//                        drains records up to the aggregate caps into
//                        one aggregate net::Message (per-record framing
//                        header included), and awaits Pipe::send_task —
//                        so fabric backpressure throttles the mux without
//                        a thread per connection.
//   sink stage (1/pipe)  receives aggregates at the destination and
//                        hands each of their records to the delivery
//                        callback with its end-to-end enqueue→delivery
//                        latency observable.
//
// The sender and sinks are sim::Stage coroutines (DESIGN.md §5.2): a mux
// owns no fiber, and each schedules exactly the events its process form
// would.
//
// The records themselves never cross the pipe. The sender moves each
// drained record into its lane's in-flight FIFO and sends only the
// aggregate's size and record count (in `Message::tag`); the pipe is
// reliable and in order, so the sink pops that many records off the
// front. A record is delivered exactly once, in submit order per lane.
//
// The interest-set protocol (a FIFO of destination ids plus a per-lane
// "interested" flag) makes scheduling deterministic: destinations are
// served in the order they became ready, and a lane re-arms itself at the
// tail only while it still holds queued records.
//
// Once warmed up, submitting, draining and delivering allocate nothing
// (DESIGN.md §12): every queue is a sim::RingFifo.
//
// Threading: stage count is O(destinations), not O(connections) — the
// scaling property the open-loop harness (src/harness/openloop.h) relies
// on to model millions of clients.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/calibration.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "sim/ring_fifo.h"
#include "sim/sync.h"

namespace sv::sockets {

/// One multiplexed application message inside an aggregate.
struct MuxRecord {
  std::uint64_t conn = 0;   ///< logical connection id (SendMux-assigned)
  std::uint64_t bytes = 0;  ///< application payload size
  SimTime enqueued{};       ///< when submit() queued it at the sender
};

struct SendMuxConfig {
  net::Transport transport = net::Transport::kSocketVia;
  /// Per-destination send-queue bound; submit() beyond it drops (the
  /// open-loop analogue of a full kernel socket buffer).
  std::uint64_t queue_cap_bytes = 4 * 1024 * 1024;
};

class SendMux {
 public:
  /// Called at the destination for every delivered record. `delivered_at`
  /// minus `rec.enqueued` is the client-visible update latency (queueing +
  /// aggregation + fabric).
  using DeliveryFn =
      std::function<void(int dst_node, const MuxRecord& rec,
                         SimTime delivered_at)>;

  /// One mux per sending node. Pipes to destinations are created lazily on
  /// first open_connection(); the sender stage starts immediately.
  SendMux(sim::Simulation* sim, net::Cluster* cluster, int node,
          SendMuxConfig cfg, DeliveryFn on_delivery);
  ~SendMux();

  SendMux(const SendMux&) = delete;
  SendMux& operator=(const SendMux&) = delete;

  /// Opens a logical connection to `dst_node`; returns its id. O(1)
  /// simulated cost: connections are bookkeeping rows, not stages.
  std::uint64_t open_connection(int dst_node);

  /// Queues `bytes` on `conn`'s destination lane. Returns false (and
  /// counts a drop) when the lane's queue is at capacity. Never blocks —
  /// open-loop generators must not be flow-controlled by the system under
  /// test.
  bool submit(std::uint64_t conn, std::uint64_t bytes);

  /// Closes a logical connection; records already queued still deliver.
  void close_connection(std::uint64_t conn);

  /// Drops every record still queued on the lane to `dst_node`, returning
  /// how many were discarded (counted under `mux.flushed`). Used by the
  /// SLO control plane when `dst_node` is demoted: stale queued updates to
  /// a degraded replica would only arrive late, so they are shed rather
  /// than delivered. Records already drained into an in-flight aggregate
  /// still deliver. No-op for lanes that were never opened.
  std::uint64_t flush_lane(int dst_node);

  /// Stops intake; the sender stage drains every lane, closes the pipes
  /// (sinks exit after the last delivery), then exits. Idempotent.
  void shutdown();

  [[nodiscard]] int node() const;
  /// Aggregates sent so far (reporting).
  [[nodiscard]] std::uint64_t batches() const;
  /// Records dropped at full lanes so far (reporting).
  [[nodiscard]] std::uint64_t drops() const;

 private:
  /// Per-destination lane: the shared pipe, its FIFO of queued records,
  /// the records of the aggregates on the pipe (oldest first), and the
  /// interest flag for the sender's round-robin.
  struct Lane {
    std::unique_ptr<net::Pipe> pipe;
    sim::RingFifo<MuxRecord> q;
    sim::RingFifo<MuxRecord> in_flight;
    std::uint64_t queued_bytes = 0;
    bool interested = false;
  };

  /// Mutable state co-owned by the sender/sink stages (Pipe-style), so
  /// the SendMux handle may be destroyed while batches are in flight.
  struct State : std::enable_shared_from_this<State> {
    State(sim::Simulation* sim_in, net::Cluster* cluster_in, int node_in,
          SendMuxConfig cfg_in, DeliveryFn on_delivery_in);

    Lane& lane(int dst);
    void arm(int dst, Lane& l);
    static sim::Stage sender_stage(std::shared_ptr<State> self);
    static sim::Stage sink_stage(std::shared_ptr<State> self, int dst);

    sim::Simulation* sim;
    net::Cluster* cluster;
    int node;
    SendMuxConfig cfg;
    DeliveryFn on_delivery;
    std::string name;

    std::map<int, Lane> lanes;
    sim::RingFifo<int> interest;
    sim::WaitQueue work_waiters;
    bool stopping = false;

    std::uint64_t next_conn = 0;
    /// conn id -> destination node; erased on close_connection.
    std::map<std::uint64_t, int> conn_dst;

    obs::Counter* c_submitted;
    obs::Counter* c_submitted_bytes;
    obs::Counter* c_drops;
    obs::Counter* c_batches;
    obs::Counter* c_batch_records;
    obs::Counter* c_delivered;
    obs::Counter* c_flushed;
    obs::Gauge* g_queued_bytes;
  };

  std::shared_ptr<State> st_;
};

}  // namespace sv::sockets
