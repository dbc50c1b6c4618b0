// SendMux: send-queue aggregation for thousands of connections per node.
//
// The paper's applications open one socket per peer and drive it from a
// dedicated thread — fine at 16 nodes, fatal at viz scale, where a single
// server fans out to thousands of clients. Following the aggregation design
// the Ibdxnet transport documents (arXiv:1812.01963), SendMux multiplexes
// any number of logical connections onto one net::Pipe per (src, dst) node
// pair and ONE sender process per node:
//
//   submit(conn, bytes)  appends a MuxRecord to the destination's send
//                        queue (bounded; overflow drops, like an open-loop
//                        generator's kernel socket buffer would) and marks
//                        the destination "interested".
//   sender process       round-robins over interested destinations,
//                        drains records up to the aggregate caps into
//                        one aggregate net::Message (per-record framing
//                        header included), and blocks in
//                        Pipe::send — so fabric backpressure throttles
//                        the mux without a thread per connection.
//   sink process (1/pipe) receives aggregates at the destination, splits
//                        them, and hands each record to the delivery
//                        callback with its end-to-end enqueue→delivery
//                        latency observable.
//
// The interest-set protocol (a deque of destination ids plus a per-lane
// "interested" flag) makes scheduling deterministic: destinations are
// served in the order they became ready, and a lane re-arms itself at the
// tail only while it still holds queued records.
//
// Threading: process count is O(destinations), not O(connections) — the
// scaling property the open-loop harness (src/harness/openloop.h) relies
// on to model millions of clients.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/copy_policy.h"
#include "mem/payload.h"
#include "net/calibration.h"
#include "net/cluster.h"
#include "net/fabric.h"
#include "sim/sync.h"

namespace sv::sockets {

/// One multiplexed application message inside an aggregate.
struct MuxRecord {
  std::uint64_t conn = 0;   ///< logical connection id (SendMux-assigned)
  std::uint64_t bytes = 0;  ///< application payload size
  SimTime enqueued{};       ///< when submit() queued it at the sender
  /// Buffer-region id for the selective-copy policy (0 = anonymous).
  std::uint64_t buffer = 0;
  /// Optional pooled payload. Refcounted: when the record is dropped at a
  /// full lane (or delivered and discarded), the last reference releases
  /// the chunk back to its BufferPool — `mem.pool_reuse` must reconcile.
  mem::Payload payload{};
};

struct SendMuxConfig {
  net::Transport transport = net::Transport::kSocketVia;
  /// Per-destination send-queue bound; submit() beyond it drops (the
  /// open-loop analogue of a full kernel socket buffer).
  std::uint64_t queue_cap_bytes = 4 * 1024 * 1024;
  /// Selective-copy policy consulted per drained record in the sender
  /// process (DESIGN.md §14). kStaticPool (default) = no consult, no
  /// engine, digests unchanged.
  mem::CopyPolicyConfig copy_policy{};
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
  /// first open_connection(); the sender process starts immediately.
  SendMux(sim::Simulation* sim, net::Cluster* cluster, int node,
          SendMuxConfig cfg, DeliveryFn on_delivery);
  ~SendMux();

  SendMux(const SendMux&) = delete;
  SendMux& operator=(const SendMux&) = delete;

  /// Opens a logical connection to `dst_node`; returns its id. O(1)
  /// simulated cost: connections are bookkeeping rows, not processes.
  std::uint64_t open_connection(int dst_node);

  /// Queues `bytes` on `conn`'s destination lane. Returns false (and
  /// counts a drop) when the lane's queue is at capacity. Never blocks —
  /// open-loop generators must not be flow-controlled by the system under
  /// test.
  bool submit(std::uint64_t conn, std::uint64_t bytes);

  /// As above, carrying a pooled payload and its buffer-region id for the
  /// copy policy. A dropped record destroys its payload immediately, which
  /// returns the chunk to its BufferPool (the refcount contract the
  /// overflow tests pin down).
  bool submit(std::uint64_t conn, std::uint64_t bytes, std::uint64_t buffer,
              mem::Payload payload);

  /// Closes a logical connection; records already queued still deliver.
  void close_connection(std::uint64_t conn);

  /// Drops every record still queued on the lane to `dst_node`, returning
  /// how many were discarded (counted under `mux.flushed`). Dropped
  /// payloads release their pooled chunks immediately. Used by the SLO
  /// control plane when `dst_node` is demoted: stale queued updates to a
  /// degraded replica would only arrive late, so they are shed rather
  /// than delivered. Records already drained into an in-flight aggregate
  /// still deliver. No-op for lanes that were never opened.
  std::uint64_t flush_lane(int dst_node);

  /// Flushes this node's registration cache (DESIGN.md §14), charging the
  /// deregistrations, and returns the bytes unpinned. Demoting a node
  /// must release its pinned memory — a degraded replica holding
  /// pin-down cache entries would defeat the point of shifting load off
  /// it. Returns 0 when no RegCache policy is configured.
  std::uint64_t flush_registrations();

  /// Stops intake; the sender process drains every lane, closes the pipes
  /// (sinks exit after the last delivery), then exits. Idempotent.
  void shutdown();

  [[nodiscard]] int node() const;
  /// Aggregates sent so far (reporting).
  [[nodiscard]] std::uint64_t batches() const;
  /// Records dropped at full lanes so far (reporting).
  [[nodiscard]] std::uint64_t drops() const;

 private:
  /// Per-destination lane: the shared pipe, its FIFO of pending records,
  /// and the interest flag for the sender's round-robin.
  struct Lane {
    std::unique_ptr<net::Pipe> pipe;
    std::deque<MuxRecord> q;
    std::uint64_t queued_bytes = 0;
    bool interested = false;
  };

  /// Mutable state co-owned by the sender/sink processes (Pipe-style), so
  /// the SendMux handle may be destroyed while batches are in flight.
  struct State : std::enable_shared_from_this<State> {
    State(sim::Simulation* sim_in, net::Cluster* cluster_in, int node_in,
          SendMuxConfig cfg_in, DeliveryFn on_delivery_in);

    Lane& lane(int dst);
    void arm(int dst, Lane& l);
    void sender_loop();
    void sink_loop(int dst);

    sim::Simulation* sim;
    net::Cluster* cluster;
    int node;
    SendMuxConfig cfg;
    DeliveryFn on_delivery;
    std::string name;

    std::map<int, Lane> lanes;
    std::deque<int> interest;
    sim::WaitQueue work_waiters;
    bool stopping = false;

    std::uint64_t next_conn = 0;
    /// conn id -> destination node; erased on close_connection.
    std::map<std::uint64_t, int> conn_dst;
    /// Per-record copy-policy engine (null under the static-pool default).
    std::unique_ptr<mem::CopyPolicy> policy;

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
