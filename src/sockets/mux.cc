#include "sockets/mux.h"

#include <optional>
#include <utility>

#include "common/check.h"

namespace sv::sockets {
namespace {

// Aggregate size caps: a batch closes at whichever limit hits first.
constexpr std::uint64_t kAggregateMaxBytes = 64 * 1024;
constexpr std::uint64_t kAggregateMaxMsgs = 64;
static_assert(kAggregateMaxBytes > 0 && kAggregateMaxMsgs > 0,
              "SendMux: aggregate caps must be positive");

// Per-record framing overhead charged to the wire (conn id + length).
constexpr std::uint64_t kHeaderBytes = 16;

}  // namespace

SendMux::State::State(sim::Simulation* sim_in, net::Cluster* cluster_in,
                      int node_in, SendMuxConfig cfg_in,
                      DeliveryFn on_delivery_in)
    : sim(sim_in),
      cluster(cluster_in),
      node(node_in),
      cfg(cfg_in),
      on_delivery(std::move(on_delivery_in)),
      name("mux.node" + std::to_string(node_in)),
      work_waiters(sim_in, name + ".work") {
  obs::Registry& reg = sim->obs().registry;
  const std::string nl = "{node=node" + std::to_string(node) + "}";
  reg.counter("mux.senders").inc();
  c_submitted = &reg.counter("mux.submitted" + nl);
  c_submitted_bytes = &reg.counter("mux.submitted_bytes" + nl);
  c_drops = &reg.counter("mux.drops" + nl);
  c_batches = &reg.counter("mux.batches" + nl);
  c_batch_records = &reg.counter("mux.batch_records" + nl);
  c_delivered = &reg.counter("mux.delivered" + nl);
  c_flushed = &reg.counter("mux.flushed" + nl);
  g_queued_bytes = &reg.gauge("mux.queued_bytes" + nl);
}

SendMux::SendMux(sim::Simulation* sim, net::Cluster* cluster, int node,
                 SendMuxConfig cfg, DeliveryFn on_delivery)
    : st_(std::make_shared<State>(sim, cluster, node, cfg,
                                  std::move(on_delivery))) {
  sim->start(State::sender_stage(st_));
}

SendMux::~SendMux() {
  // Stop intake; the co-owning sender/sink stages wind down on their own
  // (Pipe-style lifetime).
  if (!st_->stopping) {
    st_->stopping = true;
    st_->work_waiters.notify_all();
  }
}

SendMux::Lane& SendMux::State::lane(int dst) {
  auto it = lanes.find(dst);
  if (it != lanes.end()) return it->second;
  Lane& l = lanes[dst];
  l.pipe = std::make_unique<net::Pipe>(
      sim, &cluster->node(static_cast<std::size_t>(node)),
      &cluster->node(static_cast<std::size_t>(dst)),
      net::CalibrationProfile::for_transport(cfg.transport),
      name + "->" + std::to_string(dst));
  sim->start(sink_stage(shared_from_this(), dst));
  return l;
}

void SendMux::State::arm(int dst, Lane& l) {
  if (l.interested || l.q.empty()) return;
  l.interested = true;
  interest.push_back(dst);
  work_waiters.notify_one();
}

std::uint64_t SendMux::open_connection(int dst_node) {
  State& st = *st_;
  SV_ASSERT(!st.stopping, "SendMux::open_connection after shutdown");
  SV_ASSERT(dst_node >= 0 &&
                static_cast<std::size_t>(dst_node) < st.cluster->size(),
            "SendMux::open_connection: unknown destination node");
  st.lane(dst_node);  // materialize the pipe + sink
  const std::uint64_t id = st.next_conn++;
  st.conn_dst.emplace(id, dst_node);
  return id;
}

bool SendMux::submit(std::uint64_t conn, std::uint64_t bytes) {
  State& st = *st_;
  if (st.stopping) return false;
  auto it = st.conn_dst.find(conn);
  SV_ASSERT(it != st.conn_dst.end(), "SendMux::submit on a closed conn");
  Lane& l = st.lanes.at(it->second);
  if (l.queued_bytes + bytes > st.cfg.queue_cap_bytes) {
    st.c_drops->inc();
    return false;
  }
  l.q.push_back(MuxRecord{conn, bytes, st.sim->now()});
  l.queued_bytes += bytes;
  st.g_queued_bytes->add(static_cast<std::int64_t>(bytes));
  st.c_submitted->inc();
  st.c_submitted_bytes->inc(bytes);
  st.arm(it->second, l);
  return true;
}

void SendMux::close_connection(std::uint64_t conn) {
  // Queued records still deliver; only the id is retired.
  st_->conn_dst.erase(conn);
}

std::uint64_t SendMux::flush_lane(int dst_node) {
  State& st = *st_;
  auto it = st.lanes.find(dst_node);
  if (it == st.lanes.end()) return 0;
  Lane& l = it->second;
  const std::uint64_t flushed = l.q.size();
  // Only queued records go; `in_flight` keeps the records of aggregates
  // already on the pipe, which still deliver. The lane's interest entry
  // (if armed) stays in the sender's FIFO; the sender pops it, finds the
  // queue empty, and disarms — the protocol already handles an empty
  // drain.
  while (!l.q.empty()) l.q.pop_front();
  st.g_queued_bytes->add(-static_cast<std::int64_t>(l.queued_bytes));
  l.queued_bytes = 0;
  st.c_flushed->inc(flushed);
  return flushed;
}

void SendMux::shutdown() {
  State& st = *st_;
  if (st.stopping) return;
  st.stopping = true;
  st.work_waiters.notify_all();
}

int SendMux::node() const { return st_->node; }

std::uint64_t SendMux::batches() const { return st_->c_batches->value(); }

std::uint64_t SendMux::drops() const { return st_->c_drops->value(); }

sim::Stage SendMux::State::sender_stage(std::shared_ptr<State> self) {
  State& st = *self;
  while (true) {
    if (st.interest.empty()) {
      if (st.stopping) break;
      co_await st.work_waiters.wait_stage();
      continue;
    }
    const int dst = st.interest.front();
    st.interest.pop_front();
    Lane& l = st.lanes.at(dst);

    // Drain up to the aggregate caps into one fabric message. The first
    // record always fits (a lone oversized record must still ship). The
    // records wait in `in_flight` for the sink; the message carries only
    // their total size and their number.
    std::uint64_t records = 0;
    std::uint64_t total = 0;
    while (!l.q.empty() && records < kAggregateMaxMsgs) {
      const MuxRecord& r = l.q.front();
      const std::uint64_t need = kHeaderBytes + r.bytes;
      if (records > 0 && total + need > kAggregateMaxBytes) break;
      l.queued_bytes -= r.bytes;
      st.g_queued_bytes->add(-static_cast<std::int64_t>(r.bytes));
      total += need;
      ++records;
      l.in_flight.push_back(r);
      l.q.pop_front();
    }
    // Re-arm at the tail while the lane still has work: round-robin
    // fairness across destinations, FIFO within a lane.
    if (!l.q.empty()) {
      st.interest.push_back(dst);
    } else {
      l.interested = false;
    }
    if (records == 0) continue;

    net::Message m;
    m.bytes = total;
    m.tag = records;
    st.c_batches->inc();
    st.c_batch_records->inc(records);
    // Blocking send with no deadline (always ok): fabric flow control
    // (and, behind it, topology uplink queueing) backpressures the whole
    // mux, not a per-connection thread.
    (void)co_await l.pipe->send_task(std::move(m), SimTime::zero());
  }
  for (auto& [dst, l] : st.lanes) {
    if (l.pipe) l.pipe->close();
  }
}

sim::Stage SendMux::State::sink_stage(std::shared_ptr<State> self, int dst) {
  State& st = *self;
  Lane& l = st.lanes.at(dst);
  while (true) {
    const std::optional<net::Message> m = l.pipe->try_recv();
    if (!m) {
      if (l.pipe->drained()) co_return;
      co_await l.pipe->readable();
      continue;
    }
    // The pipe is in order, so this aggregate's records are the oldest
    // `tag` records in flight.
    for (std::uint64_t i = 0; i < m->tag; ++i) {
      const MuxRecord r = l.in_flight.front();
      l.in_flight.pop_front();
      st.c_delivered->inc();
      if (st.on_delivery) st.on_delivery(dst, r, st.sim->now());
    }
  }
}

}  // namespace sv::sockets
