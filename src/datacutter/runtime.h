// The DataCutter runtime: instantiates a filter group onto the simulated
// cluster, connects transparent copies with sockets, runs each copy as a
// simulated process, and implements the stream protocol. Each stream
// endpoint's fan-in and each demand-driven ack drain is a sim::Stage
// (sim/stage.h) that awaits its socket's recv_task, so the copies are the
// only processes a runtime spawns:
//
//   - data buffers, end-of-work markers (one per UOW per producer copy),
//     and stream close travel in order on each point-to-point connection;
//   - a consumer's read() returns nullopt when *all* producer copies have
//     marked the current UOW done;
//   - Round-Robin or Demand-Driven distribution between consumer copies;
//     DD consumers acknowledge each buffer when they begin processing it,
//     and producers pick the copy with the fewest unacknowledged buffers
//     (Section 4.1 of the paper).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "datacutter/group.h"
#include "sim/stage.h"
#include "sockets/factory.h"

namespace sv::dc {

struct RuntimeOptions {
  net::Transport transport = net::Transport::kSocketVia;
  /// Demand-driven cap: a producer blocks rather than exceed this many
  /// unacknowledged buffers at every consumer (DataCutter's per-stream
  /// buffer pool). 0 = unbounded.
  std::int64_t dd_max_unacked = 4;
  /// I/O deadline for the runtime's blocking paths (stream writes, DD ack
  /// waits, acks/markers, and the filter read path). 0 = wait forever (the
  /// historical behaviour). With a nonzero deadline, a peer that stops
  /// making progress — e.g. a node stalled by a FaultPlan — surfaces as a
  /// thrown runtime error in the stuck filter process (rethrown by
  /// Simulation::run) instead of a silent hang; pair with
  /// Runtime::wait_completion_for for a Result at the application level.
  SimTime io_timeout = SimTime::zero();
};

/// Emitted when a sink filter copy completes a unit of work.
struct UowCompletion {
  std::uint64_t uow_id = 0;
  std::string filter;
  std::size_t copy = 0;
  SimTime at;
};

class Runtime {
 public:
  Runtime(sim::Simulation* sim, net::Cluster* cluster,
          sockets::SocketFactory* factory, FilterGroup group,
          RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Creates connections and spawns all filter-copy processes. Call once,
  /// before (or at) simulation start.
  void start();

  /// Enqueues a unit of work; every copy of every source filter receives
  /// it. Callable from processes or from plain code before run().
  void submit(Uow uow);
  /// Signals that no further units of work will arrive; streams drain and
  /// filters finalize.
  void close_input();

  /// Blocking wait (from a process) for the next sink-side completion.
  std::optional<UowCompletion> wait_completion();

  /// Timed wait: ErrorCode::kTimeout if no completion lands within
  /// `timeout` (<= 0 = wait forever), ErrorCode::kClosed after the
  /// completion stream ends. The clean way to bound an experiment that
  /// might be wedged on a faulty cluster.
  [[nodiscard]] Result<UowCompletion> wait_completion_for(SimTime timeout);

  /// Number of buffers each producer copy sent to each consumer copy on
  /// stream `stream_idx` (scheduling diagnostics).
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> distribution(
      std::size_t stream_idx) const;

  [[nodiscard]] const FilterGroup& group() const { return group_; }
  [[nodiscard]] const RuntimeOptions& options() const;

 private:
  class ContextImpl;
  struct CopyState;

  /// State shared between the Runtime handle and every spawned process, so
  /// the handle may be destroyed while the simulation still runs.
  struct Core;

  /// Feeds input `i`'s endpoint `k` into the copy's fan-in queue: each
  /// message, then end-of-stream as an empty item.
  static sim::Stage fan_in(std::shared_ptr<CopyState> cs, std::size_t i,
                           std::size_t k);
  /// Takes demand-driven acks from output `o`'s consumer copy `c` and
  /// wakes a producer waiting at the unacknowledged-buffer cap.
  static sim::Stage ack_drain(std::shared_ptr<CopyState> cs, std::size_t o,
                              std::size_t c);
  static void run_copy(const std::shared_ptr<CopyState>& cs);

  sim::Simulation* sim_;
  net::Cluster* cluster_;
  sockets::SocketFactory* factory_;
  FilterGroup group_;
  bool started_ = false;

  std::shared_ptr<Core> core_;
  std::vector<std::shared_ptr<CopyState>> copies_;
  // copies_ entries of source-filter copies (receive submitted UOWs).
  std::vector<std::shared_ptr<CopyState>> source_copies_;
};

}  // namespace sv::dc
