// SocketVIA, executed: the user-level sockets layer over the VIA provider.
//
// Implements the design of the paper's substrate (see also Balaji et al.,
// OSU-CISRC-1/03-TR05): each endpoint pre-registers and pre-posts a pool of
// receive descriptors; senders chunk messages and spend *credits* so a
// chunk never arrives without a matching receive descriptor; receivers
// return credits in batched credit-update messages on the same VI. Message
// boundaries and kinds ride the VIA immediate data. EOF is an in-band
// control message.
//
// One credit protocol, two transfer verbs (ViaSocketOptions::data_path):
//  - kSend, SocketVIA: each chunk is a two-sided send into a posted peer
//    buffer, so a credit is a posted buffer, and the calibrated SocketVIA
//    bookkeeping delta over raw VIA is charged per send, chunk and message.
//  - kRdmaWrite, the push model the paper names as future work: each chunk
//    is a one-sided RDMA write into a slot ring the peer registered, and
//    RDMA-write-with-immediate is the notification (VIA spec semantics).
//    A credit is a free ring slot. Data lands by DMA, only the dataless
//    notifications consume receive descriptors, and no socket bookkeeping
//    is charged, so a busy receiver host does not throttle the data path.
//
// All data and control messages are real via::Vi descriptors, so flow
// control, credit traffic, and completion handling all cost simulated time
// through the calibrated VIA profile.
//
// Each endpoint's receive completions are demultiplexed by a sim::Stage
// (sim/stage.h), not a process: it re-posts descriptors, returns credits
// and delivers complete messages. The credit updates it sends ring the
// doorbell through Vi::post_send_task, the task a process runs in place.
//
// Lifetime: the demux stages co-own the connection state, so socket
// handles may be destroyed at any simulated time. The via::Nic objects and
// the Simulation must outlive message flow.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>

#include "sim/sync.h"
#include "sockets/socket.h"
#include "via/via.h"

namespace sv::sockets {

/// How a data chunk reaches the peer.
enum class ViaDataPath {
  kSend,       // two-sided send into a posted peer buffer (SocketVIA)
  kRdmaWrite,  // RDMA write into the peer's slot ring (the push model)
};

struct ViaSocketOptions {
  /// Chunk size (a receive buffer or a ring slot); larger messages are
  /// chunked.
  std::uint64_t chunk_bytes = 16 * 1024;
  /// Number of data credits (posted peer buffers or peer ring slots).
  /// Window = credits*chunk.
  std::uint32_t credits = 8;
  /// Return credits after this many chunks are consumed.
  std::uint32_t credit_batch = 4;
  ViaDataPath data_path = ViaDataPath::kSend;
};

class DetailedViaSocket final : public SvSocket {
 public:
  /// Builds a connected pair over two NICs. Registers and posts the buffer
  /// pools (costs time when called inside a process).
  static SocketPair make_pair(via::Nic& a, via::Nic& b,
                              ViaSocketOptions options = {});
  ~DetailedViaSocket() override;

  /// Send with credit-stall detection: if the receiver stops returning
  /// credits (e.g. its node is stalled) the send gives up after `timeout`
  /// instead of blocking forever on credit_wait.
  [[nodiscard]] Result<void> send_for(net::Message m, SimTime timeout) override;
  /// Timed receive (ok(nullopt) = EOF; kTimeout = nothing delivered).
  sim::Task<Result<std::optional<net::Message>>> recv_task(
      SimTime timeout) override;
  void close_send() override;

  /// Diagnostics for tests.
  [[nodiscard]] std::uint32_t available_credits() const;
  [[nodiscard]] std::uint64_t credit_updates_sent() const;

 private:
  // Immediate-data encoding: kind in the top 2 bits, value in the low 30.
  enum Kind : std::uint32_t {
    kFirst = 0,   // value = total chunk count of the message
    kCont = 1,    // continuation chunk
    kCredit = 2,  // value = credits returned
    kEof = 3,     // sender half-closed
  };
  static constexpr std::uint32_t kKindShift = 30;
  static constexpr std::uint32_t kValueMask = (1u << kKindShift) - 1;

  /// Per-endpoint connection state, co-owned by the demux stage.
  struct Side {
    Side(sim::Simulation* sim, int index);

    via::Nic* nic = nullptr;
    std::shared_ptr<via::Vi> vi;
    std::shared_ptr<via::MemoryRegion> send_region;
    /// Push path only: the slot ring the peer RDMA-writes into.
    std::shared_ptr<via::MemoryRegion> ring;
    std::shared_ptr<via::MemoryRegion> recv_pool;

    // Sender state (this side sending to the peer).
    std::deque<net::Message> outgoing_meta;
    std::uint32_t credits = 0;
    std::uint64_t next_slot = 0;  // push path: monotone peer-ring cursor
    sim::WaitQueue credit_wait;
    bool send_closed = false;

    // Receiver state (this side receiving from the peer).
    sim::Channel<net::Message> delivered;
    std::uint64_t pending_chunks = 0;
    std::uint32_t consumed_since_credit = 0;
    /// Registry counter `via_sock.credit_updates{side=<serial>}`, bound in
    /// setup_side.
    obs::Counter* credit_updates = nullptr;
  };

  struct PairState {
    PairState(sim::Simulation* sim_in, ViaSocketOptions options_in)
        : sim(sim_in), options(options_in), sides{Side(sim_in, 0),
                                                  Side(sim_in, 1)} {}
    sim::Simulation* sim;
    ViaSocketOptions options;
    std::array<Side, 2> sides;

    [[nodiscard]] bool rdma() const {
      return options.data_path == ViaDataPath::kRdmaWrite;
    }
    /// Charges SocketVIA's calibrated bookkeeping delta over raw VIA to
    /// the calling process. The push path skips the delay altogether: a
    /// zero delay would still schedule an event.
    void bookkeeping(SimTime cost);
    void setup_side(int i, via::Nic& nic, std::shared_ptr<via::Vi> vi);
    void post_one_recv(int i);
    /// Sends a dataless control message (credit update or EOF) from side
    /// `i` and reaps its send completions.
    sim::Task<void> send_control(int i, Kind kind, std::uint32_t value);
  };

  /// Side `i`'s receive demultiplexer: per receive completion, re-posts the
  /// descriptor, then takes returned credits, EOF or a data chunk, and
  /// returns credits once a batch of chunks is consumed.
  static sim::Stage demux_stage(std::shared_ptr<PairState> state, int i);

  DetailedViaSocket(std::shared_ptr<PairState> state, int side);

  [[nodiscard]] Side& mine() const {
    return state_->sides[static_cast<std::size_t>(side_)];
  }

  std::shared_ptr<PairState> state_;
  int side_;
};

}  // namespace sv::sockets
