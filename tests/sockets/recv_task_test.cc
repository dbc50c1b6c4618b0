// A transport's receive is one body, SvSocket::recv_task: a process runs it
// in place (recv_for) and a stage awaits it. On every transport both forms
// fire the same events and receive the same messages, with a deadline that
// trips, one that does not and none; the copy-cost ablation charges the
// awaited receive as it charges recv_for; and a SocketVIA pair demuxes its
// completions without a process.
#include "sockets/socket.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "datacutter/local_socket.h"
#include "sim/simulation.h"
#include "sim/stage.h"
#include "sim/task.h"
#include "sockets/factory.h"
#include "sockets/via_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

constexpr sim::QueueKind kQueueKinds[] = {sim::QueueKind::kTimingWheel,
                                          sim::QueueKind::kReferenceHeap};

/// The objects a receive script shares with the processes around it.
struct World {
  explicit World(sim::QueueKind kind) : s(kind) {}

  void note(const Result<std::optional<net::Message>>& r) {
    std::string what = std::to_string(s.now().ns());
    if (!r.ok()) {
      what += r.timed_out() ? " timed out" : " failed";
    } else if (!r.value()) {
      what += " eof";
    } else {
      const net::Message& m = *r.value();
      what += " got " + std::to_string(m.tag) + " " +
              std::to_string(m.bytes) + " B sent " +
              std::to_string(m.sent_at.ns()) + " delivered " +
              std::to_string(m.delivered_at.ns());
    }
    log.push_back(what);
  }

  sim::Simulation s;
  net::Cluster cluster{&s, 2};
  std::unique_ptr<SocketFactory> factory;
  std::vector<std::unique_ptr<via::Nic>> nics;
  SocketPair pair;
  /// The receiver's deadline for each receive, in order.
  std::vector<SimTime> timeouts;
  std::vector<std::string> log;
};

/// Builds the pair under test into `w.pair`, node 0 to node 1.
using PairMaker = std::function<void(World&)>;

PairMaker factory_pair(Fidelity fidelity, net::Transport transport,
                       int copy_scale_pct = 0) {
  return [=](World& w) {
    w.factory = std::make_unique<SocketFactory>(&w.s, &w.cluster, fidelity);
    w.factory->set_copy_cost_scale_pct(copy_scale_pct);
    w.pair = w.factory->connect(0, 1, transport);
  };
}

PairMaker via_pair(ViaDataPath path) {
  return [=](World& w) {
    w.nics.push_back(std::make_unique<via::Nic>(&w.s, &w.cluster.node(0)));
    w.nics.push_back(std::make_unique<via::Nic>(&w.s, &w.cluster.node(1)));
    w.pair = DetailedViaSocket::make_pair(*w.nics[0], *w.nics[1],
                                          {.data_path = path});
  };
}

PairMaker local_pair() {
  return [](World& w) {
    w.pair = dc::LocalSocket::make_pair(&w.s, &w.cluster.node(0), "local");
  };
}

/// Three messages, 5 ms of silence, two more (one larger than a 16 KiB
/// VIA chunk), then end-of-stream.
void sender(World* w) {
  SvSocket& a = *w->pair.first;
  std::uint64_t tag = 0;
  for (const std::uint64_t bytes : {std::uint64_t{4}, std::uint64_t{1460},
                                    std::uint64_t{20'000}}) {
    a.send(net::Message{.bytes = bytes, .tag = tag++});
  }
  w->s.delay(5_ms);
  for (const std::uint64_t bytes :
       {std::uint64_t{40'000}, std::uint64_t{4096}}) {
    a.send(net::Message{.bytes = bytes, .tag = tag++});
  }
  a.close_send();
}

void receive_process(World* w) {
  for (const SimTime t : w->timeouts) {
    const Result<std::optional<net::Message>> r = w->pair.second->recv_for(t);
    w->note(r);
    if (r.ok() && !r.value()) return;
  }
}

sim::Stage receive_stage(World* w) {
  for (const SimTime t : w->timeouts) {
    const Result<std::optional<net::Message>> r =
        co_await w->pair.second->recv_task(t);
    w->note(r);
    if (r.ok() && !r.value()) co_return;
  }
}

struct Outcome {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  SimTime end{};
  std::vector<std::string> log;
};

Outcome run_receive_script(sim::QueueKind kind, const PairMaker& make,
                           const std::vector<SimTime>& timeouts,
                           bool as_stage) {
  World w(kind);
  make(w);
  w.timeouts = timeouts;
  w.s.spawn("sender", [&w] { sender(&w); });
  if (as_stage) {
    w.s.start(receive_stage(&w));
  } else {
    w.s.spawn("receiver", [&w] { receive_process(&w); });
  }
  w.s.run();
  return {w.s.events_fired(), w.s.engine().trace_digest(), w.s.now(), w.log};
}

/// Runs the script as a process and as a stage on both queue kinds and
/// requires the same events, digest, end time and log; returns the log.
std::vector<std::string> expect_same_in_both_forms(
    const PairMaker& make, const std::vector<SimTime>& timeouts) {
  std::vector<std::string> log;
  for (const sim::QueueKind kind : kQueueKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    const Outcome proc = run_receive_script(kind, make, timeouts, false);
    const Outcome stage = run_receive_script(kind, make, timeouts, true);
    EXPECT_EQ(stage.events, proc.events);
    EXPECT_EQ(stage.digest, proc.digest);
    EXPECT_EQ(stage.end, proc.end);
    EXPECT_EQ(stage.log, proc.log);
    log = proc.log;
  }
  return log;
}

std::size_t count_of(const std::vector<std::string>& log,
                     const std::string& what) {
  std::size_t n = 0;
  for (const std::string& line : log) {
    if (line.find(what) != std::string::npos) ++n;
  }
  return n;
}

const std::vector<std::pair<std::string, PairMaker>>& transports() {
  static const std::vector<std::pair<std::string, PairMaker>> cases = {
      {"fast kernel TCP",
       factory_pair(Fidelity::kFast, net::Transport::kKernelTcp)},
      {"fast SocketVIA",
       factory_pair(Fidelity::kFast, net::Transport::kSocketVia)},
      {"DataCutter local", local_pair()},
      {"detailed kernel TCP",
       factory_pair(Fidelity::kDetailed, net::Transport::kKernelTcp)},
      {"detailed SocketVIA sends", via_pair(ViaDataPath::kSend)},
      {"detailed SocketVIA RDMA push", via_pair(ViaDataPath::kRdmaWrite)},
  };
  return cases;
}

TEST(RecvTaskTest, AwaitedReceiveFiresTheEventsOfRecvFor) {
  const std::vector<SimTime> no_deadline(6, SimTime::zero());
  const std::vector<SimTime> untripped(6, 1_s);
  // The fourth receive waits 1 ms into the sender's 5 ms of silence.
  const std::vector<SimTime> trips = {1_s, 1_s, 1_s, 1_ms, 1_s, 1_s, 1_s};
  for (const auto& [name, make] : transports()) {
    SCOPED_TRACE(name);
    const std::vector<std::string> plain =
        expect_same_in_both_forms(make, no_deadline);
    ASSERT_EQ(plain.size(), 6u);
    EXPECT_EQ(count_of(plain, " got "), 5u);
    EXPECT_EQ(count_of(plain, " eof"), 1u);
    EXPECT_EQ(expect_same_in_both_forms(make, untripped), plain);

    const std::vector<std::string> tripped =
        expect_same_in_both_forms(make, trips);
    ASSERT_EQ(tripped.size(), 7u);
    EXPECT_EQ(count_of(tripped, " timed out"), 1u);
    EXPECT_NE(tripped[3].find(" timed out"), std::string::npos) << tripped[3];
    // The timeout strands nothing: the same messages arrive around it.
    std::vector<std::string> without_timeout = tripped;
    without_timeout.erase(without_timeout.begin() + 3);
    EXPECT_EQ(without_timeout, plain);
  }
}

TEST(RecvTaskTest, CopyAblationChargesTheAwaitedReceive) {
  // A kernel-TCP receive charges its kernel-to-user copy; at scale 100 the
  // copy also costs time, which the awaited task sleeps where recv_for
  // delays.
  const std::vector<SimTime> no_deadline(6, SimTime::zero());
  for (const Fidelity fidelity : {Fidelity::kFast, Fidelity::kDetailed}) {
    SCOPED_TRACE(static_cast<int>(fidelity));
    const std::vector<std::string> free_copies = expect_same_in_both_forms(
        factory_pair(fidelity, net::Transport::kKernelTcp), no_deadline);
    const std::vector<std::string> charged = expect_same_in_both_forms(
        factory_pair(fidelity, net::Transport::kKernelTcp, 100), no_deadline);
    ASSERT_EQ(charged.size(), free_copies.size());
    EXPECT_EQ(count_of(charged, " got "), 5u);
    EXPECT_NE(charged, free_copies) << "the ablation moved no receive";
  }
}

TEST(RecvTaskTest, DetailedViaPairSpawnsNoProcess) {
  for (const ViaDataPath path : {ViaDataPath::kSend, ViaDataPath::kRdmaWrite}) {
    World w(sim::QueueKind::kTimingWheel);
    via_pair(path)(w);
    w.timeouts.assign(6, SimTime::zero());
    w.s.start(receive_stage(&w));
    EXPECT_EQ(w.s.live_process_count(), 0u);
    w.s.spawn("sender", [&w] { sender(&w); });
    w.s.run();
    EXPECT_EQ(w.s.live_process_count(), 0u);
    EXPECT_EQ(count_of(w.log, " got "), 5u);
  }
}

}  // namespace
}  // namespace sv::sockets
