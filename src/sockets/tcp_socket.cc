#include "sockets/tcp_socket.h"

#include <limits>
#include <utility>

#include "mem/payload.h"

namespace sv::sockets {
namespace {

/// Sentinel meta entry marking the sender's half-close.
bool is_eof_marker(const net::Message& m) {
  return m.bytes == std::numeric_limits<std::uint64_t>::max();
}

net::Message eof_marker() {
  net::Message m;
  m.bytes = std::numeric_limits<std::uint64_t>::max();
  return m;
}

/// Builds the on-wire frame for `m` and strips its payload: an 8-byte
/// virtual length header followed by the body. A message without a
/// materialized payload sends a virtual body of the same length, so
/// timing-only and materialized traffic take the identical stream path.
mem::Payload take_frame(net::Message& m, std::uint64_t header_bytes) {
  mem::Payload body = m.payload.empty() && m.bytes > 0
                          ? mem::Payload::virtual_bytes(m.bytes)
                          : std::move(m.payload);
  m.payload = mem::Payload{};
  return mem::Payload::virtual_bytes(header_bytes).concat(body);
}

/// Re-attaches the received body to the meta message. Virtual bodies (the
/// sender had no materialized payload) collapse back to an empty payload so
/// receivers see exactly what the sender's message carried.
void attach_body(net::Message& m, const mem::Payload& frame,
                 std::uint64_t header_bytes) {
  mem::Payload body = frame.slice(header_bytes, m.bytes);
  m.payload = body.materialized() ? std::move(body) : mem::Payload{};
}

}  // namespace

SocketPair DetailedTcpSocket::make_pair(tcpstack::TcpStack& a,
                                        tcpstack::TcpStack& b,
                                        tcpstack::TcpOptions options) {
  auto [ca, cb] = tcpstack::TcpStack::connect(a, b, options);
  auto dir_ab = std::make_shared<Direction>(&a.sim());
  auto dir_ba = std::make_shared<Direction>(&a.sim());
  std::unique_ptr<SvSocket> sa(
      new DetailedTcpSocket(std::move(ca), dir_ab, dir_ba));
  std::unique_ptr<SvSocket> sb(
      new DetailedTcpSocket(std::move(cb), std::move(dir_ba),
                            std::move(dir_ab)));
  return {std::move(sa), std::move(sb)};
}

Result<void> DetailedTcpSocket::send_for(net::Message m, SimTime timeout) {
  sim::Simulation& sim = conn_->stack().sim();
  const std::uint64_t bytes = m.bytes;
  const SimTime start = obs_now();
  const SimTime deadline = sim.deadline_after(timeout);
  m.sent_at = sim.now();
  mem::Payload frame = take_frame(m, kHeaderBytes);
  // Metadata rides an in-order side queue; the frame bytes go through the
  // full TCP machinery. Single writer per socket assumed (as in DataCutter).
  outgoing_->metas.push_back(std::move(m));
  outgoing_->meta_available.notify_all();
  // Handing user bytes to the stack models the write()-side user->kernel
  // copy; its time is already in the calibrated per-byte send cost.
  const SimTime copy = note_copy(CopyStage::kUserToKernel, bytes);
  if (copy > SimTime::zero()) sim.delay(copy);
  auto r = conn_->send_until(std::move(frame), deadline);
  if (!r.ok()) {
    note_timeout("timeout.sndbuf");
    return r;
  }
  note_sent(bytes);
  obs_span(start, "send", bytes);
  return r;
}

sim::Task<Result<std::optional<net::Message>>> DetailedTcpSocket::recv_task(
    SimTime timeout) {
  sim::Simulation& sim = conn_->stack().sim();
  const SimTime start = obs_now();
  const SimTime deadline = sim.deadline_after(timeout);
  while (incoming_->metas.empty()) {
    if (!co_await incoming_->meta_available.wait_until_stage(deadline) &&
        incoming_->metas.empty()) {
      note_timeout("timeout.recv");
      co_return Error::timeout("DetailedTcpSocket: recv timed out");
    }
  }
  if (is_eof_marker(incoming_->metas.front())) {
    co_return std::optional<net::Message>{};
  }
  // Drain the frame by the same deadline; the meta entry is consumed only
  // on success so a timed-out socket fails loudly, not subtly.
  mem::Payload frame;
  auto drained = co_await conn_->recv_exact_task(
      kHeaderBytes + incoming_->metas.front().bytes, deadline, &frame);
  if (!drained.ok()) {
    note_timeout("timeout.recv_drain");
    co_return drained.error();
  }
  net::Message m = std::move(incoming_->metas.front());
  incoming_->metas.pop_front();
  attach_body(m, frame, kHeaderBytes);
  const SimTime copy = note_copy(CopyStage::kKernelToUser, m.bytes);
  if (copy > SimTime::zero()) co_await sim.sleep(copy);
  m.delivered_at = sim.now();
  note_received(m.bytes);
  obs_span(start, "recv", m.bytes);
  co_return std::optional<net::Message>(std::move(m));
}

void DetailedTcpSocket::close_send() {
  outgoing_->metas.push_back(eof_marker());
  outgoing_->meta_available.notify_all();
  conn_->close();
}

}  // namespace sv::sockets
