// Calibration profiles for the three transports the paper measures.
//
// The paper's testbed (16x Dell Precision 420, dual 1 GHz PIII, GigaNet
// cLAN1000 + cLAN5300, Linux 2.2.17) is not reproducible; instead each
// transport is described by a staged cost model whose constants are fitted
// to the published micro-benchmarks (Figure 4) and pipelining observations
// (Section 5.2.3):
//
//   | target                         | VIA    | SocketVIA | kernel TCP |
//   |--------------------------------|--------|-----------|------------|
//   | small-message one-way latency  | ~9 us  | ~9.5 us   | ~47.5 us   |
//   | peak streaming bandwidth       | 795 Mb | 763 Mb    | 510 Mb     |
//
// A message of n bytes is processed in three pipelined stages, each chunked
// into `segment_bytes` segments:
//   sender host:  send_fixed  + nseg*send_per_seg + n*send_per_byte
//   wire/DMA:                   nseg*wire_per_seg + n*wire_per_byte
//   receiver host: recv_fixed + nseg*recv_per_seg + n*recv_per_byte
// plus `propagation` (cable + switch) between wire and receiver stages.
//
// Interpretation of the fitted constants:
//  - kernel TCP pays large fixed syscall/context-switch costs (send_fixed,
//    recv_fixed ~13.5 us), per-MSS protocol work, and per-byte checksum+copy
//    costs on the receive path; its bottleneck is receiver host processing
//    (~22.9 us per 1460 B segment -> 510 Mbps).
//  - VIA is limited by the 32-bit/33 MHz PCI DMA path (~10 ns/B -> 795 Mbps)
//    with tiny per-descriptor overheads and ~9 us end-to-end setup.
//  - SocketVIA adds small socket-emulation bookkeeping per message and a
//    slightly higher effective per-byte wire cost (credit/header traffic on
//    the same DMA path), landing at 763 Mbps / 9.5 us.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace sv::net {

enum class Transport { kVia, kSocketVia, kKernelTcp };

[[nodiscard]] const char* transport_name(Transport t);

struct CalibrationProfile {
  std::string name;

  // Sender host stage.
  SimTime send_fixed;
  SimTime send_per_seg;
  PerByteCost send_per_byte;

  // Wire / DMA stage (charged against the receiver's link-in resource).
  SimTime wire_per_seg;
  PerByteCost wire_per_byte;
  SimTime propagation;

  // Receiver host stage (protocol processing).
  SimTime recv_fixed;
  SimTime recv_per_seg;
  PerByteCost recv_per_byte;

  // Attribution of the host-stage constants above to payload *copies*
  // (DESIGN.md §10): the per-byte memcpy cost of one user↔kernel crossing.
  // Already embedded in send_per_byte/recv_per_byte, so it never adds to
  // one_way()/stream_cycle(); it exists so experiments can scale copy cost
  // as an independent variable (bench/ablation_copycost). Zero for the
  // zero-copy transports (VIA, SocketVIA).
  PerByteCost copy_per_byte{};

  // Segmentation unit: TCP MSS, or the VIA DMA burst size.
  std::uint32_t segment_bytes = 1460;

  // Flow control: bytes in flight before the sender blocks
  // (socket buffer for TCP; credits * chunk for SocketVIA).
  std::uint64_t window_bytes = 64 * 1024;

  // Internal pipelining granularity of the executed fabric: messages are
  // streamed through the three stages in frames of this size, so large
  // transfers overlap stages the way real segment pipelines do. Set equal
  // to segment_bytes by the factories, which makes the executed fabric's
  // uncontended one-way time match CostModel::one_way exactly.
  std::uint64_t pipeline_frame_bytes = 4096;

  [[nodiscard]] static CalibrationProfile via();
  [[nodiscard]] static CalibrationProfile socket_via();
  /// Kernel TCP over the cLAN wire via the LANE IP-to-VI bridge — the
  /// "traditional sockets" the paper measures at 510 Mbps / ~47.5 us
  /// (Fast Ethernet could not reach 510 Mbps, so the paper's TCP numbers
  /// are LANE numbers).
  [[nodiscard]] static CalibrationProfile kernel_tcp();
  /// Kernel TCP over the testbed's 100 Mb/s Fast Ethernet — the paper's
  /// secondary interconnect; not plotted in its figures but useful as an
  /// additional baseline in ablations.
  [[nodiscard]] static CalibrationProfile fast_ethernet_tcp();
  [[nodiscard]] static CalibrationProfile for_transport(Transport t);
};

}  // namespace sv::net
