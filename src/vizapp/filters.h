// The visualization pipeline's filters (Figure 5): data repositories
// feeding processing stages feeding a single visualization server.
#pragma once

#include <cstdint>
#include <optional>

#include "common/units.h"
#include "datacutter/filter.h"
#include "mem/buffer_pool.h"
#include "vizapp/image.h"
#include "vizapp/query.h"

namespace sv::viz {

/// Source: each transparent copy owns the blocks with
/// `block_id % copies == copy_index` (declustered storage for parallel
/// I/O) and emits the owned blocks of each query.
class RepoFilter : public dc::Filter {
 public:
  RepoFilter(BlockedImage image, std::size_t copies,
             PerByteCost io_cost = PerByteCost::zero(),
             bool materialize_payloads = false)
      : image_(image),
        copies_(copies),
        io_cost_(io_cost),
        materialize_(materialize_payloads) {}

  /// Creates this copy's block pool (pooled host memory; blocks are
  /// re-leased as downstream consumers release their payload views).
  void init(dc::FilterContext& ctx) override;
  void process(dc::FilterContext& ctx) override;

  /// Deterministic pixel value for byte `offset` of block `block` (used to
  /// generate and to verify real payloads).
  static std::byte pixel(std::uint64_t block, std::uint64_t offset) {
    return static_cast<std::byte>((block * 167 + offset * 13 + 7) & 0xff);
  }

 private:
  BlockedImage image_;
  std::size_t copies_;
  PerByteCost io_cost_;
  bool materialize_;
  /// Pool for materialized blocks (created in init; unregistered host
  /// memory — the repository is an application, not a NIC).
  std::optional<mem::BufferPool> pool_;
};

/// Intermediate processing stage (Clipping / Subsampling in the paper's
/// Virtual Microscope): charges a linear per-byte computation and forwards.
class StageFilter : public dc::Filter {
 public:
  explicit StageFilter(PerByteCost compute) : compute_(compute) {}

  void process(dc::FilterContext& ctx) override;

 private:
  PerByteCost compute_;
};

/// Sink: the visualization server. Charges the viewing computation per
/// byte; the runtime emits a UOW completion when the whole query is drawn.
class VizFilter : public dc::Filter {
 public:
  explicit VizFilter(PerByteCost compute) : compute_(compute) {}

  void process(dc::FilterContext& ctx) override;

  [[nodiscard]] std::uint64_t bytes_drawn() const { return bytes_drawn_; }
  /// Count of payload-carrying buffers whose bytes did NOT match the
  /// deterministic pattern (end-to-end integrity check; 0 when healthy).
  [[nodiscard]] std::uint64_t payload_mismatches() const {
    return payload_mismatches_;
  }
  [[nodiscard]] std::uint64_t payloads_verified() const {
    return payloads_verified_;
  }

 private:
  PerByteCost compute_;
  std::uint64_t bytes_drawn_ = 0;
  std::uint64_t payload_mismatches_ = 0;
  std::uint64_t payloads_verified_ = 0;
};

}  // namespace sv::viz
