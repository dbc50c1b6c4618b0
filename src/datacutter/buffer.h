// DataBuffer: the unit of data flowing on DataCutter logical streams.
#pragma once

#include <any>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "mem/payload.h"

namespace sv::dc {

struct DataBuffer {
  /// Logical payload size; drives all transport and computation timing.
  std::uint64_t bytes = 0;
  /// Unit-of-work this buffer belongs to.
  std::uint64_t uow_id = 0;
  /// Application tag (e.g. chunk index within a query).
  std::uint64_t tag = 0;
  /// Payload view (mem/payload.h): empty for timing-only buffers, shared
  /// by reference otherwise — the runtime and transports never copy it;
  /// sub-chunks are zero-copy slices of the parent's payload.
  mem::Payload payload{};

  /// True when real payload bytes are attached (timing-only buffers carry
  /// none; virtual payloads flow through transports but hold no bytes).
  [[nodiscard]] bool materialized() const { return payload.materialized(); }

  /// Bounds-guarded payload access: returns a pointer to `len` contiguous
  /// bytes at `offset`. Reading past the written extent — beyond the
  /// materialized payload or beyond the buffer's logical size — is a
  /// contract violation (SV_ASSERT), not UB. Overflow-safe: `offset + len`
  /// is never formed, so adversarial offsets cannot wrap the check.
  [[nodiscard]] const std::byte* read_at(std::uint64_t offset,
                                         std::uint64_t len) const {
    SV_ASSERT(materialized(),
              "DataBuffer: payload read on a non-materialized buffer");
    SV_ASSERT(len <= bytes && offset <= bytes - len,
              "DataBuffer: read past logical extent");
    // Payload accessors re-check against the materialized extent with the
    // same overflow-safe form.
    return payload.contiguous_at(offset, len);
  }

  /// Single-byte guarded read.
  [[nodiscard]] std::byte read_byte(std::uint64_t i) const {
    return *read_at(i, 1);
  }
};

/// A unit of work: one application query handled by the filter group.
struct Uow {
  std::uint64_t id = 0;
  std::any work{};
};

}  // namespace sv::dc
