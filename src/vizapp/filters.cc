#include "vizapp/filters.h"

#include <any>

namespace sv::viz {

void RepoFilter::init(dc::FilterContext& ctx) {
  if (!materialize_) return;
  mem::BufferPool::Options opts;
  opts.label = "viz.repo" + std::to_string(ctx.copy_index());
  pool_.emplace(&ctx.sim().obs(), opts);
}

void RepoFilter::process(dc::FilterContext& ctx) {
  const auto& query = std::any_cast<const Query&>(ctx.uow().work);
  for (auto block : plan_query(image_, query)) {
    if (block % copies_ != ctx.copy_index()) continue;  // not ours
    const std::uint64_t bytes = image_.block_size(block);
    if (io_cost_ != PerByteCost::zero()) {
      ctx.compute(io_cost_.for_bytes(bytes));
    }
    dc::DataBuffer b;
    b.bytes = bytes;
    b.tag = block;
    if (materialize_) {
      // Lease a pooled block and generate pixels straight into it; seal()
      // freezes it into an immutable payload that returns to the pool when
      // the last downstream view is released.
      // Sanctioned source-side staging: the generator writes fresh pixels,
      // so there is no application buffer for a CopyPolicy to avoid copying.
      mem::PooledBuffer lease = pool_->acquire(bytes);  // svlint:allow(SV013)
      std::byte* dst = lease.data();
      for (std::uint64_t j = 0; j < bytes; ++j) {
        dst[j] = pixel(block, j);
      }
      b.payload = std::move(lease).seal();
    }
    ctx.write(std::move(b));
  }
}

void StageFilter::process(dc::FilterContext& ctx) {
  while (auto b = ctx.read()) {
    if (compute_ != PerByteCost::zero()) {
      ctx.compute(compute_.for_bytes(b->bytes));
    }
    ctx.write(std::move(*b));
  }
}

void VizFilter::process(dc::FilterContext& ctx) {
  while (auto b = ctx.read()) {
    if (compute_ != PerByteCost::zero()) {
      ctx.compute(compute_.for_bytes(b->bytes));
    }
    if (b->materialized()) {
      ++payloads_verified_;
      // Guarded reads: going past the written extent is a caught contract
      // violation rather than UB (see DataBuffer::read_at).
      for (std::uint64_t j = 0; j < b->payload.size(); ++j) {
        if (b->read_byte(j) != RepoFilter::pixel(b->tag, j)) {
          ++payload_mismatches_;
          break;
        }
      }
    }
    bytes_drawn_ += b->bytes;
  }
}

}  // namespace sv::viz
