// Writing your own DataCutter filters: a checksummed data-reduction
// pipeline with real payload bytes.
//
// reader (2 copies) --> reducer (2 copies) --> collector
//
// The reader generates deterministic payload bytes; the reducer computes a
// running FNV-1a digest per buffer and forwards a reduced record; the
// collector folds the digests. The example verifies end-to-end payload
// integrity through the transport and prints the pipeline timeline —
// demonstrating filters, transparent copies, units of work, and the
// demand-driven stream.
//
//   $ ./filter_pipeline
#include <cstdio>
#include <numeric>
#include <optional>

#include "datacutter/runtime.h"
#include "mem/buffer_pool.h"

using namespace sv;
using namespace sv::literals;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, const sv::mem::Payload& data) {
  for (std::uint64_t i = 0; i < data.size(); ++i) {
    h ^= static_cast<std::uint64_t>(data.read_byte(i));
    h *= kFnvPrime;
  }
  return h;
}

/// Source: emits `buffers` buffers of deterministic bytes per unit of work.
class Reader : public dc::Filter {
 public:
  Reader(int buffers, std::size_t bytes) : buffers_(buffers), bytes_(bytes) {}

  void init(dc::FilterContext& ctx) override {
    // Pooled payload storage: buffers are re-leased as downstream copies
    // release them, so steady state allocates nothing (mem/buffer_pool.h).
    mem::BufferPool::Options opts;
    opts.label = "example.reader" + std::to_string(ctx.copy_index());
    pool_.emplace(&ctx.sim().obs(), opts);
  }

  void process(dc::FilterContext& ctx) override {
    for (int i = 0; i < buffers_; ++i) {
      // Each copy reads its own shard (interleaved).
      if (static_cast<std::size_t>(i) % 2 != ctx.copy_index()) continue;
      mem::PooledBuffer lease = pool_->acquire(bytes_);
      std::byte* dst = lease.data();
      for (std::size_t j = 0; j < bytes_; ++j) {
        dst[j] =
            static_cast<std::byte>((static_cast<std::size_t>(i) * 131 + j) &
                                   0xff);
      }
      dc::DataBuffer b;
      b.bytes = bytes_;
      b.tag = static_cast<std::uint64_t>(i);
      b.payload = std::move(lease).seal();
      ctx.compute(PerByteCost::nanos_per_byte(2).for_bytes(bytes_));  // I/O
      ctx.write(std::move(b));
    }
  }

 private:
  int buffers_;
  std::size_t bytes_;
  std::optional<mem::BufferPool> pool_;
};

/// Middle stage: digests each payload and forwards a small record.
class Reducer : public dc::Filter {
 public:
  void process(dc::FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      ctx.compute(PerByteCost::nanos_per_byte(10).for_bytes(b->bytes));
      const std::uint64_t digest =
          b->materialized() ? fnv1a(kFnvOffset, b->payload) : 0;
      dc::DataBuffer out;
      out.bytes = 16;  // digest record
      out.tag = digest;
      ctx.write(std::move(out));
    }
  }
};

/// Sink: folds the digests; exposes the result for verification.
class Collector : public dc::Filter {
 public:
  explicit Collector(std::uint64_t* folded) : folded_(folded) {}
  void process(dc::FilterContext& ctx) override {
    int got = 0;
    while (auto b = ctx.read()) {
      *folded_ ^= b->tag;
      ++got;
    }
    seen_ += got;
    if (got > 0) {  // the final call sees only end-of-stream
      std::printf("  [%.3f ms] collector: unit of work %llu done (%d records"
                  " so far)\n",
                  ctx.sim().now().ms(),
                  static_cast<unsigned long long>(ctx.uow().id), seen_);
    }
  }

 private:
  std::uint64_t* folded_;
  int seen_ = 0;
};

constexpr int kBuffers = 8;
constexpr std::size_t kBytes = 64 * 1024;

}  // namespace

int main() {
  sim::Simulation s;
  net::Cluster cluster(&s, 5);
  sockets::SocketFactory factory(&s, &cluster);

  std::uint64_t folded = 0;
  dc::FilterGroup group;
  group.add_filter("reader",
                   [] { return std::make_unique<Reader>(kBuffers, kBytes); },
                   {0, 1});
  group.add_filter("reducer", [] { return std::make_unique<Reducer>(); },
                   {2, 3});
  group.add_filter("collector",
                   [&folded] { return std::make_unique<Collector>(&folded); },
                   {4});
  group.add_stream("reader", "reducer", dc::SchedPolicy::kDemandDriven);
  group.add_stream("reducer", "collector", dc::SchedPolicy::kDemandDriven);

  dc::RuntimeOptions opts;
  opts.transport = net::Transport::kSocketVia;
  dc::Runtime rt(&s, &cluster, &factory, std::move(group), opts);
  rt.start();
  std::printf("running 3 units of work through reader(x2) -> reducer(x2) -> "
              "collector:\n");
  for (std::uint64_t q = 1; q <= 3; ++q) rt.submit(dc::Uow{q, {}});
  rt.close_input();
  s.run();

  // Recompute the expected folded digest locally.
  std::uint64_t expected = 0;
  for (int q = 0; q < 3; ++q) {
    for (int i = 0; i < kBuffers; ++i) {
      auto payload = std::make_shared<std::vector<std::byte>>(kBytes);
      for (std::size_t j = 0; j < kBytes; ++j) {
        (*payload)[j] = static_cast<std::byte>(
            (static_cast<std::size_t>(i) * 131 + j) & 0xff);
      }
      expected ^= fnv1a(kFnvOffset, mem::Payload::wrap(std::move(payload)));
    }
  }
  std::printf("\nfolded digest: %016llx (%s)\n",
              static_cast<unsigned long long>(folded),
              folded == expected ? "matches local recomputation"
                                 : "MISMATCH — payload corrupted!");
  std::printf("simulated wall time: %.3f ms; distribution reader->reducer: ",
              s.now().ms());
  for (const auto& row : rt.distribution(0)) {
    for (auto v : row) std::printf("%llu ", static_cast<unsigned long long>(v));
  }
  std::printf("\n");
  return folded == expected ? 0 : 1;
}
