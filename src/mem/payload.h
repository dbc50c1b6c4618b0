// Payload: the one payload type of the whole stack (DESIGN.md §10).
//
// A Payload is an immutable, refcounted chain of byte spans. Every layer —
// net::Message, the TCP stack's segments, VIA descriptors' logical
// contents, dc::DataBuffer, the vizapp filters — carries the same type, so
// "who copied the bytes" stops being an assumption smeared into closed-form
// per-byte costs and becomes an explicit, counted event (mem/ledger.h).
//
// Invariants:
//  * Immutable after construction. slice()/concat() share the underlying
//    storage — they adjust (storage, offset, length) views and refcounts,
//    never bytes. The only byte-touching operations in the tree are
//    copy_to()/copy_of() here and the BufferPool fill path; svlint rule
//    SV008 enforces that no other layer copies payload bytes.
//  * A span is either *backed* (shared storage, possibly from a registered
//    BufferPool) or *virtual* (a length with no bytes). Virtual spans let
//    timing-only experiments flow through the exact same segmentation and
//    reassembly code as materialized ones: the TCP stack slices an 8-byte
//    virtual header plus a 64 KiB virtual body into MSS pieces just as it
//    would real memory.
//  * All accessors use overflow-safe bounds checks
//    (`len <= size && offset <= size - len`), never `offset + len <= size`,
//    which wraps for adversarial inputs.
//  * A chain of at most one span (every virtual payload, every slice
//    within one buffer) lives inline, so slicing, concatenating and
//    copying it allocate nothing; longer chains keep their spans in a
//    heap vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "sim/ring_fifo.h"

namespace sv::mem {

class Payload {
 public:
  /// Shared immutable storage for one backed span.
  using Storage = std::shared_ptr<const std::vector<std::byte>>;

  /// Empty payload (zero bytes, zero spans).
  Payload() = default;

  /// A length-only payload: no bytes exist, only timing flows. Slicing and
  /// concatenation work exactly as for backed payloads.
  static Payload virtual_bytes(std::uint64_t n);

  /// Wraps existing immutable storage without copying. `registered` marks
  /// storage pinned for DMA (a registered BufferPool or via::MemoryRegion).
  static Payload wrap(Storage bytes, bool registered = false);

  /// The ONLY sanctioned byte copy into a fresh payload (besides the
  /// BufferPool fill path). Layers outside src/mem/ must not copy payload
  /// bytes themselves (svlint SV008); they call this and charge the copy
  /// through mem::charge_copy.
  static Payload copy_of(const std::byte* src, std::size_t n);

  [[nodiscard]] std::uint64_t size() const {
    if (const Span* one = std::get_if<Span>(&rep_)) return one->len;
    return std::get<Chain>(rep_).size;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Number of spans in the chain (1 for a freshly wrapped buffer; slicing
  /// and concatenation grow/shrink it without touching bytes).
  [[nodiscard]] std::size_t span_count() const { return spans().size(); }

  /// True when every byte is backed by real storage (and the payload is
  /// non-empty). Timing-only payloads — empty or virtual — return false.
  [[nodiscard]] bool materialized() const;

  /// True when the payload is non-empty and every span lives in registered
  /// (DMA-pinned) memory — i.e. a NIC could send it with zero host copies.
  [[nodiscard]] bool registered() const;

  /// Zero-copy sub-range view [offset, offset+len). Shares storage.
  [[nodiscard]] Payload slice(std::uint64_t offset, std::uint64_t len) const;

  /// Zero-copy concatenation: `this` followed by `tail`. Shares storage.
  [[nodiscard]] Payload concat(const Payload& tail) const;

  /// Bounds-guarded single-byte read; SV_ASSERT on virtual spans.
  [[nodiscard]] std::byte read_byte(std::uint64_t i) const;

  /// Contiguous view of [offset, offset+len): valid only when the range
  /// falls inside one backed span (SV_ASSERT otherwise). For ranges that
  /// may straddle spans use copy_to().
  [[nodiscard]] const std::byte* contiguous_at(std::uint64_t offset,
                                               std::uint64_t len) const;

  /// Gathers [offset, offset+len) into `dst`. This IS a byte copy: callers
  /// own charging it through the ledger. SV_ASSERT on virtual spans.
  void copy_to(std::uint64_t offset, std::byte* dst, std::uint64_t len) const;

  /// Byte-wise equality of materialized contents (both must be fully
  /// backed and of equal size). Used by tests; reads, never copies.
  [[nodiscard]] bool content_equals(const Payload& other) const;

 private:
  // No default member initializers: the variant below needs Span default-
  // constructible inside this class, and a value-initialized Span is the
  // empty payload.
  struct Span {
    Storage bytes;         // null => virtual span
    std::uint64_t offset;  // start within *bytes (0 for virtual)
    std::uint64_t len;
    bool registered;
  };
  /// A chain of two or more spans, with their total length.
  struct Chain {
    std::vector<Span> spans;
    std::uint64_t size = 0;
  };

  /// The chain's spans in order; none for an empty payload.
  [[nodiscard]] std::span<const Span> spans() const;
  void append_span(Span s);
  /// Grows `back` by `s` when `s` continues it (the next bytes of the same
  /// storage, or more virtual bytes); false when it does not.
  static bool extend(Span& back, const Span& s);

  /// One span inline (a zero-length one is the empty payload), or a Chain.
  std::variant<Span, Chain> rep_;
};

static_assert(sizeof(Payload) <= 48,
              "Payload is held by value in every message and segment");

/// FIFO byte-stream assembly of Payload chains: the TCP stack pushes
/// payloads into its send stream and pops MSS-sized slices for segments;
/// the receive side pushes in-order segment payloads and pops whole frames.
/// pop() shares storage with what was pushed — no bytes move.
class PayloadQueue {
 public:
  void push(Payload p);
  /// Removes and returns the first `n` bytes (SV_ASSERT n <= bytes()).
  Payload pop(std::uint64_t n);
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return bytes_ == 0; }

 private:
  // A ring: a stream that never fully drains (a long TCP transfer) keeps
  // only its live parts, not one slot per payload ever pushed.
  sim::RingFifo<Payload> parts_;
  std::uint64_t front_offset_ = 0;  // consumed prefix of the front part
  std::uint64_t bytes_ = 0;
};

}  // namespace sv::mem
