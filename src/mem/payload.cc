#include "mem/payload.h"

#include <algorithm>

#include "common/check.h"

namespace sv::mem {

Payload Payload::virtual_bytes(std::uint64_t n) {
  Payload p;
  if (n > 0) p.append_span(Span{nullptr, 0, n, false});
  return p;
}

Payload Payload::wrap(Storage bytes, bool registered) {
  Payload p;
  if (bytes != nullptr && !bytes->empty()) {
    const std::uint64_t n = bytes->size();
    p.append_span(Span{std::move(bytes), 0, n, registered});
  }
  return p;
}

Payload Payload::copy_of(const std::byte* src, std::size_t n) {
  if (n == 0) return {};
  SV_ASSERT(src != nullptr, "Payload::copy_of: null source");
  auto bytes = std::make_shared<std::vector<std::byte>>(src, src + n);
  return wrap(std::move(bytes));
}

std::span<const Payload::Span> Payload::spans() const {
  if (const Span* one = std::get_if<Span>(&rep_)) {
    return {one, one->len == 0 ? 0u : 1u};
  }
  return std::get<Chain>(rep_).spans;
}

bool Payload::materialized() const {
  if (empty()) return false;
  return std::ranges::all_of(
      spans(), [](const Span& s) { return s.bytes != nullptr; });
}

bool Payload::registered() const {
  if (empty()) return false;
  return std::ranges::all_of(spans(), [](const Span& s) {
    return s.bytes != nullptr && s.registered;
  });
}

Payload Payload::slice(std::uint64_t offset, std::uint64_t len) const {
  // Overflow-safe: offset + len can wrap, size() - len cannot.
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload::slice out of range");
  Payload out;
  if (len == 0) return out;
  std::uint64_t skip = offset;
  std::uint64_t want = len;
  for (const Span& s : spans()) {
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    const std::uint64_t take = std::min(want, s.len - skip);
    out.append_span(Span{s.bytes, s.offset + skip, take, s.registered});
    skip = 0;
    want -= take;
    if (want == 0) break;
  }
  SV_DCHECK(out.size() == len, "slice assembled wrong length");
  return out;
}

Payload Payload::concat(const Payload& tail) const {
  Payload out = *this;
  for (const Span& s : tail.spans()) out.append_span(s);
  return out;
}

std::byte Payload::read_byte(std::uint64_t i) const {
  return *contiguous_at(i, 1);
}

const std::byte* Payload::contiguous_at(std::uint64_t offset,
                                        std::uint64_t len) const {
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload: read past extent");
  SV_ASSERT(len > 0, "Payload: zero-length contiguous view");
  std::uint64_t skip = offset;
  for (const Span& s : spans()) {
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    SV_ASSERT(s.bytes != nullptr, "Payload: byte read on a virtual span");
    SV_ASSERT(len <= s.len - skip,
              "Payload: contiguous view straddles spans (use copy_to)");
    return s.bytes->data() + s.offset + skip;
  }
  SV_ASSERT(false, "Payload: unreachable (bounds already checked)");
  return nullptr;
}

void Payload::copy_to(std::uint64_t offset, std::byte* dst,
                      std::uint64_t len) const {
  SV_ASSERT(len <= size() && offset <= size() - len,
            "Payload::copy_to out of range");
  std::uint64_t skip = offset;
  std::uint64_t want = len;
  for (const Span& s : spans()) {
    if (want == 0) break;
    if (skip >= s.len) {
      skip -= s.len;
      continue;
    }
    SV_ASSERT(s.bytes != nullptr, "Payload::copy_to on a virtual span");
    const std::uint64_t take = std::min(want, s.len - skip);
    const std::byte* src = s.bytes->data() + s.offset + skip;
    dst = std::copy(src, src + take, dst);
    skip = 0;
    want -= take;
  }
}

bool Payload::content_equals(const Payload& other) const {
  if (size() != other.size()) return false;
  if (empty()) return true;
  if (!materialized() || !other.materialized()) return false;
  for (std::uint64_t i = 0; i < size(); ++i) {
    if (read_byte(i) != other.read_byte(i)) return false;
  }
  return true;
}

void Payload::append_span(Span s) {
  if (s.len == 0) return;
  // Merge adjacent views of the same storage (a pop/slice boundary that
  // landed mid-buffer) so chains stay short on long streams.
  if (Span* one = std::get_if<Span>(&rep_)) {
    if (one->len == 0) {
      *one = std::move(s);
      return;
    }
    if (extend(*one, s)) return;
    Chain chain;
    chain.size = one->len + s.len;
    chain.spans.reserve(2);
    chain.spans.push_back(std::move(*one));
    chain.spans.push_back(std::move(s));
    rep_ = std::move(chain);
    return;
  }
  Chain& chain = std::get<Chain>(rep_);
  chain.size += s.len;
  if (!extend(chain.spans.back(), s)) chain.spans.push_back(std::move(s));
}

bool Payload::extend(Span& back, const Span& s) {
  const bool contiguous = back.bytes != nullptr && back.bytes == s.bytes &&
                          back.offset + back.len == s.offset &&
                          back.registered == s.registered;
  const bool both_virtual = back.bytes == nullptr && s.bytes == nullptr;
  if (!contiguous && !both_virtual) return false;
  back.len += s.len;
  return true;
}

void PayloadQueue::push(Payload p) {
  if (p.empty()) return;
  bytes_ += p.size();
  parts_.push_back(std::move(p));
}

Payload PayloadQueue::pop(std::uint64_t n) {
  SV_ASSERT(n <= bytes_, "PayloadQueue::pop past end");
  Payload out;
  std::uint64_t want = n;
  while (want > 0) {
    Payload& front = parts_.front();
    const std::uint64_t avail = front.size() - front_offset_;
    const std::uint64_t take = std::min(want, avail);
    out = out.concat(front.slice(front_offset_, take));
    front_offset_ += take;
    want -= take;
    bytes_ -= take;
    if (front_offset_ == front.size()) {
      parts_.pop_front();  // releases its storage refs promptly
      front_offset_ = 0;
    }
  }
  return out;
}

}  // namespace sv::mem
