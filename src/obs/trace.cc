#include "obs/trace.h"

#include <ostream>
#include <sstream>

namespace sv::obs {

void Tracer::enable(std::size_t capacity) {
  enabled_ = true;
  if (capacity == 0) capacity = 1;
  if (capacity != capacity_) {
    // Resizing the ring invalidates the wrap cursor; keep existing events
    // only when they still fit un-wrapped.
    if (events_.size() > capacity || next_ != 0) clear();
    capacity_ = capacity;
  }
}

void Tracer::disable() { enabled_ = false; }

std::size_t Tracer::size() const { return events_.size(); }

void Tracer::clear() {
  events_.clear();
  next_ = 0;
  dropped_ = 0;
}

void Tracer::record(SimTime ts, SimTime dur, int node,
                    std::string_view category, std::string_view name,
                    bool instant, std::uint64_t arg) {
  Event ev{ts.ns(), dur.ns(), node, intern(category, name),
           instant, arg};
  if (events_.size() < capacity_) {
    events_.push_back(ev);
    return;
  }
  // Ring full: overwrite oldest. next_ is the oldest slot once wrapped.
  events_[next_] = ev;
  next_ = (next_ + 1) % capacity_;
  dropped_ += 1;
}

std::uint32_t Tracer::intern(std::string_view category, std::string_view name) {
  std::string full;
  full.reserve(category.size() + name.size() + 1);
  full.append(category);
  full.push_back('.');
  full.append(name);
  auto it = name_ids_.find(full);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(full);
  name_ids_.emplace(std::move(full), id);
  return id;
}

template <typename Fn>
void Tracer::for_each(Fn&& fn) const {
  if (events_.size() < capacity_ || events_.empty()) {
    for (const Event& ev : events_) fn(ev);
    return;
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    fn(events_[(next_ + i) % events_.size()]);
  }
}

namespace {

// Chrome's "ts"/"dur" fields are microseconds; emit ns-precise values as
// a zero-padded decimal fraction (no floating point anywhere).
void write_us(std::ostream& os, std::int64_t ns) {
  const std::int64_t frac = ns % 1000;
  os << ns / 1000 << '.' << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + (frac / 10) % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  const char* sep = "";
  for_each([&](const Event& ev) {
    const std::string& full = names_[ev.name_id];
    const auto dot = full.find('.');
    os << sep << "\n  {\"name\": \"" << full.substr(dot + 1)
       << "\", \"cat\": \"" << full.substr(0, dot) << "\", \"ph\": \""
       << (ev.instant ? "i" : "X") << "\", \"pid\": 0, \"tid\": " << ev.node
       << ", \"ts\": ";
    write_us(os, ev.ts_ns);
    if (!ev.instant) {
      os << ", \"dur\": ";
      write_us(os, ev.dur_ns);
    } else {
      os << ", \"s\": \"t\"";
    }
    os << ", \"args\": {\"v\": " << ev.arg << "}}";
    sep = ",";
  });
  os << "\n], \"displayTimeUnit\": \"ns\"}\n";
}

void Tracer::write_canonical(std::ostream& os) const {
  os << "# svtrace v1 events=" << events_.size() << " dropped=" << dropped_
     << "\n";
  for_each([&](const Event& ev) {
    os << ev.ts_ns << ' ' << ev.dur_ns << " n" << ev.node << ' '
       << names_[ev.name_id] << ' ' << ev.arg << "\n";
  });
}

std::string Tracer::canonical() const {
  std::ostringstream os;
  write_canonical(os);
  return os.str();
}

}  // namespace sv::obs
