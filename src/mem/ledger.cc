#include "mem/ledger.h"

#include <string>

#include "obs/hub.h"

namespace sv::mem {

CopyCounters::CopyCounters(obs::Hub* hub, std::string_view stage)
    : hub_(hub), stage_(stage) {
  obs::Registry& reg = hub->registry;
  const std::string at = "{at=" + std::string(stage) + "}";
  copies_ = &reg.counter("mem.copies");
  stage_copies_ = &reg.counter("mem.copies" + at);
  bytes_ = &reg.counter("mem.copy_bytes");
  stage_bytes_ = &reg.counter("mem.copy_bytes" + at);
}

void CopyCounters::charge(SimTime now, int node, std::uint64_t bytes) const {
  copies_->inc();
  stage_copies_->inc();
  bytes_->inc(bytes);
  stage_bytes_->inc(bytes);
  if (hub_->tracer.enabled()) {
    std::string name = "copy.";
    name += stage_;
    hub_->tracer.instant(now, node, "mem", name, bytes);
  }
}

void charge_copy(obs::Hub* hub, SimTime now, int node, std::string_view stage,
                 std::uint64_t bytes) {
  if (hub == nullptr) return;
  CopyCounters(hub, stage).charge(now, node, bytes);
}

void charge_registration(obs::Hub* hub, SimTime now, int node,
                         std::uint64_t bytes) {
  if (hub == nullptr) return;
  hub->registry.counter("mem.registrations").inc();
  hub->registry.counter("mem.registered_bytes").inc(bytes);
  if (hub->tracer.enabled()) {
    hub->tracer.instant(now, node, "mem", "registration", bytes);
  }
}

void charge_deregistration(obs::Hub* hub, SimTime now, int node,
                           std::uint64_t bytes) {
  if (hub == nullptr) return;
  hub->registry.counter("mem.deregistrations").inc();
  hub->registry.counter("mem.deregistered_bytes").inc(bytes);
  if (hub->tracer.enabled()) {
    hub->tracer.instant(now, node, "mem", "deregistration", bytes);
  }
}

std::uint64_t copies_recorded(const obs::Hub& hub) {
  return hub.registry.counter_value("mem.copies");
}

}  // namespace sv::mem
