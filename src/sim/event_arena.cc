#include "sim/event_arena.h"

#include "common/check.h"

namespace sv::sim {

EventArena::EventArena(obs::Registry* registry) {
  if (registry != nullptr) {
    slabs_c_ = &registry->counter("sim.arena_slabs");
    alloc_c_ = &registry->counter("sim.arena_slot_alloc");
    reuse_c_ = &registry->counter("sim.arena_slot_reuse");
    heap_c_ = &registry->counter("sim.arena_handler_heap");
  } else {
    slabs_c_ = &own_slabs_;
    alloc_c_ = &own_alloc_;
    reuse_c_ = &own_reuse_;
    heap_c_ = &own_heap_;
  }
}

EventSlot* EventArena::acquire() {
  EventSlot* slot = nullptr;
  if (free_head_ != nullptr) {
    slot = free_head_;
    free_head_ = slot->next;
    --free_;
    reuse_c_->inc();
  } else {
    const std::size_t slab = next_unused_ / kSlabSlots;
    const std::size_t offset = next_unused_ % kSlabSlots;
    if (slab == slabs_.size()) {
      slabs_.push_back(std::make_unique<EventSlot[]>(kSlabSlots));
      slabs_c_->inc();
    }
    slot = &slabs_[slab][offset];
    slot->index = static_cast<std::uint32_t>(next_unused_);
    ++next_unused_;
    alloc_c_->inc();
  }
  SV_DCHECK(!slot->live, "EventArena handed out a live slot (aliasing)");
  SV_DCHECK(!slot->fn, "recycled slot still holds a handler");
  slot->next = nullptr;
  slot->cancelled = false;
  slot->live = true;
  ++live_;
  return slot;
}

void EventArena::release(EventSlot* slot) {
  SV_DCHECK(slot != nullptr, "EventArena::release(nullptr)");
  SV_DCHECK(slot->live, "double release of an arena slot");
  SV_DCHECK(live_ > 0, "release with no live slots");
  slot->fn.reset();
  slot->live = false;
  slot->next = free_head_;
  free_head_ = slot;
  --live_;
  ++free_;
}

EventSlot* EventArena::slot_at(std::uint32_t index) {
  SV_DCHECK(index < next_unused_, "arena slot index out of range");
  return &slabs_[index / kSlabSlots][index % kSlabSlots];
}

}  // namespace sv::sim
