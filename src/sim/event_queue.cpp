#include "sim/event_queue.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace politewifi::sim {

void Scheduler::audit() const {
  const contract::AuditScope audit;
  // Heap order: every parent at or before (time, seq) of its children.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const HeapEntry& parent = heap_[(i - 1) / 2];
    const HeapEntry& child = heap_[i];
    PW_CHECK(!Later{}(parent, child),
             "heap order violated at index %zu: parent fires after child", i);
  }
  // Slot accounting: each heap entry points at a distinct armed slot;
  // tombstones_ counts exactly the cancelled ones; a cancelled slot must
  // already have dropped its callback (cancel() frees captures eagerly).
  std::vector<std::uint8_t> referenced(pool_.size(), 0);
  std::size_t cancelled_in_heap = 0;
  for (const HeapEntry& e : heap_) {
    PW_CHECK(e.slot < pool_.size(), "heap entry references slot %u beyond pool",
             e.slot);
    PW_CHECK(!referenced[e.slot],
             "slot %u referenced by two heap entries (double-schedule)",
             e.slot);
    referenced[e.slot] = 1;
    const Slot& slot = pool_[e.slot];
    PW_CHECK(slot.armed, "heap entry references disarmed slot %u", e.slot);
    if (slot.cancelled) {
      ++cancelled_in_heap;
      PW_CHECK(!slot.fn, "tombstoned slot %u still holds its callback",
               e.slot);
    }
  }
  PW_CHECK_EQ(tombstones_, cancelled_in_heap);
  // Free-list / heap partition: every pool slot is either armed and in
  // the heap, or disarmed and on the free list — never both, never
  // neither (a slot that escapes both would leak its generation).
  std::vector<std::uint8_t> free(pool_.size(), 0);
  for (const std::uint32_t index : free_slots_) {
    PW_CHECK(index < pool_.size(), "free list entry %u beyond pool", index);
    PW_CHECK(!free[index], "slot %u on the free list twice", index);
    free[index] = 1;
    PW_CHECK(!pool_[index].armed, "armed slot %u on the free list", index);
  }
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    PW_CHECK(pool_[i].armed == (referenced[i] != 0),
             "slot %zu %s but %s the heap", i,
             pool_[i].armed ? "armed" : "disarmed",
             referenced[i] ? "in" : "not in");
    PW_CHECK(referenced[i] != free[i], "slot %zu leaked: %s", i,
             referenced[i] ? "both in heap and free" : "neither in heap nor free");
  }
}

std::uint32_t Scheduler::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    PW_DCHECK(!pool_[index].armed && !pool_[index].fn,
              "recycled slot %u still armed or holding a callback", index);
    return index;
  }
  pool_.emplace_back();
  PW_GAUGE_MAX(kSchedulerPoolSlotsPeak, pool_.size());
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = pool_[index];
  slot.fn.reset();
  slot.armed = false;
  slot.cancelled = false;
  ++slot.generation;  // invalidates any EventId still pointing here
  free_slots_.push_back(index);
}

PW_HOT Scheduler::EventId Scheduler::schedule_at(TimePoint at, Callback fn) {
  return schedule_reserved(at, next_seq_++, std::move(fn));
}

PW_HOT Scheduler::EventId Scheduler::schedule_reserved(TimePoint at,
                                                       std::uint64_t seq,
                                                       Callback fn) {
  PW_DCHECK(seq < next_seq_, "sequence number %llu was never reserved",
            static_cast<unsigned long long>(seq));
  const std::uint32_t index = acquire_slot();
  Slot& slot = pool_[index];
  slot.fn = std::move(fn);
  slot.armed = true;
  heap_.push_back(HeapEntry{std::max(at, now_), seq, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return make_id(index, slot.generation);
}

PW_HOT bool Scheduler::run_in_place(TimePoint at, std::uint64_t seq) {
  if (at > in_place_until_) return false;
  // The heap top need not be live: a tombstone that precedes the key
  // forces a push, which pop_one then orders correctly.
  if (!heap_.empty() && !Later{}(heap_.front(), HeapEntry{at, seq, 0})) {
    return false;
  }
  PW_DCHECK(at >= now_, "in-place event lies in the past");
  now_ = at;
  ++inline_;
  PW_COUNT(kSchedulerEventsInline);
  count_executed();
  return true;
}

void Scheduler::count_executed() {
  ++executed_;
  PW_COUNT(kSchedulerEventsExecuted);
#if PW_AUDIT_ENABLED
  // Audit builds re-verify the full invariant set periodically, so a
  // corruption is caught within kAuditPeriod events of its cause.
  if (executed_ % kAuditPeriod == 0) audit();
#endif
}

PW_HOT void Scheduler::cancel(EventId id) {
  const std::uint64_t offset = id >> 32;
  if (offset == 0 || offset > pool_.size()) return;
  Slot& slot = pool_[offset - 1];
  if (!slot.armed || slot.cancelled ||
      slot.generation != static_cast<std::uint32_t>(id)) {
    return;  // already fired, already cancelled, or slot was recycled
  }
  slot.cancelled = true;
  slot.fn.reset();  // drop captured buffers now, not at pop time
  ++tombstones_;
  PW_COUNT(kSchedulerEventsCancelled);
  PW_GAUGE_MAX(kSchedulerTombstonesPeak, tombstones_);
  // Pop-time reclamation alone can't bound memory when cancelled events
  // sit far in the future (schedule/cancel churn never reaches them).
  // Once tombstones dominate, sweep them out in one O(n) pass — amortized
  // O(1) per cancel. `tombstones_peak` is the trigger's witness: under
  // any cancel churn it stays within a factor of the live event count.
  if (tombstones_ > heap_.size() / 2 && heap_.size() >= 64) {
    compact();
  }
}

void Scheduler::compact() {
  PW_COUNT(kSchedulerCompactions);
  auto live_end = std::remove_if(
      heap_.begin(), heap_.end(), [this](const HeapEntry& e) {
        if (!pool_[e.slot].cancelled) return false;
        release_slot(e.slot);
        return true;
      });
  heap_.erase(live_end, heap_.end());
  tombstones_ = 0;
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

PW_HOT bool Scheduler::pop_one(bool bounded, TimePoint limit) {
  while (!heap_.empty()) {
    if (bounded && heap_.front().at > limit) return false;
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();

    Slot& slot = pool_[top.slot];
    if (slot.cancelled) {  // tombstone: reclaim and keep looking
      --tombstones_;
      release_slot(top.slot);
      continue;
    }
    // Move the callback out and free the slot *before* invoking: the
    // callback may schedule new events (growing the pool) or try to
    // cancel itself (a no-op once the generation is bumped).
    Callback fn = std::move(slot.fn);
    release_slot(top.slot);
    now_ = top.at;
    count_executed();
    fn();
    return true;
  }
  return false;
}

void Scheduler::run_until(TimePoint until) {
  const TimePoint outer = std::exchange(in_place_until_, until);
  while (pop_one(/*bounded=*/true, until)) {
  }
  in_place_until_ = outer;
  now_ = std::max(now_, until);
}

void Scheduler::run_all() {
  const TimePoint outer = std::exchange(in_place_until_, TimePoint::max());
  while (pop_one(/*bounded=*/false, TimePoint{})) {
  }
  in_place_until_ = outer;
}

bool Scheduler::run_one() {
  const TimePoint outer = std::exchange(in_place_until_, TimePoint::min());
  const bool ran = pop_one(/*bounded=*/false, TimePoint{});
  in_place_until_ = outer;
  return ran;
}

}  // namespace politewifi::sim
