// Discrete-event scheduler — the simulator's heartbeat.
//
// A single-threaded min-heap of timestamped callbacks. All 802.11 timing
// (SIFS turnarounds, ACK timeouts, beacon intervals, injection schedules,
// sleep cycles) is expressed as events on this queue, giving the
// nanosecond determinism the protocol's argument depends on.
//
// Engine notes (the city-scale hot path):
//  - Callbacks are SmallFn, not std::function: captures up to 128 bytes
//    live inline, so scheduling an event performs zero heap allocations.
//  - Callback storage is pooled. The heap itself holds 16-byte
//    {time, seq, slot} entries; the callable lives in a recycled slot,
//    so heap sift-ups move trivial structs instead of closures.
//  - Cancellation is lazy and bounded: cancel() destroys the callback
//    immediately (dropping captured buffers) and leaves a tombstone that
//    the pop loop reclaims; when tombstones outnumber live events the
//    heap is swept in one compaction pass. Nothing grows with the number
//    of cancels — the old unordered_set of cancelled ids, which leaked
//    one entry for every cancel that raced an already-fired event, is
//    gone.
//  - A chain of events may share one heap entry. Its owner reserves the
//    chain's sequence numbers up front (reserve_seqs) and keeps only the
//    next link in the heap (schedule_reserved). When a link finishes,
//    run_in_place runs the next one without a heap round trip if its
//    (time, seq) key is due before everything in the heap and within the
//    running run_until bound; otherwise the owner pushes it under its
//    reserved number. Either way every callback runs at the (time, seq)
//    position it would have had as its own event. The medium's delivery
//    records are the one such chain: one entry per in-flight
//    transmission, not one per arrival group.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/small_fn.h"

namespace politewifi::sim {

class Scheduler {
 public:
  using EventId = std::uint64_t;
  using Callback = SmallFn;

  Scheduler() = default;

  // The medium, its radios and their movers hold references to their
  // scheduler; a copy or move would strand them.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now). Events scheduled for
  /// the same instant fire in scheduling order (FIFO).
  EventId schedule_at(TimePoint at, Callback fn);

  /// Schedules `fn` after `delay`.
  EventId schedule_in(Duration delay, Callback fn) {
    return schedule_at(now() + std::max(delay, Duration::zero()),
                       std::move(fn));
  }

  /// Cancels a pending event. Cancelling an already-fired or unknown id
  /// is a harmless no-op (timers race with the events that obsolete them):
  /// ids carry the slot's generation, so a stale id can never hit an
  /// event that recycled the same pool slot.
  void cancel(EventId id);

  /// Runs events with time <= `until`, then advances the clock to `until`.
  void run_until(TimePoint until);

  /// Convenience: run for `duration` of simulated time.
  void run_for(Duration duration) { run_until(now_ + duration); }

  /// Runs until the queue drains (use with care — beaconing never drains).
  void run_all();

  /// Executes the single earliest event, if any. Returns false when empty.
  /// Never runs a second event in place (see run_in_place).
  bool run_one();

  /// Reserves `n` consecutive sequence numbers and returns the first. An
  /// event later pushed under one of them orders among simultaneous
  /// events as if it had been scheduled now.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules `fn` at `at` (>= now) under `seq`, a number reserve_seqs
  /// handed out and no other event has used.
  EventId schedule_reserved(TimePoint at, std::uint64_t seq, Callback fn);

  /// Called from inside a running callback: if the event keyed (`at`,
  /// `seq`) would be the next one popped — it precedes the heap top (a
  /// tombstone counts, which only costs a push) and lies within the
  /// running run_until bound — advances the clock to `at`, counts it as
  /// an executed event and returns true; the caller then runs its body.
  /// Returns false under run_one and outside the event loop.
  bool run_in_place(TimePoint at, std::uint64_t seq);

  /// Live (non-cancelled) events still queued.
  std::size_t pending() const { return heap_.size() - tombstones_; }
  std::uint64_t events_executed() const { return executed_; }
  /// The executed events that run_in_place ran without a heap entry.
  std::uint64_t events_inline() const { return inline_; }

  // --- engine introspection (tests and the benchmark) ----------------------

  /// Pool slots ever allocated: the scheduler's high-water mark of
  /// simultaneously pending events. Stays flat under schedule/cancel churn.
  std::size_t pool_slots() const { return pool_.size(); }
  /// Cancelled events awaiting reclamation at pop time.
  std::size_t tombstones() const { return tombstones_; }

  /// Invariant auditor: verifies the min-heap order on (time, seq), that
  /// every heap entry references a distinct armed slot, that the
  /// tombstone counter matches the cancelled entries actually in the
  /// heap, that cancelled slots have already dropped their callbacks,
  /// and that the free list and the heap partition the pool exactly.
  /// PW_CHECK-fails (fatal) on the first violation; compiled into every
  /// build so tests can probe it, and invoked automatically every
  /// `kAuditPeriod` executed events when PW_AUDIT_ENABLED. O(pool).
  void audit() const;

 private:
  friend struct SchedulerTestPeer;  // corruption injection, forced sweeps

  static constexpr std::uint64_t kAuditPeriod = 1024;
  struct HeapEntry {
    TimePoint at;
    std::uint64_t seq;   // FIFO tiebreak among simultaneous events
    std::uint32_t slot;  // index into pool_
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      // Min-heap on (time, seq): FIFO among simultaneous events.
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Slot {
    Callback fn;
    std::uint32_t generation = 0;  // bumped on release; validates EventIds
    bool armed = false;            // true while an event occupies the slot
    bool cancelled = false;        // tombstone: reclaim at pop, don't run
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    // Slot is offset by one so id 0 is never produced (callers use 0 as
    // a "no timer" sentinel).
    return (std::uint64_t(slot) + 1) << 32 | generation;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Sweeps every tombstone out of the heap and re-heapifies. Called when
  /// tombstones outnumber live events; amortized O(1) per cancel. Only
  /// storage is recycled: EventIds are opaque and slot reuse is invisible
  /// to callers, so execution order never changes (the
  /// SchedulerPool.RandomTraceMatchesSortedReferenceModel property).
  void compact();
  /// Pops and runs the earliest live event with at <= limit, reclaiming
  /// any tombstones on the way. Returns false if none qualifies.
  bool pop_one(bool bounded, TimePoint limit);
  /// Counts one executed event (and audits periodically in PW_AUDIT
  /// builds): popped and in-place events alike.
  void count_executed();

  TimePoint now_ = kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inline_ = 0;
  /// The latest time run_in_place may run an event at: the running
  /// run_until bound, TimePoint::max() under run_all, and min() under
  /// run_one and outside the event loop.
  TimePoint in_place_until_ = TimePoint::min();
  std::size_t tombstones_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace politewifi::sim
