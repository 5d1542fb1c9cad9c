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
//  - Sharded medium support: several Schedulers can share one logical
//    timebase (clock + FIFO sequence counter) via adopt_timebase(). The
//    union of their heaps ordered by the shared (time, seq) key is then
//    exactly the single heap partitioned, which is what makes the
//    sharded medium byte-identical to the unsharded one (DESIGN.md,
//    "Sharded medium & conservative sync"). A lone scheduler points the
//    indirection at its own members, so the common case pays one
//    pointer hop and nothing else.
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

  // now_p_/seq_p_ may point into this object — copying or moving would
  // leave the twin aliasing the original's timebase.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  TimePoint now() const { return *now_p_; }

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
  bool run_one();

  // --- shared timebase (sharded medium) ------------------------------------

  /// Redirects this scheduler's clock and FIFO sequence counter to
  /// `primary`'s, so events scheduled on either queue share one global
  /// (time, seq) order. Must be called before any event is scheduled
  /// here; `primary` must outlive this scheduler. Irreversible by design
  /// (a shard never leaves its timebase mid-run).
  void adopt_timebase(Scheduler& primary);

  /// Reports the (time, seq) key of the earliest live event without
  /// running it, lazily reclaiming any tombstones sitting at the front.
  /// Returns false when no live event is queued.
  bool peek_next(TimePoint* at, std::uint64_t* seq);

  /// Runs the single earliest live event with time <= `limit` without
  /// advancing the clock past it. Returns false if none qualifies.
  /// The ShardExecutor's merge loop: peek every shard, run the global
  /// minimum here.
  bool run_one_bounded(TimePoint limit) {
    return pop_one(/*bounded=*/true, limit);
  }

  /// Advances the (possibly shared) clock to `t` if it lags. The
  /// executor calls this once per window, after the merge loop drains.
  void advance_clock(TimePoint t) { *now_p_ = std::max(*now_p_, t); }

  /// Live (non-cancelled) events still queued.
  std::size_t pending() const { return heap_.size() - tombstones_; }
  std::uint64_t events_executed() const { return executed_; }

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

  TimePoint now_ = kSimStart;
  std::uint64_t next_seq_ = 0;
  // Timebase indirection: a standalone scheduler owns its clock and
  // sequence counter; a shard adopted into a shared timebase reads and
  // writes the primary's instead (see adopt_timebase()).
  TimePoint* now_p_ = &now_;
  std::uint64_t* seq_p_ = &next_seq_;
  std::uint64_t executed_ = 0;
  std::size_t tombstones_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace politewifi::sim
