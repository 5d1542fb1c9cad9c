// Sharded-medium executor: conservative time synchronization across the
// per-shard schedulers of one Medium.
//
// Each spatial super-cell (shard) owns a Scheduler holding the events of
// the radios currently homed there. All shard schedulers share one
// timebase (clock + FIFO sequence counter, see
// Scheduler::adopt_timebase), so the union of their heaps under the
// shared (time, seq) key is exactly the single unsharded heap,
// partitioned. The executor's merge loop repeatedly peeks every shard
// and runs the globally earliest live event — a k-way merge identical in
// order to the one heap — which is what makes `MediumConfig::shards = N`
// byte-identical to `shards = 1` for any N and any event-to-shard
// assignment (the ShardEquivalence suite enforces this; DESIGN.md
// derives the conservative lookahead bound).
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "sim/event_queue.h"

namespace politewifi::sim {

class ShardExecutor {
 public:
  /// `shards[0]` is the primary scheduler (owner of the shared clock);
  /// the rest must have adopted its timebase. Pointers must outlive the
  /// executor.
  explicit ShardExecutor(std::vector<Scheduler*> shards);

  /// Runs every event with time <= `until` in global (time, seq) order,
  /// then advances the shared clock to `until`.
  void run_until(TimePoint until);

  /// Convenience mirror of Scheduler::run_for on the shared clock.
  void run_for(Duration duration) { run_until(now() + duration); }

  /// Runs until every shard's queue drains (tests; beaconing never
  /// drains in real scenarios).
  void run_all();

  TimePoint now() const { return shards_.front()->now(); }

  /// Sum of events executed across all shards — equals the single
  /// scheduler's count in the unsharded run.
  std::uint64_t events_executed() const;

  std::size_t shard_count() const { return shards_.size(); }

 private:
  /// Finds the shard holding the globally earliest live event, recording
  /// head-time skew. Returns false when every queue is empty.
  bool pick_next(std::size_t* shard, TimePoint* at);

  std::vector<Scheduler*> shards_;
  std::size_t current_ = 0;  // shard that ran the previous event
};

}  // namespace politewifi::sim
