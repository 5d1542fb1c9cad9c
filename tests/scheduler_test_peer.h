// Test-only backdoor into Scheduler internals, shared by every suite that
// needs one: the corruption injectors the audit tests use, and a forced
// tombstone sweep the compaction tests toggle against the built-in
// trigger. Lives in the production namespace so the
// `friend struct SchedulerTestPeer;` grant in event_queue.h resolves.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "sim/event_queue.h"

namespace politewifi::sim {

struct SchedulerTestPeer {
  static void swap_first_last_heap_entries(Scheduler& s) {
    ASSERT_GE(s.heap_.size(), 2u);
    std::swap(s.heap_.front(), s.heap_.back());
  }
  static void inflate_tombstone_counter(Scheduler& s) { ++s.tombstones_; }
  static void disarm_slot_of_first_entry(Scheduler& s) {
    ASSERT_FALSE(s.heap_.empty());
    s.pool_[s.heap_.front().slot].armed = false;
  }
  static void duplicate_first_entry(Scheduler& s) {
    ASSERT_FALSE(s.heap_.empty());
    s.heap_.push_back(s.heap_.front());
  }
  /// Runs the compaction sweep now, whatever the trigger says, and
  /// returns how many tombstones it reclaimed.
  static std::size_t sweep_tombstones(Scheduler& s) {
    const std::size_t swept = s.tombstones_;
    s.compact();
    return swept;
  }
};

}  // namespace politewifi::sim
