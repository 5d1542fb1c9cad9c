// Fixture: a PW_HOT root calls `size()` on a receiver bound by `auto`
// to a call the builtin backend cannot type, and five classes define
// `size`. The walk must follow every candidate, however many unrelated
// classes share the name, and so reach the one that allocates.
#pragma once

#include "common/annotations.h"

namespace politewifi::sim {

struct Ring {
  int size() const { return 1; }
};
struct Heap {
  int size() const { return 2; }
};
struct Pool {
  int size() const { return 3; }
};
struct Table {
  int size() const { return 4; }
};
struct Spill {
  int size() {
    cells = new int[8];
    return 8;
  }
  int* cells = nullptr;
};

Spill& current_spill();

PW_HOT inline int occupancy() {
  auto& box = current_spill();
  return box.size();
}

}  // namespace politewifi::sim
