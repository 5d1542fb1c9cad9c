// Fixture: three allocation forms under PW_HOT roots that a token scan
// can miss: `new` on the right of an assignment, through a pointer and
// into a plain variable, and `std::make_unique<T>(...)`, whose template
// argument list separates the name from its call parentheses. Each root
// must report its own finding.
#pragma once

#include <memory>

#include "common/annotations.h"

namespace politewifi::sim {

struct Slot {
  int value = 0;
};

PW_HOT inline void fill_slot(Slot** out) { *out = new Slot{1}; }

PW_HOT inline Slot* assign_slot() {
  Slot* out;
  out = new Slot;
  return out;
}

PW_HOT inline std::unique_ptr<Slot> own_slot() {
  return std::make_unique<Slot>(Slot{2});
}

}  // namespace politewifi::sim
