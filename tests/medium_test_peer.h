// Test-only backdoor into Medium/Radio internals, shared by every suite
// that needs one: the reference-oracle switch the *Equivalence suites
// compare production against, and the corruption injectors the coherence
// auditor tests use. Lives in the production namespace so the
// `friend struct MediumTestPeer;` grants in medium.h and radio.h resolve.
#pragma once

#include <cmath>

#include "common/check.h"
#include "sim/medium.h"
#include "sim/radio.h"

namespace politewifi::sim {

struct MediumTestPeer {
  /// Turns `m` into the reference oracle (see Medium::oracle_): a
  /// brute-force scan in attach order, no memos, a full serialization
  /// per frame. Only legal before any radio attaches, so no memo line or
  /// neighbor list was ever built under the production paths.
  static void use_reference_oracle(Medium& m) {
    PW_CHECK(m.radios_.empty(), "reference oracle after radios attached");
    m.oracle_ = true;
  }
  /// Moves a radio *without* telling the medium — the classic stale-cache
  /// bug the coherence auditor exists to catch (set_position would bump
  /// the geometry version and reindex the grid).
  static void stale_position(Radio& r, const Position& p) {
    r.position_ = p;
  }
  static bool corrupt_one_current_link_cache_line(Medium& m) {
    for (auto& line : m.memo_.lines) {
      if (line.key == 0 || line.tx_version != 0 || line.rx_version != 0) {
        continue;  // want a line that would be served as a hit
      }
      line.gain_db += 1.0;
      return true;
    }
    return false;
  }
  /// Nudges one end of an evaluated FER-table cell by one ULP: every
  /// decision that cell serves would trust a bracket the FER does not
  /// have.
  static bool corrupt_one_fer_line(Medium& m) {
    for (auto& cell : m.memo_.fer_cells) {
      if (cell.lo < 0.0) continue;  // not yet evaluated
      cell.lo = std::nextafter(cell.lo, 2.0);
      return true;
    }
    return false;
  }
  static bool corrupt_one_neighbor_gain(Radio& r) {
    if (r.neighbors_.empty()) return false;
    r.neighbors_.front().gain_db += 1.0;
    return true;
  }
  /// Runs just one radio's audit slice (the full audit_coherence visits
  /// radios in attach order, so an earlier radio's neighbor-list check
  /// may report a stale position first — correct, but the grid-residency
  /// test wants the grid message specifically).
  static void audit_radio(const Medium& m, const Radio& r) {
    m.audit_radio(r);
  }
};

}  // namespace politewifi::sim
