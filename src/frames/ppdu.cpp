#include "frames/ppdu.h"

#include <algorithm>

#include "common/annotations.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace politewifi::frames {

const Bytes& PpduRef::octets() const {
  PW_DCHECK(buf_ != nullptr, "octets() on an empty PpduRef");
  return buf_->octets;
}

Bytes& PpduRef::mutable_octets() {
  PW_DCHECK(buf_ != nullptr, "mutable_octets() on an empty PpduRef");
  PW_DCHECK(buf_->refs == 1,
            "mutating a shared PPDU buffer (%u refs): copy-on-write first",
            buf_->refs);
  return buf_->octets;
}

PW_HOT void PpduRef::release() {
  if (buf_ == nullptr) return;
  PW_DCHECK(buf_->refs > 0, "PpduRef over-release");
  if (--buf_->refs == 0) {
    if (buf_->pool != nullptr) {
      buf_->pool->release_buffer(buf_);
    } else {
      // pw-analyze: allow(hot-new): orphan/freestanding buffers only —
      // pooled buffers return to the free list above.
      delete buf_;
    }
  }
  buf_ = nullptr;
}

PpduPool::~PpduPool() {
  // Scheduled receptions may still hold refs when a simulation is torn
  // down mid-flight (the scheduler usually outlives the medium): orphan
  // live buffers so their final release deletes instead of touching a
  // dead pool.
  for (PpduRef::Buffer* buf : all_) {
    if (buf->refs == 0) {
      delete buf;
    } else {
      buf->pool = nullptr;
    }
  }
}

PW_HOT PpduRef PpduPool::acquire() {
  ++stats_.acquires;
  if (!free_.empty()) {
    ++stats_.reuses;
    PW_COUNT(kPpduPoolReuses);
    PpduRef::Buffer* buf = free_.back();
    free_.pop_back();
    buf->on_free_list = false;
    buf->octets.clear();  // capacity retained
    return PpduRef(buf);
  }
  ++stats_.allocations;
  PW_COUNT(kPpduPoolAllocations);
  // pw-analyze: allow(hot-new): pool growth on a cold miss only; steady
  // state recycles via free_, witnessed by sim.ppdu_pool.allocations in
  // the metrics goldens and by the steady-state allocation test.
  auto* buf = new PpduRef::Buffer;
  buf->pool = this;
  all_.push_back(buf);
  return PpduRef(buf);
}

void PpduPool::release_buffer(PpduRef::Buffer* buf) {
  PW_DCHECK(!buf->on_free_list, "PPDU buffer released twice");
  buf->on_free_list = true;
  free_.push_back(buf);
}

void PpduPool::audit() const {
  PW_CHECK(free_.size() <= all_.size(),
           "PPDU pool free list (%zu) larger than the pool (%zu)",
           free_.size(), all_.size());
  std::size_t flagged = 0;
  for (const PpduRef::Buffer* buf : all_) {
    PW_CHECK(buf->pool == this, "pooled PPDU buffer points at another pool");
    PW_CHECK(buf->on_free_list == (buf->refs == 0),
             "PPDU buffer with %u refs %s the free list", buf->refs,
             buf->on_free_list ? "on" : "missing from");
    flagged += buf->on_free_list ? 1 : 0;
  }
  // Every free-list entry must be a flagged pool member; with the counts
  // equal and flags consistent, a duplicated or foreign entry cannot hide.
  PW_CHECK_EQ(flagged, free_.size());
  for (const PpduRef::Buffer* buf : free_) {
    PW_CHECK(buf->on_free_list && buf->refs == 0,
             "free-list entry with live references");
    PW_CHECK(std::count(all_.begin(), all_.end(), buf) == 1,
             "free-list entry not exactly once in the pool");
  }
}

}  // namespace politewifi::frames
