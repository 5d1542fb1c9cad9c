// Shared immutable PPDU payloads with pooled backing buffers.
//
// A transmission's on-air octets used to be a by-value `Bytes` copied once
// per eligible receiver during fan-out; at the paper's injection rates
// (1000 fps battery drain, 150 fps CSI harvesting, each frame heard by
// dozens of radios) the allocator — not the physics — dominated the hot
// loop. A PpduRef is a small ref-counted handle to one immutable buffer:
// every receiver of a transmission shares the same octets, and the buffer
// returns to its pool when the last reference drops, so steady-state
// injection runs without a single heap allocation.
//
// Lifetime rules (see CONTRIBUTING "Payload lifetime & zero-copy rules"):
//  - the octets are immutable while shared; only a unique() holder may
//    call mutable_octets() (PW_DCHECK-enforced),
//  - collision-corrupted receivers get a fresh pooled copy (copy-on-
//    corrupt) — intact receivers never copy,
//  - a pool and its refs belong to one simulation thread; the refcount is
//    deliberately non-atomic (concurrent simulations each own their own).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/byte_buffer.h"

namespace politewifi::frames {

class PpduPool;

/// Ref-counted handle to one immutable on-air octet string.
class PpduRef {
 public:
  PpduRef() = default;
  PpduRef(const PpduRef& other) : buf_(other.buf_) { retain(); }
  PpduRef(PpduRef&& other) noexcept : buf_(other.buf_) {
    other.buf_ = nullptr;
  }
  PpduRef& operator=(const PpduRef& other) {
    if (this != &other) {
      release();
      buf_ = other.buf_;
      retain();
    }
    return *this;
  }
  PpduRef& operator=(PpduRef&& other) noexcept {
    if (this != &other) {
      release();
      buf_ = other.buf_;
      other.buf_ = nullptr;
    }
    return *this;
  }
  ~PpduRef() { release(); }

  explicit operator bool() const { return buf_ != nullptr; }
  bool empty() const { return buf_ == nullptr || buf_->octets.empty(); }
  std::size_t size() const { return buf_ == nullptr ? 0 : buf_->octets.size(); }

  const Bytes& octets() const;
  std::span<const std::uint8_t> bytes() const {
    return buf_ == nullptr ? std::span<const std::uint8_t>{}
                           : std::span<const std::uint8_t>(buf_->octets);
  }

  /// True when this is the only reference — the holder may mutate.
  bool unique() const { return buf_ != nullptr && buf_->refs == 1; }
  std::uint32_t use_count() const { return buf_ == nullptr ? 0 : buf_->refs; }

  /// Mutable access to the octets. Only legal while unique(): a shared
  /// buffer is immutable by contract (every receiver of a transmission
  /// reads the same bytes).
  Bytes& mutable_octets();

  void reset() {
    release();
    buf_ = nullptr;
  }

 private:
  friend class PpduPool;

  struct Buffer {
    Bytes octets;
    std::uint32_t refs = 0;
    bool on_free_list = false;
    /// Owning pool; nullptr = freestanding buffer (deleted on last
    /// release) — also how a destroyed pool orphans still-referenced
    /// buffers so late releases stay safe.
    PpduPool* pool = nullptr;
  };

  explicit PpduRef(Buffer* buf) : buf_(buf) { retain(); }

  void retain() {
    if (buf_ != nullptr) ++buf_->refs;
  }
  void release();

  Buffer* buf_ = nullptr;
};

/// Free-list pool of PPDU buffers. acquire() hands out an empty buffer
/// that keeps its previous capacity, so after warm-up the inject->
/// transmit->deliver path recycles the same few buffers forever.
///
/// Concurrency: the pool is *thread-confined*, not thread-safe — one
/// pool, its refs, and its (deliberately non-atomic) refcounts belong
/// to exactly one simulation thread; concurrent simulations each own an
/// independent Medium and pool. There is no mutex here on purpose, so
/// there is nothing for PW_GUARDED_BY to name: the confinement contract
/// is enforced dynamically instead (the TSan CI job runs concurrent
/// simulations and the equivalence suites, and ~PpduPool/audit()
/// account for every buffer).
class PpduPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;       // served from the free list
    std::uint64_t allocations = 0;  // fresh heap buffers
  };

  PpduPool() = default;
  ~PpduPool();

  PpduPool(const PpduPool&) = delete;
  PpduPool& operator=(const PpduPool&) = delete;

  /// An empty, unique buffer (capacity retained from its previous life).
  PpduRef acquire();

  std::size_t total_buffers() const { return all_.size(); }
  std::size_t free_buffers() const { return free_.size(); }
  std::size_t live_buffers() const { return all_.size() - free_.size(); }
  const Stats& stats() const { return stats_; }

  /// PW_CHECK-fails on broken accounting: a free-list entry with live
  /// references, a buffer with refs==0 missing from the free list, or a
  /// duplicated free-list slot. Called from Medium::audit_coherence.
  void audit() const;

 private:
  friend class PpduRef;

  void release_buffer(PpduRef::Buffer* buf);

  std::vector<PpduRef::Buffer*> all_;   // pooled buffers, owned
  std::vector<PpduRef::Buffer*> free_;  // refs==0 subset of all_
  Stats stats_;
};

}  // namespace politewifi::frames
