// The shared wireless medium.
//
// Connects radios on the same band/channel: applies path loss and
// deterministic per-link shadowing, tracks concurrent receptions for
// carrier sense and collisions (with capture), rolls frame errors from
// the SNR, and hands finished PPDUs to each receiving radio. A trace sink
// observes every transmission (the simulator's Wireshark), and a CSI
// provider lets scenario code shape per-link channel state (the sensing
// experiments' hook).
//
// Scale notes (the 5,000-device city): transmissions fan out through a
// per-(band,channel) uniform grid index instead of a flat scan over every
// attached radio, visiting only radios that could possibly detect the
// frame (the query radius is derived from the actual transmit power, the
// path-loss model and a hard bound on the deterministic shadowing draw,
// so the reception set is *exactly* the brute-force one — cell lists are
// kept in attach order and merged, which keeps event ordering
// byte-identical without sorting in the fan-out hot path). Per-link
// budgets are memoized in a position-versioned 2-way set-associative
// cache and, for a static transmitter, in per-transmitter contiguous
// SoA lanes (received power, linear power, propagation delay, arrival
// rank) that a repeated fan-out replays as pure loads. Frame loss is
// decided at finalize time, in delivery order, from one uniform per
// reception and a memoized FER bracket of the reception's 1/64 dB SINR
// cell: the erfc/pow chain runs only when the uniform lands inside the
// bracket, and the decision is exactly the oracle's
// bernoulli(frame_error_rate) draw for draw. The PPDU is shared across all
// receivers of a transmission instead of copied per receiver, and so is
// its decode: the first intact delivery that reaches a listening MAC
// decodes the shared octets into the transmission's record, and every
// later intact receiver gets that one result (a channel-damaged copy goes
// to the station as octets, which checks the FCS before parsing). The
// per-receiver reception lists are pruned amortized (when they double)
// instead of on every push.
//
// City scale (the sharded medium): with MediumConfig::shards > 1 the
// plane is partitioned into super-cells, each homed on its own
// Scheduler (shared timebase — see sim/shard.h) with its own link/FER
// memo. Transmissions schedule their delivery events on the sender's
// shard, and movers migrate shards at cell-exit horizons computed from
// their mobility model. Byte-identical to shards = 1 by construction;
// the ShardEquivalence suite enforces it.
//
// Every fast path above has exactly one production spelling. What they
// are proven against is a test-only reference oracle (see `oracle_`): a
// brute-force scan over every attached radio with no memos, a full
// serialization per frame and a decode per receiver. The *Equivalence
// suites hold production to the oracle's bytes.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "common/units.h"
#include "frames/ppdu.h"
#include "frames/serializer.h"
#include "phy/channel_model.h"
#include "phy/csi.h"
#include "phy/error_model.h"
#include "phy/propagation.h"
#include "phy/signal.h"
#include "sim/event_queue.h"

namespace politewifi::sim {

class Radio;

struct MediumConfig {
  double path_loss_exponent = 3.0;
  /// Per-link log-normal shadowing spread; drawn once per (tx, rx) pair so
  /// a link's budget is stable across frames.
  double shadowing_sigma_db = 4.0;
  /// AR(1) time-correlated fading on top of the static budget (see
  /// phy::ChannelModel): one-interval autocorrelation in [0, 1). 0 = the
  /// off-switch — the fading term is never evaluated and the simulation
  /// is byte-identical to the memoryless channel (ChannelEquivalence
  /// property-tests this). The fade modulates power only *within* the
  /// statically-detectable reception set: a down-fade below
  /// detect_threshold_dbm drops the reception, but an up-fade never
  /// resurrects a link the static budget already ruled out, so the
  /// spatial index's detection disc stays exact with zero margin.
  double fading_rho = 0.0;
  /// Stationary standard deviation of the fading term (dB).
  double fading_sigma_db = 2.0;
  /// Fading coherence interval in sim-time microseconds: the fade is
  /// re-sampled once per interval (lazily, per link), constant within.
  double fading_coherence_us = 1000.0;
  double cs_threshold_dbm = -82.0;      // carrier-sense busy level
  double detect_threshold_dbm = -94.0;  // below this a frame is invisible
  double capture_margin_db = 10.0;      // SIR needed to survive a collision
  double noise_figure_db = 7.0;
  bool model_frame_errors = true;
  /// Model the finite speed of light: a frame arrives d/c after it is
  /// sent. Nanoseconds per metre — irrelevant to MAC behaviour, but it is
  /// exactly the signal that time-of-flight ranging (the Wi-Peep line of
  /// follow-up work) extracts from Polite WiFi ACKs.
  bool model_propagation_delay = true;
  /// Spatial super-cell shards. 1 = the unsharded reference path (one
  /// scheduler, one memo). > 1 partitions the plane into shard_cell_m
  /// super-cells interleaved over an nx × ny shard lattice; the owner
  /// must wire one Scheduler per shard (sharing the primary's timebase)
  /// through set_shard_schedulers before attaching radios. Every shard
  /// count yields byte-identical simulations — events merge in global
  /// (time, seq) order — which ShardEquivalence property-tests for
  /// 1/2/4/9.
  int shards = 1;
  /// Edge length (metres) of one shard super-cell.
  double shard_cell_m = 256.0;
};

/// Record of one on-air PPDU (what a perfect sniffer would log). The
/// payload is a shared reference into the medium's PPDU pool: sinks that
/// keep octets past the callback must copy them out (TraceRecorder does).
struct TransmissionEvent {
  TimePoint start{};
  TimePoint end{};
  const Radio* sender = nullptr;
  frames::PpduRef ppdu;
  phy::TxVector tx;
};

using TraceSink = std::function<void(const TransmissionEvent&)>;

/// Optional per-link CSI: (transmitter, receiver, time) -> snapshot.
/// Return nullopt to fall back to the medium's static default.
using CsiProvider = std::function<std::optional<phy::CsiSnapshot>(
    const Radio& tx, const Radio& rx, TimePoint now)>;

/// One in-flight (or recently finished) reception at some radio.
struct Reception {
  std::uint64_t id;
  TimePoint start, end;
  double power_dbm;
  double power_mw;  // dbm_to_mw(power_dbm), precomputed for interference sums
  bool receiver_awake_at_start;
};

/// Per-receiver in-flight reception list with an amortized prune
/// threshold: the list is swept when it doubles, not on every push.
/// Lives inside each Radio so the fan-out hot loop never touches a hash
/// map to find it.
struct ReceiverState {
  std::vector<Reception> list;
  std::size_t prune_at = 8;
};

/// One entry of a transmitter's cached fan-out: a receiver that clears
/// the detection threshold at the power the list was built for, plus the
/// memoized link gain. Lists are kept in attach order.
struct NeighborEntry {
  Radio* radio;
  double gain_db;
  std::uint64_t order;  // receiver's attach order (merge key)
};

class Medium {
 public:
  Medium(Scheduler& scheduler, MediumConfig config, std::uint64_t seed);

  void attach(Radio* radio);
  void detach(Radio* radio);

  /// Starts a transmission from `sender`. Every eligible radio receives
  /// the PPDU (or a collision-corrupted copy) when it ends. The medium
  /// takes shared ownership of the octets; they are never copied per
  /// receiver.
  void transmit(Radio& sender, frames::PpduRef ppdu, const phy::TxVector& tx);

  /// Convenience overload copying `ppdu` into a pooled buffer — for tests
  /// and the benchmark, which hand-roll octets. Hot paths build a PpduRef
  /// directly (Radio::transmit's template cache does).
  void transmit(Radio& sender, std::span<const std::uint8_t> ppdu,
                const phy::TxVector& tx);

  /// Carrier sense at `radio`: any reception above CS threshold underway?
  bool busy_for(const Radio& radio) const;

  void set_trace_sink(TraceSink sink) { trace_ = std::move(sink); }
  void set_csi_provider(CsiProvider provider) { csi_ = std::move(provider); }

  const MediumConfig& config() const { return config_; }
  Scheduler& scheduler() { return scheduler_; }

  // --- Sharding (see sim/shard.h and DESIGN.md) -----------------------------

  /// Wires the per-shard schedulers (index = shard id). Required before
  /// any radio attaches when config().shards > 1; `schedulers[0]` must
  /// be the constructor's scheduler and the others must share its
  /// timebase (Scheduler::adopt_timebase).
  void set_shard_schedulers(std::vector<Scheduler*> schedulers);
  /// The scheduler homing shard `shard` (0 when unsharded).
  Scheduler& shard_scheduler(std::uint64_t shard) const;
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shard_schedulers_.size());
  }
  /// Shard owning position `p`: super-cells interleave over the nx × ny
  /// shard lattice, so no world bounds are needed.
  std::uint32_t shard_of(const Position& p) const;
  /// Recomputes `radio`'s cell-exit horizon from its speed: shard checks
  /// are skipped until the radio could possibly have left its current
  /// super-cell. Pure optimization — assignment never affects bytes.
  void refresh_shard_horizon(Radio& radio, double speed_mps) const;

  /// The medium's PPDU buffer pool. Radios draw their outgoing payload
  /// buffers here so every buffer in one simulation recycles through a
  /// single free list.
  frames::PpduPool& ppdu_pool() { return ppdu_pool_; }
  const frames::PpduPool& ppdu_pool() const { return ppdu_pool_; }

  /// Deterministic per-link shadowing in dB (exposed for tests).
  double link_shadowing_db(const Radio& a, const Radio& b) const;

  /// The channel model computing both budget terms (exposed for tests:
  /// the equivalence suites replay its pure fading function directly).
  const phy::ChannelModel& channel() const { return channel_; }

  /// *Static* link budget: received power at `rx` for a transmission
  /// from `tx` before any dynamic fading — path loss + shadowing only.
  /// Memoized per directed link; invalidated when either radio moves or
  /// retunes (position-versioned). The fading term composes on top at
  /// fan-out time (see transmit).
  double rx_power_dbm(const Radio& tx_radio, double tx_power_dbm,
                      const Radio& rx_radio) const;

  // --- Radio bookkeeping (called by Radio; not for scenario code) -----------

  /// Per-medium radio identity, deterministic in attach order. Keeping the
  /// counter here (not a process-wide static) makes concurrent independent
  /// simulations in one process bit-reproducible.
  std::uint64_t allocate_radio_id() { return next_radio_id_++; }
  void on_radio_moved(Radio& radio);
  void on_radio_retuned(Radio& radio);

  /// Timeline pid grouping this medium's radio tracks in a trace (see
  /// obs/timeline.h). Process-unique, allocated at construction.
  std::int64_t timeline_group() const { return timeline_group_; }

  // --- Engine introspection (tests and the benchmark) ----------------------

  struct Stats {
    std::uint64_t transmissions = 0;       // PPDUs put on the air
    std::uint64_t candidates_scanned = 0;  // radios visited during fan-out
    std::uint64_t receptions = 0;          // receptions actually created
    /// Link-budget lookups served without a recompute: set-associative
    /// memo hits plus neighbor-lane replays (the per-transmitter lanes
    /// ARE the link cache's fan-out-keyed tier).
    std::uint64_t link_cache_hits = 0;
    std::uint64_t link_cache_misses = 0;
    /// Valid link-cache lines overwritten by a colliding link — the
    /// thrash signal the set-associative layout exists to suppress.
    std::uint64_t link_cache_evictions = 0;
    /// Times the link/FER caches were (re)allocated; growth drops the
    /// old contents, so a climbing generation under steady state would
    /// explain a hit-rate collapse.
    std::uint64_t link_cache_generation = 0;
    /// FER-bracket memo probes (one per frame-loss decision that reaches
    /// the memo); a miss evaluates both ends of the cell's bracket.
    std::uint64_t fer_cache_hits = 0;
    std::uint64_t fer_cache_misses = 0;
    /// Frame-loss decisions the bracket could not settle (the uniform
    /// landed inside it, or there is no memo: the oracle), decided by the
    /// exact phy::frame_error_rate.
    std::uint64_t fer_exact_fallbacks = 0;
    /// Payload octets copied after transmit() took ownership — only the
    /// copy-on-corrupt path ever adds to this; intact receivers share.
    std::uint64_t ppdu_bytes_copied = 0;
    /// Delivery events actually scheduled (batched fan-out folds every
    /// same-arrival-time reception of a transmission into one).
    std::uint64_t delivery_events = 0;
    /// Sharding: radios migrated to another shard at a cell-exit
    /// horizon, and transmissions whose fan-out crossed a shard border
    /// (mirrored into a foreign shard's event stream).
    std::uint64_t shard_handoffs = 0;
    std::uint64_t mirrored_tx = 0;
    /// Fading: Gaussian draws actually made (bridge nodes and block
    /// endpoints) vs evaluations served without a draw — the link's
    /// cached interval again, or a node its cached spine already holds.
    /// The *values* are pure functions of (link, interval) — these
    /// counters only describe how much work the lazy walk did, so they
    /// are shard- and schedule-dependent (ShardEquivalence carves them
    /// out).
    std::uint64_t fading_advances = 0;
    std::uint64_t fading_cache_hits = 0;
    /// Peak number of links holding live fading state across all shards.
    std::uint64_t fading_links_peak = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Grid cell edge length chosen from the detection budget (metres).
  double cell_size_m() const { return cell_size_m_; }

  /// Farthest distance at which a transmission at `tx_power_dbm` /
  /// `frequency_hz` could still clear detect_threshold_dbm, including the
  /// hard upper bound on the deterministic shadowing draw. 0 = inaudible
  /// at any distance.
  double max_detect_range_m(double tx_power_dbm, double frequency_hz) const;

  /// Coherence auditor: re-derives by brute force everything the spatial
  /// index, cached neighbor lists, and memoized link budgets, fades and
  /// FER brackets claim, and PW_CHECK-fails (fatal) on the first
  /// divergence — a stale grid cell, a neighbor list that differs from
  /// the brute-force reception set, or a link, fading or FER line that
  /// no longer matches a fresh recompute.
  /// Compiled into every build (tests corrupt state and assert it trips);
  /// audit builds additionally run the per-sender slice automatically
  /// every `kAuditPeriod` transmissions. O(radios^2) — test-scale only.
  void audit_coherence() const;

 private:
  friend class Radio;            // reads oracle_ to pick frame rendering
  friend struct MediumTestPeer;  // oracle switch + corruption injection

  static constexpr std::uint64_t kAuditPeriod = 256;
  /// Memoized directed link budget, one cache line. `gain_db` is
  /// (shadowing − path loss): rx_dbm = tx_dbm + gain_db. Valid while
  /// `key` matches and both geometry versions match; a colliding link
  /// overwrites the LRU way of its 2-line set — no chains, no rehash, no
  /// wholesale clears, so a miss costs one recompute, never a malloc.
  struct LinkBudget {
    std::uint64_t key;  // (tx_id << 32) | rx_id; 0 = empty (ids start at 1)
    std::uint32_t tx_version;
    std::uint32_t rx_version;
    double gain_db;
  };
  using CellMap = std::unordered_map<std::uint64_t, std::vector<Radio*>>;

  /// One pending receiver of an in-flight transmission (batched fan-out).
  struct PendingDelivery {
    Radio* radio;
    std::uint64_t reception_id;
    TimePoint rx_start, rx_end;
    double power_dbm;
    bool awake_at_start;  // receiver was awake when the preamble arrived
  };
  /// One in-flight transmission's shared payload plus its delivery list,
  /// recycled through a free list so steady-state fan-out never touches
  /// the allocator. Held by unique_ptr so records stay address-stable
  /// while `records_` grows re-entrantly.
  struct TransmissionRecord {
    frames::PpduRef ppdu;
    phy::TxVector tx;
    const Radio* sender = nullptr;
    std::vector<PendingDelivery> deliveries;
    /// Finalize order: indices into `deliveries` sorted by (rx_end,
    /// push order).
    std::vector<std::uint32_t> order;
    std::size_t next = 0;  // cursor into `order`
    bool live = false;
    /// The decode of `ppdu`, shared by every intact delivery (see
    /// intact_decode). Valid while `decoded`; release clears the flag but
    /// keeps the Frame's storage, so a recycled record decodes without
    /// allocating.
    frames::DeserializeResult decode;
    bool decoded = false;
  };

  std::size_t acquire_record();
  void release_record(std::size_t rec_idx);
  /// Orders the record's deliveries by arrival time (stable: fan-out
  /// order breaks ties) and schedules one event per distinct rx_end. The
  /// order comes from the transmitter's precomputed arrival-rank lane
  /// when the fan-out was a pure lane replay, from an index sort
  /// otherwise; both produce the identical finalize sequence.
  /// `lane_pushes` = deliveries that came straight off the sender's
  /// neighbor lanes.
  void schedule_batch(std::size_t rec_idx, const Radio& sender,
                      std::size_t lane_pushes);
  /// Finalizes every pending delivery of `rec_idx` arriving now.
  void run_batch(std::size_t rec_idx);

  /// Settles one delivery of `rec`: energy, interference, the
  /// collision/frame-loss decision, CSI, and the hand-off to the
  /// receiving MAC.
  void finalize_reception(TransmissionRecord& rec,
                          const PendingDelivery& delivery);
  /// The transmission's decode for an intact delivery: filled on the
  /// first call (the first intact delivery that reaches a MAC), served
  /// from the record afterwards. Audit builds re-decode on every hit and
  /// check the cached result is exactly the fresh one.
  const frames::DeserializeResult& intact_decode(TransmissionRecord& rec);
  void prune(std::vector<Reception>& list) const;
  /// Starts a reception at `rx_radio` and queues its delivery on the
  /// transmission's record. `rx_dbm` is the received power the caller
  /// already computed and checked against detect_threshold_dbm. The
  /// lane-replay path passes the precomputed linear power (`rx_mw`) and
  /// propagation delay (`prop_ns`); negative sentinels mean "compute
  /// here" — the lanes hold exactly the doubles this function would
  /// compute, so both spellings are bit-identical.
  void begin_reception(const Radio& sender, Radio* rx_radio, double rx_dbm,
                       TransmissionRecord& rec, TimePoint start,
                       TimePoint end, double rx_mw = -1.0,
                       std::int64_t prop_ns = -1);

  /// Flags a radio as geometry-volatile (it moved or retuned after
  /// attaching): it is dropped from every cached neighbor list and
  /// handled per-transmission instead, so a survey rig driving through
  /// the city doesn't invalidate the static population's lists on every
  /// step. The first flagging bumps the static-geometry epoch.
  void mark_volatile(Radio& radio);
  /// (Re)builds `sender`'s cached fan-out: every static radio on the
  /// sender's channel that clears the detection threshold at
  /// `tx_power_dbm`, in attach order, with memoized link gains.
  void build_neighbor_list(Radio& sender, double tx_power_dbm);

  double link_gain_db(const Radio& tx_radio, const Radio& rx_radio) const;
  /// The pure *static* link-budget computation (path loss +
  /// deterministic shadowing), bypassing the memo — a thin wrapper over
  /// phy::ChannelModel::static_gain_db. link_gain_db's miss path and
  /// the coherence auditor both call this, so "cache hit == fresh
  /// recompute" is checkable bit-for-bit. (The frequency →
  /// reference-loss term is memoized inside the channel model with the
  /// propagation model's exact expression, so the memo is
  /// bit-transparent.)
  double raw_link_gain_db(const Radio& tx_radio, const Radio& rx_radio) const;
  /// The dynamic fading term for the (a, b) link at coherence interval
  /// `interval`, served through shard `shard`'s fading-state lines: a
  /// line holding this link at this interval, or holding it as a spine
  /// node, is a pure cache hit; a later interval of the same block
  /// descends from the line's smallest cached bracket, anything else
  /// evaluates the block's bridge cold. The returned value is a pure
  /// function of (pair key, interval) regardless of cache state, which
  /// is what keeps every shard count byte-identical.
  double link_fading_db(const Radio& a, const Radio& b,
                        std::uint64_t interval, std::uint32_t shard) const;
  /// One sender's slice of audit_coherence: its grid residency and (when
  /// valid) its cached neighbor list vs the brute-force reception set.
  void audit_radio(const Radio& radio) const;
  /// Grows every shard's memo with the attached population (link and
  /// FER lines ~ 256 × radios, power of two, clamped; fading lines an
  /// eighth of that). Growing drops the old contents, which only happens
  /// during topology construction. The oracle never allocates them.
  void maybe_grow_link_cache();
  /// The frame-loss decision for one reception: draws the medium RNG's
  /// next uniform u and returns u < phy::frame_error_rate(rate, sinr_db,
  /// octets), which is rng_.bernoulli(fer) draw for draw. The FER is
  /// evaluated only when the bracket of sinr_db's 1/64 dB cell, served
  /// by `shard`'s memo (the transmitter's; 0 when unsharded), cannot
  /// settle u; phy::kFerBracketSlack makes the bracket exact. Without a
  /// memo (the oracle) every decision evaluates the FER.
  bool frame_lost(const phy::PhyRate& rate, double sinr_db,
                  std::size_t octets, std::uint32_t shard) const;
  /// Homes `radio` on the shard owning its position (attach and
  /// post-horizon moves); rebinds its scheduler.
  void maybe_migrate_shard(Radio& radio);
  /// The scheduler homing `radio`'s shard (== scheduler_ unsharded).
  Scheduler& scheduler_for(const Radio& radio) const;

  std::int32_t cell_coord(double v) const;
  std::uint64_t cell_key_for(const Position& p) const;
  void index_insert(Radio* radio);
  void index_remove(Radio* radio);
  /// Fills `out` with every indexed radio on the sender's (band,channel)
  /// within detection range, sorted into attach order so the fan-out loop
  /// behaves byte-identically to the brute-force scan.
  void collect_candidates(const Radio& sender, double tx_power_dbm,
                          std::vector<Radio*>& out) const;

  Scheduler& scheduler_;
  MediumConfig config_;
  /// Reference oracle, set only by MediumTestPeer before any radio
  /// attaches: fan-out scans every attached radio in attach order, no
  /// link/FER/fading memo is ever allocated (every lookup recomputes
  /// from the pure functions, and every frame-loss decision evaluates
  /// the exact FER), radios serialize every frame instead of patching
  /// templates, and every receiver gets octets to decode itself instead
  /// of the record's shared decode. The equivalence suites require
  /// production to reproduce its bytes.
  bool oracle_ = false;
  /// Shard id -> scheduler; {&scheduler_} when unsharded. Shard lattice
  /// factorization shard = ix mod nx + nx * (iy mod ny).
  std::vector<Scheduler*> shard_schedulers_;
  std::uint32_t shard_nx_ = 1;
  std::uint32_t shard_ny_ = 1;
  mutable Rng rng_;
  std::uint64_t seed_;
  /// Static-geometry + dynamic-fading math (see phy/channel_model.h).
  /// Owns the per-frequency reference-loss memo, the shadowing draw and
  /// the counter-based fading streams; the medium's caches store only
  /// what this model computes.
  phy::ChannelModel channel_;
  double cell_size_m_ = 0.0;
  std::vector<Radio*> radios_;
  std::unordered_map<std::uint64_t, CellMap> grid_;  // chan key -> cells
  /// Bumped whenever the static topology changes (attach, detach, or a
  /// radio's first move/retune). Cached neighbor lists are valid only
  /// while this is unchanged.
  std::uint64_t static_epoch_ = 1;
  std::vector<Radio*> volatile_radios_;  // sorted by attach order
  std::uint64_t next_reception_id_ = 1;
  std::uint64_t next_radio_id_ = 1;
  std::uint64_t next_attach_order_ = 1;
  std::int64_t timeline_group_ = 0;
  TraceSink trace_;
  CsiProvider csi_;
  mutable Stats stats_;
  /// One line of the FER memo (32 B): the FER bracket of one 1/64 dB
  /// SINR cell for one (rate, length). `mbps` is NaN on an empty line,
  /// which matches no rate. A frame of 2^19 octets or more, an NDBPS of
  /// 2^12 or more, or a SINR outside the int32 cell range skips the memo
  /// and is decided exactly.
  struct FerMemoEntry {
    double fer_lo = 0.0;  // phy::frame_error_rate at the cell's low end
    double fer_hi = 0.0;  // ... and at its high end
    double mbps = std::numeric_limits<double>::quiet_NaN();
    std::int32_t cell = 0;     // floor(sinr_db * phy::kFerCellsPerDb)
    std::uint32_t shape = 0;   // (octets << 13) | (ndbps << 1) | dsss bit
  };
  static_assert(sizeof(FerMemoEntry) == 32, "one FER line per half cache line");
  /// One link's cached fading position and bridge spine (see
  /// phy::ChannelModel::FadingState, ~100 B). Keyed by the
  /// order-independent pair key; 0 = empty. Purely a cache of the pure
  /// fading function, so a collision overwriting a line (or a shard
  /// split partitioning the lines differently) never changes a returned
  /// value — only how many nodes the next evaluation has to draw.
  struct FadingLine {
    std::uint64_t key = 0;
    phy::ChannelModel::FadingState state;
  };
  /// One shard's link-budget + FER + fading memo. Lookups key off the
  /// transmitter's shard so a shard only touches its own lines (cache
  /// locality is the point of sharding); pure memoization either way,
  /// so the split never changes a returned double.
  struct LinkMemo {
    /// Link-budget cache lines (power-of-two count), 2-way
    /// set-associative: lines 2s and 2s+1 are the two ways of set
    /// s = hash & (mask >> 1).
    std::vector<LinkBudget> lines;
    std::uint64_t mask = 0;
    /// Per-set MRU way (0 or 1); the miss victim is the other way (LRU
    /// within the set).
    std::vector<std::uint8_t> mru;
    std::vector<FerMemoEntry> fer_lines;  // direct-mapped, pow-2 size
    std::uint64_t fer_mask = 0;
    /// Dynamic-fading state lines (direct-mapped, pow-2), allocated only
    /// when fading is enabled — the rho = 0 path never touches them.
    std::vector<FadingLine> fading_lines;
    std::uint64_t fading_mask = 0;
  };
  mutable std::vector<LinkMemo> memos_;  // one per shard; [0] unsharded
  /// Receiver noise floor — a constant of the medium config, hoisted out
  /// of the per-reception SINR math.
  double noise_mw_ = 0.0;
  double noise_floor_dbm_ = 0.0;  // mw_to_dbm(noise_mw_)
  /// Tiny (power, frequency) -> detection-range memo: a fleet transmits
  /// at a handful of fixed EIRPs, so the per-transmission pow() folds
  /// into a linear scan of 8 entries.
  struct RangeMemo {
    double power_dbm = 0.0, freq_hz = 0.0, range_m = 0.0;
  };
  mutable RangeMemo range_memo_[8];
  mutable unsigned range_memo_next_ = 0;
  /// Links currently holding live fading state across all shards (the
  /// fading_links_peak gauge tracks its high-water mark). Reset when
  /// cache growth drops the lines.
  mutable std::uint64_t fading_links_live_ = 0;
  mutable std::vector<Radio*> scratch_;  // fan-out candidate buffer (reused)

  /// Declared before records_ so records release their payload references
  /// back into a still-live pool during destruction.
  frames::PpduPool ppdu_pool_;
  std::vector<std::unique_ptr<TransmissionRecord>> records_;
  std::vector<std::size_t> free_records_;

  // Per-pair cached static paths for the default CSI fallback.
  mutable std::unordered_map<std::uint64_t, phy::PathSet> static_paths_;
};

}  // namespace politewifi::sim
