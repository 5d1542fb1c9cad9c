// Observability: the engine's metrics registry and its zero-cost
// instrumentation macros.
//
// Every counter, gauge and histogram the engine can emit is declared in
// the central catalogue below — there is no lazy registration, so the
// metrics block always has exactly the same shape (every name present,
// zeros included) no matter which code paths ran. That is what lets the
// canonical `metrics` JSON be golden-gated like every other document
// this repo emits.
//
// Determinism across threads is by construction: all cells are
// process-global relaxed atomics updated only with commutative integer
// operations — counters and histogram buckets accumulate by addition,
// gauges merge by max — so the collected totals are independent of
// thread interleaving (the campaign driver's pool threads count
// concurrently). The one thing that is *not* deterministic, wall
// time, lives in histograms flagged `wall` which the canonical
// `to_json()` excludes; wall spans flow to the TimelineProfiler instead
// (see OBSERVABILITY.md for the full rules).
//
// Cost model: with PW_METRICS=OFF (CMake option) the PW_* macros expand
// to `((void)0)` — the instrumented layers compile exactly as before.
// With the default ON build, every macro first tests a relaxed atomic
// bool (set only by `pw_run --metrics`, the benchmark, and tests), so runs
// that never ask for metrics pay one predictable branch per site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>

#include "common/json.h"

// PW_METRICS_ENABLED=1 is injected by CMake when -DPW_METRICS=ON (the
// default). A TU can define PW_OBS_FORCE_OFF before including this
// header to get the OFF expansion regardless of the build (the no-op
// macro test does).
#if !defined(PW_OBS_FORCE_OFF) && defined(PW_METRICS_ENABLED) && \
    PW_METRICS_ENABLED
#define PW_OBS_ON 1
#else
#define PW_OBS_ON 0
#endif

namespace politewifi::obs {

// The counter catalogue: X(symbol, "name", "unit", "what it witnesses").
// Names are dotted `<layer>.<subsystem>.<what>`; OBSERVABILITY.md lists
// every entry (a test diffs the doc against this table).
#define PW_OBS_COUNTER_LIST(X)                                                \
  X(kSchedulerEventsExecuted, "sim.scheduler.events_executed", "events",      \
    "callbacks popped and run by the event loop")                             \
  X(kSchedulerEventsCancelled, "sim.scheduler.events_cancelled", "events",    \
    "events tombstoned by Scheduler::cancel")                                 \
  X(kSchedulerCompactions, "sim.scheduler.compactions", "sweeps",             \
    "O(n) tombstone sweeps (cancel churn exceeded half the heap)")            \
  X(kMediumTransmissions, "sim.medium.transmissions", "ppdus",                \
    "PPDUs put on the air")                                                   \
  X(kMediumFanoutCandidates, "sim.medium.fanout_candidates", "radios",        \
    "radios visited during transmission fan-out")                             \
  X(kMediumReceptions, "sim.medium.receptions", "receptions",                 \
    "receptions actually created (candidates above detect threshold)")        \
  X(kMediumDeliveryEvents, "sim.medium.delivery_events", "events",            \
    "delivery events scheduled (batched fan-out folds same-time arrivals)")   \
  X(kMediumLinkCacheHits, "sim.medium.link_cache_hits", "lookups",            \
    "link-budget memo hits")                                                  \
  X(kMediumLinkCacheMisses, "sim.medium.link_cache_misses", "lookups",        \
    "link-budget memo misses (full path-loss + shadowing recompute)")         \
  X(kMediumLinkCacheEvictions, "sim.medium.link_cache_evictions", "lines",    \
    "valid link-cache lines overwritten by a colliding link (thrash)")        \
  X(kMediumFerCacheHits, "sim.medium.fer_cache_hits", "lookups",              \
    "FER-bracket memo hits (one probe per frame-loss decision)")              \
  X(kMediumFerCacheMisses, "sim.medium.fer_cache_misses", "lookups",          \
    "FER-bracket memo misses (both cell ends evaluated)")                     \
  X(kMediumFerExactFallbacks, "sim.medium.fer_exact_fallbacks", "decisions",  \
    "frame-loss decisions the FER bracket could not settle (exact FER)")      \
  X(kMediumPpduBytesCopied, "sim.medium.ppdu_bytes_copied", "octets",         \
    "payload octets copied post-transmit (copy-on-corrupt only)")             \
  X(kMediumFadingAdvances, "sim.medium.fading_advances", "draws",             \
    "fading Gaussian draws (bridge nodes + block endpoints)")                 \
  X(kMediumFadingCacheHits, "sim.medium.fading_cache_hits", "lookups",        \
    "fading evaluations served without a draw (same interval or spine node)") \
  X(kPpduPoolReuses, "sim.ppdu_pool.reuses", "buffers",                       \
    "PPDU buffers recycled from the pool free list")                          \
  X(kPpduPoolAllocations, "sim.ppdu_pool.allocations", "buffers",             \
    "PPDU buffers heap-allocated (pool cold or pooling off)")                 \
  X(kRadioStateTransitions, "sim.radio.state_transitions", "transitions",     \
    "radio power-state changes metered by EnergyMeter")                       \
  X(kShardHandoffs, "sim.shard.handoffs", "migrations",                       \
    "mobile radios migrated to another shard at a cell-exit horizon")         \
  X(kShardMirroredTx, "sim.shard.mirrored_tx", "ppdus",                       \
    "transmissions whose fan-out crossed a shard border (deliveries "         \
    "mirrored into a foreign shard's event stream)")                          \
  X(kShardSyncStalls, "sim.shard.sync_stalls", "switches",                    \
    "conservative-sync shard switches in the executor's merge loop")          \
  X(kFramesDecodes, "frames.decodes", "frames",                               \
    "octet strings parsed into a Frame (an FCS check alone is no decode)")    \
  X(kMacAcksSent, "mac.acks_sent", "frames",                                  \
    "ACKs elicited at SIFS (the paper's core effect)")                        \
  X(kMacDedupEvictions, "mac.dedup_evictions", "entries",                     \
    "LRU evictions from the receive dedup cache")                             \
  X(kMacRetries, "mac.retries", "frames",                                     \
    "DCF retransmission attempts (retry bit set)")                            \
  X(kPhyFerDraws, "phy.fer_draws", "draws",                                   \
    "frame-error-rate evaluations at the PHY")                                \
  X(kRuntimeSubseedsDerived, "runtime.subseeds_derived", "seeds",             \
    "sub-seeds derived from the run seed, one per label")           \
  X(kRuntimeSimsBuilt, "runtime.sims_built", "simulations",                   \
    "Simulations constructed through RunContext::make_sim")                   \
  X(kCampaignJobsCompleted, "runtime.campaign.jobs_completed", "jobs",        \
    "campaign jobs whose document was journaled to results.jsonl")            \
  X(kCampaignJobsRetried, "runtime.campaign.jobs_retried", "attempts",        \
    "campaign job attempts re-dispatched after a crash, timeout or "          \
    "missing document")                                                       \
  X(kCampaignJobsQuarantined, "runtime.campaign.jobs_quarantined", "jobs",    \
    "campaign jobs quarantined after exhausting the retry budget")

// Gauges merge by max, so they record deterministic high-water marks.
#define PW_OBS_GAUGE_LIST(X)                                                  \
  X(kSchedulerPoolSlotsPeak, "sim.scheduler.pool_slots_peak", "slots",        \
    "peak event-pool size (live + free slots)")                               \
  X(kSchedulerTombstonesPeak, "sim.scheduler.tombstones_peak", "events",      \
    "peak cancelled-but-unreclaimed events in the heap")                      \
  X(kMediumRadiosPeak, "sim.medium.radios_peak", "radios",                    \
    "peak radios attached to one medium")                                     \
  X(kMediumLinkCacheGeneration, "sim.medium.link_cache_generation",           \
    "generations",                                                            \
    "link/FER cache (re)allocations — growth drops the old contents")         \
  X(kMediumFadingLinksPeak, "sim.medium.fading_links_peak", "links",          \
    "peak links holding live fading state across all shards")                 \
  X(kShardSkewNs, "sim.shard.skew_ns", "ns",                                  \
    "peak spread between shard head-event times at an executor switch")       \
  X(kCampaignQueueDepthPeak, "runtime.campaign.queue_depth_peak", "jobs",     \
    "peak queued-but-undispatched jobs in one campaign invocation")

enum class Counter : std::uint16_t {
#define PW_OBS_X(sym, name, unit, desc) sym,
  PW_OBS_COUNTER_LIST(PW_OBS_X)
#undef PW_OBS_X
      kCount,
};

enum class Gauge : std::uint16_t {
#define PW_OBS_X(sym, name, unit, desc) sym,
  PW_OBS_GAUGE_LIST(PW_OBS_X)
#undef PW_OBS_X
      kCount,
};

/// Histograms carry fixed integer bucket edges (values are integers —
/// octets, parts-per-million, nanoseconds — so bucketing never touches
/// floating point). `wall` flags real-time-valued histograms, which the
/// canonical metrics block excludes.
enum class Hist : std::uint16_t {
  kPhyFerPpm,             // FER per PHY evaluation, parts-per-million
  kMacTxOctets,           // transmitted MPDU sizes
  kRuntimeExperimentWallNs,  // wall: one experiment run
  kCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* description;
};

struct HistInfo {
  const char* name;
  const char* unit;
  const char* description;
  /// Ascending upper bucket bounds; bucket i counts values v with
  /// edges[i-1] < v <= edges[i], plus one trailing overflow bucket.
  std::span<const std::int64_t> edges;
  bool wall;  // real-time valued: excluded from the canonical block
};

std::span<const MetricInfo> counter_catalog();
std::span<const MetricInfo> gauge_catalog();
std::span<const HistInfo> hist_catalog();

const MetricInfo& counter_info(Counter c);
const MetricInfo& gauge_info(Gauge g);
const HistInfo& hist_info(Hist h);

/// The process-wide registry. All storage is static so the hot-path add
/// is one array index + one relaxed atomic op, with no singleton load.
///
/// Concurrency: every cell is a std::atomic updated with relaxed
/// ordering — the counters are commutative, so no mutex (and hence no
/// PW_GUARDED_BY capability) exists here by design; -Wthread-safety
/// verifies atomics' data-race freedom comes from the type, not from
/// annotations. The one non-atomic phase is reset(), whose "no
/// instrumented threads running" precondition is a call-phasing
/// contract (documented above it) checked by the TSan CI job rather
/// than by the static analysis.
class Registry {
 public:
  /// Edges per histogram are bounded so the cells are fixed arrays.
  static constexpr std::size_t kMaxHistEdges = 15;

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Turns collection on/off. Callers (the runtime, the benchmark, tests)
  /// normally reset() first so the window is well-defined.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Zeroes every cell. Must not race instrumented threads; the runtime
  /// only calls it between runs.
  static void reset();

  static void count(Counter c, std::int64_t n) {
    if (!enabled()) return;
    counters_[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
  static void gauge_max(Gauge g, std::int64_t v) {
    if (!enabled()) return;
    std::atomic<std::int64_t>& cell = gauges_[static_cast<std::size_t>(g)];
    std::int64_t prev = cell.load(std::memory_order_relaxed);
    while (v > prev &&
           !cell.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  static void record(Hist h, std::int64_t v);

  // Collected values (tests and the JSON writer).
  static std::int64_t counter_value(Counter c);
  static std::int64_t gauge_value(Gauge g);
  static std::int64_t hist_bucket(Hist h, std::size_t bucket);
  static std::int64_t hist_total(Hist h);
  static std::int64_t hist_sum(Hist h);

  /// The canonical metrics block: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}} with every catalogued name present and wall
  /// histograms excluded. Independent of which threads did the counting.
  static common::Json to_json() { return to_json(/*include_wall=*/false); }
  /// `include_wall=true` adds the wall histograms — diagnostics only,
  /// never golden-gated.
  static common::Json to_json(bool include_wall);

 private:
  struct HistCells {
    std::atomic<std::int64_t> buckets[kMaxHistEdges + 1];
    std::atomic<std::int64_t> sum;
  };

  static std::atomic<bool> enabled_;
  static std::atomic<std::int64_t> counters_[kNumCounters];
  static std::atomic<std::int64_t> gauges_[kNumGauges];
  static HistCells hists_[kNumHists];
};

/// RAII wall-clock span: on destruction feeds its (wall-flagged)
/// histogram and, when a timeline is active, emits a real-time span
/// into the trace. This is the only sanctioned wall-clock read in the
/// instrumented layers — pw_lint's `direct-timing` rule keeps raw
/// std::chrono timing out of sim/mac/phy/runtime so every measurement
/// routes through here (and therefore stays out of canonical output).
class ScopedTimer {
 public:
  ScopedTimer(Hist h, const char* span_name)
      : hist_(h),
        name_(span_name),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Hist hist_;
  const char* name_;  // static string (trace label)
  std::chrono::steady_clock::time_point start_;
};

}  // namespace politewifi::obs

#define PW_OBS_CAT2(a, b) a##b
#define PW_OBS_CAT(a, b) PW_OBS_CAT2(a, b)

#if PW_OBS_ON
/// Bumps a catalogued counter by 1 / by `n`.
#define PW_COUNT(sym) \
  ::politewifi::obs::Registry::count(::politewifi::obs::Counter::sym, 1)
#define PW_COUNT_N(sym, n)                                           \
  ::politewifi::obs::Registry::count(::politewifi::obs::Counter::sym, \
                                     static_cast<std::int64_t>(n))
/// Raises a high-water-mark gauge to at least `v`.
#define PW_GAUGE_MAX(sym, v)                                             \
  ::politewifi::obs::Registry::gauge_max(::politewifi::obs::Gauge::sym, \
                                         static_cast<std::int64_t>(v))
/// Records one integer sample into a catalogued histogram.
#define PW_HIST(sym, v)                                              \
  ::politewifi::obs::Registry::record(::politewifi::obs::Hist::sym, \
                                      static_cast<std::int64_t>(v))
/// Times the enclosing scope (wall clock) into a wall-flagged histogram
/// and, when a timeline is active, a trace span named `span_name`.
#define PW_TIMEIT(sym, span_name)                                       \
  ::politewifi::obs::ScopedTimer PW_OBS_CAT(pw_obs_timer_, __LINE__)( \
      ::politewifi::obs::Hist::sym, (span_name))
#else
#define PW_COUNT(sym) ((void)0)
#define PW_COUNT_N(sym, n) ((void)0)
#define PW_GAUGE_MAX(sym, v) ((void)0)
#define PW_HIST(sym, v) ((void)0)
#define PW_TIMEIT(sym, span_name) ((void)0)
#endif
