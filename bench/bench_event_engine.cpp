// Event-engine microbenchmark: the raw scheduler and medium numbers that
// every experiment above is built from.
//
//   1. scheduler push/pop  — 1M timers through the pooled binary heap
//   2. schedule/cancel churn — the lazy-cancellation path (tombstones)
//   3. medium fan-out       — a transmitter pool among 10 / 500 / 5000 /
//      50000 attached radios through the spatial index
//   4. ppdu pipeline        — one injector streaming at 50 receivers
//      through the zero-copy pipeline (shared payloads + frame templates
//      + batched fan-out), with a counting-allocator hook proving the
//      steady state allocation-free
//
// Emits BENCH_event_engine.json in the same format as the experiment
// benches, so the engine's perf trajectory is tracked PR over PR.
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>

#include "bench_util.h"
#include "frames/frame.h"
#include "obs/metrics.h"
#include "sim/medium.h"
#include "sim/radio.h"
#include "sim/shard.h"

// --- Counting allocator hook -------------------------------------------------
// Replaceable global operator new/delete: every heap allocation in the
// process bumps one counter, so a bench phase can assert "no allocations
// happened here" instead of guessing from throughput.
namespace politewifi::bench_alloc {
std::uint64_t count = 0;
}  // namespace politewifi::bench_alloc

namespace {
void* counted_alloc(std::size_t n) {
  ++politewifi::bench_alloc::count;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t) {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace politewifi;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// 1M schedule + run_all. Returns events/sec.
double bench_push_pop(bench::PerfReport& perf) {
  constexpr int kEvents = 1'000'000;
  sim::Scheduler scheduler;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    // Mixed delays so heap pushes actually sift. 64-bit multiply: the
    // 32-bit product overflows (UB) around i = 271k, and the optimizer's
    // no-overflow assumption then turns this into an infinite loop.
    scheduler.schedule_in(microseconds((std::int64_t{i} * 7919) % 10000),
                          [&sink] { ++sink; });
  }
  scheduler.run_all();
  const double dt = seconds_since(t0);
  perf.add_events(scheduler.events_executed(), scheduler.now() - kSimStart);
  bench::kvf("push+pop 1M events (s)", "%.3f", dt);
  bench::kvf("push+pop events/sec", "%.0f", kEvents / dt);
  bench::kvf("pool slots at end", "%.0f", double(scheduler.pool_slots()));
  return sink == kEvents ? kEvents / dt : 0.0;
}

/// 1M schedule-then-cancel cycles. The regression this guards: cancel
/// used to push every id into an unbounded set that pop never fully
/// drained. Now a cancel tombstones its pooled slot and pop reclaims it,
/// so memory stays O(live events).
double bench_cancel_churn(bench::PerfReport& perf) {
  constexpr int kCycles = 1'000'000;
  sim::Scheduler scheduler;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kCycles; ++i) {
    const auto id = scheduler.schedule_in(seconds(10), [] {});
    scheduler.cancel(id);
    if ((i & 1023) == 0) scheduler.run_for(microseconds(1));
  }
  scheduler.run_all();
  const double dt = seconds_since(t0);
  bench::kvf("schedule+cancel 1M cycles (s)", "%.3f", dt);
  bench::kvf("cancel cycles/sec", "%.0f", kCycles / dt);
  bench::kvf("pool slots at end", "%.0f", double(scheduler.pool_slots()));
  bench::kvf("tombstones at end", "%.0f", double(scheduler.tombstones()));
  perf.note("cancel_cycles_per_sec", kCycles / dt);
  return kCycles / dt;
}

struct FanoutResult {
  double tx_per_sec = 0.0;
  std::uint64_t link_hits = 0;
  std::uint64_t link_misses = 0;
  std::uint64_t fading_advances = 0;
};

/// Transmitters from a small pool rotating among `n` radios scattered
/// over `extent_m`. A pool — rather
/// than every radio taking one turn — is the realistic dense-cell shape
/// (a handful of beaconing APs and chatty stations in front of a large
/// population) and is what gives the link cache a live working set to
/// hit: each pool member's fan-out repeats every `pool` rounds.
FanoutResult bench_fanout(bench::PerfReport& perf, std::size_t n,
                          double extent_m, int rounds,
                          double fading_coherence_us = 0.0,
                          bool note_perf = true) {
  const bool fading = fading_coherence_us > 0.0;
  sim::Scheduler scheduler;
  sim::MediumConfig mc;
  mc.shadowing_sigma_db = 0.0;
  if (fading) {
    // Heavily correlated fading: every delivery composes a per-link
    // AR(1) fade on top of the cached static budget. The caller picks
    // the coherence interval: short (100 µs) moves each link's fade on
    // nearly every evaluation (worst-case throughput), long makes
    // repeat evaluations land in one interval (cache-hit harvest).
    mc.fading_rho = 0.9;
    mc.fading_sigma_db = 2.0;
    mc.fading_coherence_us = fading_coherence_us;
  }
  sim::Medium medium(scheduler, mc, /*seed=*/7);

  // Station-less radios: Radio::deliver drops the PPDU when no MAC is
  // attached, which is exactly what we want — this measures the medium,
  // not the MAC.
  Rng rng(1234);
  std::vector<std::unique_ptr<sim::Radio>> radios;
  radios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::RadioConfig rc;
    rc.position = {rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)};
    radios.push_back(
        std::make_unique<sim::Radio>(medium, scheduler, rc));
  }
  // Pool sized so every member transmits many times even in PW_SCALE'd
  // CI runs (rounds / 20), capped low enough that the pool's neighbor
  // lanes and link-cache lines stay resident between turns.
  const std::size_t pool = std::max<std::size_t>(
      1, std::min({std::size_t(rounds) / 20, n / 50, std::size_t{16}}));

  const Bytes ppdu(64, 0xAA);
  phy::TxVector tx;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    medium.transmit(*radios[r % pool], ppdu, tx);
    scheduler.run_all();
  }
  const double dt = seconds_since(t0);
  const auto& stats = medium.stats();
  const double lookups =
      double(stats.link_cache_hits + stats.link_cache_misses);
  const double hit_rate =
      lookups > 0.0 ? double(stats.link_cache_hits) / lookups : 0.0;
  std::printf(
      "  %5zu radios  %zu tx pool  %7.0f tx/s  "
      "(%.2f candidates/tx, %.2f receptions/tx, %.1f%% link-cache hits"
      "%s)\n",
      n, pool, rounds / dt,
      double(stats.candidates_scanned) / double(stats.transmissions),
      double(stats.receptions) / double(stats.transmissions),
      hit_rate * 100.0, fading ? ", fading on" : "");
  perf.add_events(scheduler.events_executed(), scheduler.now() - kSimStart);
  if (note_perf) {
    char key[64];
    std::snprintf(key, sizeof key, "fanout_%zu_indexed%s_tx_per_sec", n,
                  fading ? "_fading" : "");
    perf.note(key, rounds / dt);
    if (!fading) {
      std::snprintf(key, sizeof key, "fanout_%zu_indexed_link_cache_hit_rate",
                    n);
      perf.note(key, hit_rate);
    }
  }
  return FanoutResult{rounds / dt, stats.link_cache_hits,
                      stats.link_cache_misses, stats.fading_advances};
}

/// City-shard point: the dense fan-out workload routed through a sharded
/// medium — `shards` super-cell schedulers sharing one timebase, drained
/// by the ShardExecutor's k-way merge — against the unsharded single-heap
/// path (`shards` = 1). Receptions are identical either way (the
/// ShardEquivalence suite proves it); what this measures is the merge
/// and boundary-mirror overhead the in-process sharded city pays.
double bench_city_shard(bench::PerfReport& perf, int shards, std::size_t n,
                        double extent_m, int rounds) {
  sim::Scheduler primary;
  std::vector<std::unique_ptr<sim::Scheduler>> extras;
  std::vector<sim::Scheduler*> schedulers{&primary};
  for (int s = 1; s < shards; ++s) {
    extras.push_back(std::make_unique<sim::Scheduler>());
    extras.back()->adopt_timebase(primary);
    schedulers.push_back(extras.back().get());
  }

  sim::MediumConfig mc;
  mc.shadowing_sigma_db = 0.0;
  mc.shards = shards;
  sim::Medium medium(primary, mc, /*seed=*/7);
  if (shards > 1) medium.set_shard_schedulers(schedulers);
  sim::ShardExecutor executor(schedulers);

  Rng rng(1234);
  std::vector<std::unique_ptr<sim::Radio>> radios;
  radios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::RadioConfig rc;
    rc.position = {rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)};
    radios.push_back(std::make_unique<sim::Radio>(medium, primary, rc));
  }
  const std::size_t pool = std::max<std::size_t>(
      1, std::min({std::size_t(rounds) / 20, n / 50, std::size_t{16}}));

  const Bytes ppdu(64, 0xAA);
  phy::TxVector tx;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    medium.transmit(*radios[r % pool], ppdu, tx);
    if (shards > 1) {
      executor.run_all();
    } else {
      primary.run_all();
    }
  }
  const double dt = seconds_since(t0);
  const auto& stats = medium.stats();
  std::printf(
      "  %5zu radios  shards=%d  %7.0f tx/s  "
      "(%llu mirrored tx, %llu handoffs)\n",
      n, shards, rounds / dt,
      static_cast<unsigned long long>(stats.mirrored_tx),
      static_cast<unsigned long long>(stats.shard_handoffs));
  perf.add_events(executor.events_executed(), executor.now() - kSimStart);
  char key[64];
  std::snprintf(key, sizeof key, "city_shard_%d_tx_per_sec", shards);
  perf.note(key, rounds / dt);
  return rounds / dt;
}

/// One attacker streaming fake null-function frames at `n_rx` in-range
/// station-less receivers — the inject→transmit→deliver path the battery
/// attack lives on (shared pooled payloads, frame-template cache, batched
/// fan-out). Returns frames/sec and records the steady-state allocation
/// delta measured by the counting operator-new hook after a warm-up
/// phase.
double bench_ppdu_pipeline(bench::PerfReport& perf, std::size_t n_rx,
                           int frames,
                           bool note_perf = true) {
  sim::Scheduler scheduler;
  sim::MediumConfig mc;
  mc.shadowing_sigma_db = 0.0;
  mc.model_frame_errors = false;
  // Sub-µs propagation is irrelevant at 100 m and would give every
  // receiver a distinct arrival time, hiding what this section measures:
  // batched fan-out collapsing the per-receiver end-of-PPDU events into
  // one delivery event per transmission.
  mc.model_propagation_delay = false;
  sim::Medium medium(scheduler, mc, /*seed=*/7);

  sim::RadioConfig arc;
  arc.position = {50.0, 50.0};
  sim::Radio attacker(medium, scheduler, arc);

  Rng rng(1234);
  std::vector<std::unique_ptr<sim::Radio>> receivers;
  receivers.reserve(n_rx);
  for (std::size_t i = 0; i < n_rx; ++i) {
    sim::RadioConfig rc;
    rc.position = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    receivers.push_back(std::make_unique<sim::Radio>(medium, scheduler, rc));
  }

  frames::Frame fake = frames::make_null_function(
      MacAddress::broadcast(), MacAddress::paper_fake_address(), 0);
  phy::TxVector tx;

  // Warm-up: fills the PPDU pool, the template cache, and the delivery
  // record free-list so the measured phase sees only recycled capacity.
  constexpr int kWarmup = 256;
  std::uint16_t seq = 0;
  for (int i = 0; i < kWarmup; ++i) {
    fake.seq.sequence = seq++ & 0x0FFF;
    attacker.transmit(fake, tx);
    scheduler.run_all();
  }

  const std::uint64_t allocs_before = politewifi::bench_alloc::count;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < frames; ++i) {
    fake.seq.sequence = seq++ & 0x0FFF;
    attacker.transmit(fake, tx);
    scheduler.run_all();
  }
  const double dt = seconds_since(t0);
  const std::uint64_t steady_allocs =
      politewifi::bench_alloc::count - allocs_before;

  std::printf(
      "  %7.0f frames/s  %6llu allocs in steady phase  "
      "%8llu payload bytes copied\n",
      frames / dt,
      static_cast<unsigned long long>(steady_allocs),
      static_cast<unsigned long long>(medium.stats().ppdu_bytes_copied));
  perf.add_events(scheduler.events_executed(), scheduler.now() - kSimStart);
  if (!note_perf) return frames / dt;
  perf.note("ppdu_pipeline_frames_per_sec", frames / dt);
  perf.note("ppdu_pipeline_steady_allocations", double(steady_allocs));
  perf.note("ppdu_pipeline_bytes_copied",
            double(medium.stats().ppdu_bytes_copied));
  return frames / dt;
}

}  // namespace

int main() {
  const double scale = bench::env_scale(1.0);
  bench::PerfReport perf("event_engine");
  bench::header("Event engine", "scheduler + medium microbenchmarks");

  bench::section("scheduler: push/pop");
  const double pp = bench_push_pop(perf);
  perf.note("push_pop_events_per_sec", pp);

  bench::section("scheduler: schedule/cancel churn");
  bench_cancel_churn(perf);

  bench::section("medium: fan-out (tx pool among n radios, 2 km square)");
  const int rounds = scale >= 1.0 ? 2000 : 200;
  bool fanout_hits_dominate = true;
  for (const std::size_t n : {std::size_t{10}, std::size_t{500},
                              std::size_t{5000}}) {
    const FanoutResult indexed = bench_fanout(perf, n, 2000.0, rounds);
    // The acceptance bar the set-associative cache + SoA lanes exist
    // for: on a steady fan-out workload, lookups served from cache must
    // dominate recomputes.
    if (indexed.link_hits <= indexed.link_misses) {
      std::printf("  FAIL fanout_%zu: link cache hits %llu <= misses %llu\n",
                  n, static_cast<unsigned long long>(indexed.link_hits),
                  static_cast<unsigned long long>(indexed.link_misses));
      fanout_hits_dominate = false;
    }
  }
  // City-shard scale: 50k radios at the same density (extent grows by
  // sqrt(10)).
  {
    const FanoutResult big = bench_fanout(perf, 50000, 6324.6, rounds / 10);
    if (big.link_hits <= big.link_misses) {
      std::printf("  FAIL fanout_50000: link cache hits %llu <= misses %llu\n",
                  static_cast<unsigned long long>(big.link_hits),
                  static_cast<unsigned long long>(big.link_misses));
      fanout_hits_dominate = false;
    }
  }

  bench::section("medium: fan-out under AR(1) fading (rho=0.9, 100 us)");
  // The dense 5000-radio point again, with the dynamic channel term ON:
  // every delivery composes a per-link fade on top of the cached static
  // budget, and each link's fade moves ~10k coherence intervals per sim
  // second. Gated as its own absolute floor in CI — the fading lane must
  // stay within striking distance of the static-only fan-out, or the SoA
  // pipeline has stopped surviving the channel refactor.
  bool fading_lane_live = true;
  {
    const FanoutResult faded = bench_fanout(perf, 5000, 2000.0, rounds,
                                            /*fading_coherence_us=*/100.0);
    if (faded.fading_advances == 0) {
      std::printf("  FAIL fanout_5000_fading: no fading draws made\n");
      fading_lane_live = false;
    }
  }

  bench::section("city shard: fan-out through the sharded medium");
  // Same density as the 5000-radio point: 2 km square, shard cells at
  // their 256 m default, so a 4-shard lattice interleaves ~64 super-cells
  // and every pool member's fan-out crosses borders (mirrored tx > 0).
  bench_city_shard(perf, /*shards=*/1, 5000, 2000.0, rounds / 10);
  bench_city_shard(perf, /*shards=*/4, 5000, 2000.0, rounds / 10);

  bench::section("ppdu pipeline: 1 attacker -> 50 receivers");
  const int pipeline_frames = scale >= 1.0 ? 20000 : 2000;
  bench_ppdu_pipeline(perf, 50, pipeline_frames);

  bench::section("metrics harvest (fixed size, untimed)");
  // The obs/ registry stays disabled through every timed phase above so
  // the throughput baselines are unperturbed; these small fixed-size
  // deterministic passes harvest the counters bench_compare.py --metrics
  // gates. The fan-out pass keeps frame-error modelling on, so the FER
  // and link caches see real traffic (hit rates); the zero-copy pipeline
  // pass pins ppdu_bytes_copied at 0. Under -DPW_METRICS=OFF the macros
  // are compiled out and the block is all zeros, which the comparer
  // treats as "no data" rather than a regression.
  obs::Registry::reset();
  obs::Registry::set_enabled(true);
  bench_fanout(perf, 500, 2000.0, /*rounds=*/200,
               /*fading_coherence_us=*/0.0, /*note_perf=*/false);
  // Long-coherence fading pass: a pool member's turns recur inside one
  // coherence interval, so the fading lines serve real cache hits and
  // bench_compare's fading_cache_hit_rate pair gets data to gate.
  bench_fanout(perf, 500, 2000.0, /*rounds=*/200,
               /*fading_coherence_us=*/2000.0, /*note_perf=*/false);
  bench_ppdu_pipeline(perf, 50, 2000, /*note_perf=*/false);
  obs::Registry::set_enabled(false);
  perf.set_metrics(obs::Registry::to_json());

  perf.finish();
  return pp > 0.0 && fanout_hits_dominate && fading_lane_live ? 0 : 1;
}
