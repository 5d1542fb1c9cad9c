// Event-engine tests: the pooled scheduler (against a sorted reference
// model), the SmallFn callable, concurrent independent simulations, the
// medium's production-vs-reference-oracle equivalence properties, and
// the allocation-free steady state of the PPDU pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/small_fn.h"
#include "core/injector.h"
#include "frames/frame_builder.h"
#include "medium_test_peer.h"
#include "obs/metrics.h"
#include "phy/rates.h"
#include "scheduler_test_peer.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/trace.h"

using namespace politewifi;

// --- SmallFn ------------------------------------------------------------------

namespace {

struct LifeCounter {
  static int alive;
  LifeCounter() { ++alive; }
  LifeCounter(const LifeCounter&) { ++alive; }
  LifeCounter(LifeCounter&&) noexcept { ++alive; }
  ~LifeCounter() { --alive; }
};
int LifeCounter::alive = 0;

}  // namespace

TEST(SmallFn, SmallCaptureStaysInline) {
  int hits = 0;
  SmallFn fn([&hits] { ++hits; });
  EXPECT_TRUE(fn.is_inline());
  ASSERT_TRUE(fn);
  fn();
  EXPECT_EQ(hits, 1);
}

TEST(SmallFn, LargeCaptureGoesToHeapAndStillRuns) {
  std::array<double, 64> big{};  // 512 bytes: over the inline budget
  big[63] = 7.5;
  double out = 0.0;
  SmallFn fn([big, &out] { out = big[63]; });
  EXPECT_FALSE(fn.is_inline());
  fn();
  EXPECT_EQ(out, 7.5);
}

TEST(SmallFn, MoveTransfersOwnershipAndDestroysCapture) {
  {
    LifeCounter counter;
    SmallFn a([counter] { (void)counter; });
    EXPECT_GT(LifeCounter::alive, 1);
    SmallFn b(std::move(a));
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_TRUE(b);
    b.reset();
    EXPECT_EQ(LifeCounter::alive, 1);  // only the stack copy remains
  }
  EXPECT_EQ(LifeCounter::alive, 0);
}

TEST(SmallFn, MoveOnlyCapturesWork) {
  auto p = std::make_unique<int>(41);
  SmallFn fn([q = std::move(p)] { ++*q; });
  SmallFn moved(std::move(fn));
  moved();
}

// --- Scheduler: pooled heap + lazy cancellation -------------------------------

TEST(SchedulerPool, CancelChurnStaysBounded) {
  // Regression: cancel() used to record every cancelled id in a set that
  // grew without bound under schedule/cancel churn. Now a cancel
  // tombstones its pooled slot and pop_one reclaims it, so the pool stays
  // O(concurrently live events) over a million cycles.
  sim::Scheduler scheduler;
  constexpr int kCycles = 1'000'000;
  for (int i = 0; i < kCycles; ++i) {
    const auto id = scheduler.schedule_in(seconds(5), [] { FAIL(); });
    scheduler.cancel(id);
    if ((i & 1023) == 0) scheduler.run_for(microseconds(1));
  }
  scheduler.run_all();
  EXPECT_EQ(scheduler.pending(), 0u);
  EXPECT_EQ(scheduler.tombstones(), 0u);
  // The slot pool must be far smaller than the cycle count (one slot per
  // concurrently outstanding event, not per event ever scheduled).
  EXPECT_LT(scheduler.pool_slots(), 10'000u);
  EXPECT_EQ(scheduler.events_executed(), 0u);
}

TEST(SchedulerPool, CompactionKeepsTombstonesBelowThreshold) {
  // 1M schedule+cancel cycles against far-future deadlines. Lazy
  // reclamation alone would hold every tombstone until its deadline pops;
  // the threshold sweep (tombstones > heap/2 once the heap reaches 64)
  // must cap the peak at the trigger point.
  sim::Scheduler scheduler;
  std::size_t tombstones_peak = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const auto id = scheduler.schedule_in(seconds(5), [] { FAIL(); });
    scheduler.cancel(id);
    tombstones_peak = std::max(tombstones_peak, scheduler.tombstones());
  }
  EXPECT_LE(tombstones_peak, 64u);
  scheduler.run_all();
  EXPECT_EQ(scheduler.events_executed(), 0u);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerPool, CompactionOffSwitchDisablesTheSweep) {
  // The sweep has no configuration switch; its one off state is the
  // trigger's 64-entry size floor. Below it, cancels only leave
  // tombstones, and pop-time reclamation alone must clear them without
  // running a callback. At the floor the sweep switches on.
  constexpr std::size_t kFloor = 64;
  const auto schedule_then_cancel_all = [](sim::Scheduler& s, std::size_t n) {
    std::vector<sim::Scheduler::EventId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(s.schedule_in(seconds(5), [] { FAIL(); }));
    }
    for (const auto id : ids) s.cancel(id);
  };

  sim::Scheduler below;
  schedule_then_cancel_all(below, kFloor - 1);
  EXPECT_EQ(below.tombstones(), kFloor - 1) << "the sweep fired below floor";
  EXPECT_EQ(below.pending(), 0u);
  below.run_all();
  EXPECT_EQ(below.tombstones(), 0u);
  EXPECT_EQ(below.events_executed(), 0u);

  // The 33rd cancel trips tombstones > heap/2 and sweeps all 33; the
  // remaining 31 cancels land on a heap back under the floor.
  sim::Scheduler at;
  schedule_then_cancel_all(at, kFloor);
  EXPECT_EQ(at.tombstones(), kFloor - (kFloor / 2 + 1));
  at.run_all();
  EXPECT_EQ(at.tombstones(), 0u);
  EXPECT_EQ(at.events_executed(), 0u);
}

TEST(SchedulerPool, RandomTraceMatchesSortedReferenceModel) {
  // The pooled heap with lazy cancellation and tombstone compaction,
  // replayed against the simplest correct scheduler: a map ordered by
  // (time clamped to now, schedule sequence). Both must run the same
  // events in the same order, with the compaction sweep firing along the
  // way — compaction may recycle storage, never reorder.
  sim::Scheduler scheduler;
  Rng rng(2024);
  using Key = std::pair<TimePoint, std::uint64_t>;
  std::map<Key, int> model;                    // pending, in firing order
  std::vector<Key> key_of;                     // tag -> model key
  std::vector<sim::Scheduler::EventId> id_of;  // tag -> scheduler id
  std::vector<int> live;                       // pending tags, unordered
  std::vector<std::size_t> live_pos;           // tag -> index in `live`
  std::vector<int> ran, expected;
  std::uint64_t seq = 0;
  std::size_t compactions = 0;

  const auto forget = [&](int tag) {
    const std::size_t i = live_pos[tag];
    live[i] = live.back();
    live_pos[live[i]] = i;
    live.pop_back();
  };
  const auto model_pop = [&] {
    const auto first = model.begin();
    expected.push_back(first->second);
    forget(first->second);
    model.erase(first);
  };

  for (int op = 0; op < 50'000; ++op) {
    const double u = rng.uniform();
    if (u < 0.45) {
      // Schedule, sometimes in the past (clamps to now), through either
      // entry point.
      const int tag = static_cast<int>(id_of.size());
      const Duration delay = microseconds(rng.uniform_int(-50, 2000));
      const auto fn = [&ran, tag] { ran.push_back(tag); };
      id_of.push_back(rng.bernoulli(0.5)
                          ? scheduler.schedule_in(delay, fn)
                          : scheduler.schedule_at(scheduler.now() + delay, fn));
      key_of.emplace_back(std::max(scheduler.now() + delay, scheduler.now()),
                          seq++);
      model.emplace(key_of.back(), tag);
      live_pos.push_back(live.size());
      live.push_back(tag);
    } else if (u < 0.80) {
      if (live.empty()) continue;
      const int tag = live[rng.uniform_int(0, std::int64_t(live.size()) - 1)];
      const std::size_t before = scheduler.tombstones();
      scheduler.cancel(id_of[tag]);
      // A cancel adds one tombstone unless it tripped the sweep, which
      // reclaims them all.
      if (scheduler.tombstones() != before + 1) ++compactions;
      model.erase(key_of[tag]);
      forget(tag);
    } else if (u < 0.85) {
      // Stale handle (already ran or already cancelled): a no-op.
      if (id_of.empty()) continue;
      const int tag = static_cast<int>(
          rng.uniform_int(0, std::int64_t(id_of.size()) - 1));
      if (model.contains(key_of[tag])) continue;
      const std::size_t before = scheduler.tombstones();
      scheduler.cancel(id_of[tag]);
      EXPECT_EQ(scheduler.tombstones(), before) << "stale cancel, tag " << tag;
    } else if (u < 0.92) {
      EXPECT_EQ(scheduler.run_one(), !model.empty());
      if (!model.empty()) model_pop();
    } else {
      const TimePoint until =
          scheduler.now() + microseconds(rng.uniform_int(0, 300));
      scheduler.run_until(until);
      while (!model.empty() && model.begin()->first.first <= until) {
        model_pop();
      }
    }
    ASSERT_EQ(scheduler.pending(), model.size()) << "after op " << op;
  }
  scheduler.run_all();
  while (!model.empty()) model_pop();

  EXPECT_EQ(ran, expected);
  EXPECT_GT(ran.size(), 1000u);
  EXPECT_GT(compactions, 0u) << "the sweep never fired; the test is vacuous";
}

TEST(SchedulerPool, StaleIdCannotCancelRecycledSlot) {
  sim::Scheduler scheduler;
  int fired = 0;
  const auto a = scheduler.schedule_in(seconds(1), [] {});
  scheduler.cancel(a);
  scheduler.run_all();  // reclaims a's slot into the free pool
  const auto b = scheduler.schedule_in(seconds(1), [&fired] { ++fired; });
  EXPECT_NE(a, b);      // same slot, new generation
  scheduler.cancel(a);  // stale handle: must be a no-op
  scheduler.run_all();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerPool, CancelFromInsideOwnCallbackIsNoop) {
  sim::Scheduler scheduler;
  std::uint64_t self = 0;
  int fired = 0;
  self = scheduler.schedule_in(seconds(1), [&] {
    ++fired;
    scheduler.cancel(self);  // cancelling the running event: no-op
  });
  scheduler.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(SchedulerPool, CancelAfterExecutionIsNoop) {
  sim::Scheduler scheduler;
  int fired = 0;
  const auto id = scheduler.schedule_in(seconds(1), [&fired] { ++fired; });
  scheduler.run_all();
  scheduler.cancel(id);  // already ran; slot may be recycled
  const auto id2 = scheduler.schedule_in(seconds(1), [&fired] { ++fired; });
  scheduler.cancel(id);  // still stale
  scheduler.run_all();
  (void)id2;
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerPool, OrderingIsStableAcrossPooling) {
  sim::Scheduler scheduler;
  std::vector<int> order;
  // Same deadline: must run in schedule order (FIFO via sequence number),
  // with cancellations punched out of the middle.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(
        scheduler.schedule_in(seconds(1), [&order, i] { order.push_back(i); }));
  }
  scheduler.cancel(ids[3]);
  scheduler.cancel(ids[7]);
  scheduler.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 5, 6, 8, 9}));
}

// --- Concurrent simulations -------------------------------------------------

TEST(ConcurrentSimulations, MatchSequentialRuns) {
  // Independent simulations on concurrent threads must not observe each
  // other: per-medium radio ids and thread-confined PPDU pools.
  auto job = [](std::size_t i) {
    sim::Simulation sim({.medium = {.shadowing_sigma_db = 0.0},
                         .seed = 300 + i});
    sim::RadioConfig rc;
    rc.position = {double(i), 0.0};
    sim.add_device({.name = "dev"}, {1, 2, 3, 4, 5, std::uint8_t(i)}, rc);
    sim.run_for(milliseconds(50));
    return sim.scheduler().events_executed();
  };
  constexpr std::size_t kRuns = 8;
  std::vector<std::uint64_t> seq(kRuns), par(kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) seq[i] = job(i);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kRuns; ++i) {
    threads.emplace_back([&par, &job, i] { par[i] = job(i); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seq, par);
}

// --- Production vs reference oracle ------------------------------------------
//
// Every medium fast path (spatial index + cached neighbor lists, SoA lanes
// and the batched FER pass, the set-associative link memo, frame
// templates) has exactly one production spelling. These suites hold it to
// the reference oracle (MediumTestPeer::use_reference_oracle): a
// brute-force scan in attach order, no memos, a full serialization per
// frame.

namespace {

/// Everything observable a scenario produced: per-device MAC counters and
/// exact energy, the engine's event and reception counts, and the full
/// sniffer trace stream (time, sender, raw on-air bytes). Two runs that
/// agree on all of this executed the same events in the same order.
struct Fingerprint {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t>>
      station;
  std::vector<double> energy_mj;
  std::uint64_t events_executed = 0;
  std::uint64_t receptions = 0;
  std::vector<std::tuple<TimePoint, std::string, Bytes>> trace;
  /// What the tapped stations' monitor taps saw: (station, time, the
  /// frame re-serialized). Production hands intact receivers one shared
  /// decode; the oracle decodes per receiver, so a wrong cache line
  /// shows here.
  std::vector<std::tuple<std::size_t, TimePoint, Bytes>> taps;

  bool operator==(const Fingerprint&) const = default;
};

/// run_scenario taps every odd-numbered target, so damaged copies reach
/// tapped and untapped stations alike, and a tap must see none of them.
bool tapped_target(std::size_t i) { return i % 2 == 1; }

/// The Fingerprint of a finished run.
Fingerprint fingerprint_of(sim::Simulation& sim,
                           const sim::TraceRecorder& recorder,
                           std::uint64_t* template_hits = nullptr) {
  Fingerprint fp;
  for (const auto& dev : sim.devices()) {
    const auto& s = dev->station().stats();
    fp.station.emplace_back(s.frames_received, s.frames_for_us, s.acks_sent,
                            s.fcs_failures, s.duplicates_dropped,
                            s.frames_transmitted);
    fp.energy_mj.push_back(dev->radio().energy().consumed_mj(sim.now()));
    if (template_hits != nullptr) {
      *template_hits += dev->radio().tx_template_cache().stats().hits;
    }
  }
  fp.events_executed = sim.scheduler().events_executed();
  fp.receptions = sim.medium().stats().receptions;
  for (const auto& e : recorder.entries()) {
    fp.trace.emplace_back(e.time, e.sender_name, e.raw);
  }
  return fp;
}

/// A randomized scenario exercising every fan-out edge case: mixed
/// channels, sleeping radios, a moving + channel-hopping attacker, and
/// shadowing left ON (the index must honour the shadowing bound).
/// `template_hits`, when given, receives the radios' summed frame-template
/// hits — the witness that production really rendered through templates.
/// `decodes`, when given, receives the run's frames.decodes count.
Fingerprint run_scenario(std::uint64_t scenario_seed, bool oracle,
                         std::uint64_t* template_hits = nullptr,
                         std::int64_t* decodes = nullptr) {
  if (decodes != nullptr) {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  sim::Simulation sim({.seed = 7000 + scenario_seed});
  if (oracle) sim::MediumTestPeer::use_reference_oracle(sim.medium());
  sim::TraceRecorder recorder;
  recorder.attach(sim.medium());

  Rng layout(1000 + scenario_seed);
  const int channels[] = {1, 6, 11};
  std::vector<sim::Device*> targets;
  for (int i = 0; i < 12; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-150.0, 150.0),
                   layout.uniform(-150.0, 150.0)};
    rc.channel = channels[layout.uniform_int(0, 2)];
    auto& dev = sim.add_device({.name = "node" + std::to_string(i)},
                               {0x5e, 0x11, 0x22, 0x33, 0x44,
                                std::uint8_t(i)},
                               rc);
    if (layout.bernoulli(0.25)) dev.radio().set_sleeping(true);
    targets.push_back(&dev);
  }

  std::vector<std::tuple<std::size_t, TimePoint, Bytes>> taps;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (!tapped_target(i)) continue;
    targets[i]->station().set_sniffer(
        [&taps, &sim, i](const frames::Frame& f, const phy::RxVector&) {
          taps.emplace_back(i, sim.now(), frames::serialize(f));
        });
  }

  sim::RadioConfig rig;
  rig.position = {0, 0};
  sim::Device& attacker = sim.add_device(
      {.name = "walker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, rig);
  core::FakeFrameInjector injector(attacker);

  for (int step = 0; step < 40; ++step) {
    attacker.radio().set_position({layout.uniform(-200.0, 200.0),
                                   layout.uniform(-200.0, 200.0)});
    attacker.radio().set_channel(channels[step % 3]);
    sim::Device* target = targets[layout.uniform_int(0, 11)];
    if (step == 20) {
      // Flip someone's sleep state mid-run: the index must not deliver
      // stale wakefulness.
      targets[0]->radio().set_sleeping(!targets[0]->radio().sleeping());
    }
    injector.inject_one(target->address());
    sim.run_for(milliseconds(5));
  }
  sim.run_for(milliseconds(50));
  if (decodes != nullptr) {
    *decodes = obs::Registry::counter_value(obs::Counter::kFramesDecodes);
    obs::Registry::set_enabled(false);
  }
  Fingerprint fp = fingerprint_of(sim, recorder, template_hits);
  fp.taps = std::move(taps);
  return fp;
}

/// A data-exchange scenario for the scheduler: stations unicast to each
/// other expecting ACKs, so every answered frame cancels its ACK timer and
/// every unanswered one times out and retries. The run advances in 1 us
/// slices (cancelled ACK timers would pop within tens of microseconds);
/// `swept`, when given, forces a compaction sweep after every slice and
/// receives the number of tombstones those sweeps reclaimed.
Fingerprint run_exchange_scenario(std::uint64_t scenario_seed,
                                  std::size_t* swept = nullptr) {
  sim::Simulation sim({.seed = 8000 + scenario_seed});
  sim::TraceRecorder recorder;
  recorder.attach(sim.medium());

  Rng layout(2000 + scenario_seed);
  std::vector<sim::Device*> stations;
  for (int i = 0; i < 8; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-150.0, 150.0),
                   layout.uniform(-150.0, 150.0)};
    stations.push_back(&sim.add_device(
        {.name = "sta" + std::to_string(i)},
        {0x5e, 0x22, 0x33, 0x44, 0x55, std::uint8_t(i)}, rc));
  }

  for (int step = 0; step < 40; ++step) {
    sim::Device* from = stations[layout.uniform_int(0, 7)];
    sim::Device* to = stations[layout.uniform_int(0, 7)];
    if (from != to) {
      from->station().send(
          frames::make_data_to_ds(to->address(), from->address(),
                                  to->address(), Bytes(200, 1),
                                  from->station().next_sequence()),
          phy::kOfdm24);
    }
    for (int us = 0; us < 2000; ++us) {
      sim.run_for(microseconds(1));
      if (swept != nullptr) {
        *swept += sim::SchedulerTestPeer::sweep_tombstones(sim.scheduler());
      }
    }
  }
  sim.run_for(milliseconds(50));
  return fingerprint_of(sim, recorder);
}

}  // namespace

class GridEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridEquivalence, IndexedFanOutIsByteIdenticalToBruteForce) {
  const Fingerprint indexed = run_scenario(GetParam(), /*oracle=*/false);
  const Fingerprint brute = run_scenario(GetParam(), /*oracle=*/true);
  EXPECT_EQ(indexed.events_executed, brute.events_executed);
  EXPECT_EQ(indexed.receptions, brute.receptions);
  ASSERT_EQ(indexed.station.size(), brute.station.size());
  for (std::size_t i = 0; i < indexed.station.size(); ++i) {
    EXPECT_EQ(indexed.station[i], brute.station[i]) << "device " << i;
    // Exact double equality on purpose: both paths must execute the same
    // arithmetic in the same order.
    EXPECT_EQ(indexed.energy_mj[i], brute.energy_mj[i]) << "device " << i;
  }
  EXPECT_EQ(indexed, brute);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, GridEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(SchedulerPool, CompactionTogglePreservesOutcome) {
  // Compaction reshuffles heap storage, never logical order: a full
  // scenario (MAC timers, cancels, retries) must be byte-identical —
  // station stats, exact energies, the trace stream and the
  // executed-event count — whether tombstones wait for the built-in
  // trigger or are swept every simulated microsecond.
  for (std::uint64_t seed : {1, 2}) {
    std::size_t swept = 0;
    const Fingerprint eager = run_exchange_scenario(seed, &swept);
    const Fingerprint lazy = run_exchange_scenario(seed);
    EXPECT_EQ(eager, lazy) << "seed " << seed;
    EXPECT_GT(swept, 0u) << "seed " << seed
                         << ": no tombstone was ever swept; vacuous";
  }
}

class PipelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// The zero-copy pipeline (pooled shared payloads, frame templates, batched
// delivery records) must not change one bit of what goes over the air, in
// what order, or what any station concludes from it.
TEST_P(PipelineEquivalence, ZeroCopyPipelineIsObservablyIdenticalToLegacy) {
  std::uint64_t production_hits = 0;
  std::uint64_t oracle_hits = 0;
  std::int64_t production_decodes = 0;
  std::int64_t oracle_decodes = 0;
  const Fingerprint zero_copy = run_scenario(
      GetParam(), /*oracle=*/false, &production_hits, &production_decodes);
  const Fingerprint oracle =
      run_scenario(GetParam(), /*oracle=*/true, &oracle_hits, &oracle_decodes);
  EXPECT_GT(production_hits, 0u) << "production never patched a template";
  EXPECT_EQ(oracle_hits, 0u) << "the oracle must serialize every frame";
  ASSERT_EQ(zero_copy.station.size(), oracle.station.size());
  for (std::size_t i = 0; i < zero_copy.station.size(); ++i) {
    EXPECT_EQ(zero_copy.station[i], oracle.station[i]) << "device " << i;
    EXPECT_EQ(zero_copy.energy_mj[i], oracle.energy_mj[i]) << "device " << i;
  }
  ASSERT_EQ(zero_copy.trace.size(), oracle.trace.size());
  for (std::size_t i = 0; i < zero_copy.trace.size(); ++i) {
    EXPECT_EQ(zero_copy.trace[i], oracle.trace[i]) << "trace entry " << i;
  }
  ASSERT_EQ(zero_copy.taps.size(), oracle.taps.size());
  for (std::size_t i = 0; i < zero_copy.taps.size(); ++i) {
    EXPECT_EQ(zero_copy.taps[i], oracle.taps[i]) << "tap entry " << i;
  }
  EXPECT_EQ(zero_copy, oracle);

  // Non-vacuity of the shared decode. The oracle decodes once per intact
  // receiver, production once per transmission, and both make the same
  // trace and tap parses, so the oracle's surplus counts the deliveries
  // production served from a record's cached decode. (Audit re-parses
  // are uncounted, so this holds in PW_AUDIT builds too.) Damaged copies
  // must reach both a tapped and an untapped station and count in their
  // fcs_failures. A tap sees exactly the frames that passed the FCS, so
  // the tapped stations' frames_received add up to the tap count.
#if PW_OBS_ON
  EXPECT_GT(oracle_decodes, production_decodes)
      << "no transmission had two intact receivers";
#endif
  bool tapped_fcs_failure = false;
  bool untapped_fcs_failure = false;
  std::size_t tapped_received = 0;
  for (std::size_t i = 0; i < zero_copy.station.size(); ++i) {
    const std::uint64_t received = std::get<0>(zero_copy.station[i]);
    const std::uint64_t fcs_failures = std::get<3>(zero_copy.station[i]);
    (tapped_target(i) ? tapped_fcs_failure : untapped_fcs_failure) |=
        fcs_failures > 0;
    if (tapped_target(i)) tapped_received += received;
  }
  EXPECT_TRUE(tapped_fcs_failure)
      << "no damaged copy reached a tapped station";
  EXPECT_TRUE(untapped_fcs_failure)
      << "no damaged copy reached an untapped station";
  EXPECT_GT(tapped_received, 0u) << "no tapped station received a frame";
  EXPECT_EQ(zero_copy.taps.size(), tapped_received)
      << "a tap saw a frame that failed its FCS";
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, PipelineEquivalence,
                         ::testing::Values(1, 2, 3));

// --- Link cache + SoA fan-out equivalence -------------------------------------

namespace {

/// Observable output of a raw-radio fan-out run: exact per-radio energy,
/// the reception count, and the sniffer stream. Station-less radios have
/// no MAC stats, but any divergence in delivery order, link budgets, or
/// the Bernoulli FER draw sequence shows up in one of these.
struct FanoutFingerprint {
  std::vector<double> energy_mj;
  std::uint64_t receptions = 0;
  std::vector<std::tuple<TimePoint, Bytes>> trace;

  bool operator==(const FanoutFingerprint&) const = default;
};

/// A dense-cell fan-out workload at population `n`, area scaled to hold
/// reception density roughly constant: a small pool of repeat
/// transmitters (the link cache's bread and butter), ~20% sleepers, one
/// mobile transmitter and a few wandering bystanders (the volatile
/// interleave path), and a mid-run sleep flip. Frame errors stay ON so
/// the medium's Bernoulli draw order is part of the fingerprint.
FanoutFingerprint run_fanout_scenario(std::uint64_t scenario_seed,
                                      std::size_t n, bool oracle) {
  sim::Scheduler scheduler;
  sim::MediumConfig mc;  // frame errors, shadowing, propagation all ON
  sim::Medium medium(scheduler, mc, /*seed=*/9000 + scenario_seed);
  if (oracle) sim::MediumTestPeer::use_reference_oracle(medium);
  sim::TraceRecorder recorder;
  recorder.attach(medium);

  Rng layout(600 + scenario_seed * 37 + n);
  const double extent_m = 2000.0 * std::sqrt(double(n) / 5000.0);
  const std::size_t txers = std::min<std::size_t>(n, 4);
  std::vector<std::unique_ptr<sim::Radio>> radios;
  radios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-extent_m / 2, extent_m / 2),
                   layout.uniform(-extent_m / 2, extent_m / 2)};
    radios.push_back(
        std::make_unique<sim::Radio>(medium, scheduler, rc));
    if (i >= txers && layout.bernoulli(0.2)) radios[i]->set_sleeping(true);
  }

  const Bytes ppdu(64, 0x5A);
  phy::TxVector tx;
  for (int round = 0; round < 24; ++round) {
    // Transmitter 0 stays static (the pure lane-replay path); transmitter
    // 1 wanders (the volatile per-delivery interleave path).
    if (txers > 1 && round % 4 == 1) {
      radios[1]->set_position({layout.uniform(-extent_m / 2, extent_m / 2),
                               layout.uniform(-extent_m / 2, extent_m / 2)});
    }
    // A couple of mobile bystanders invalidate cached links mid-run.
    if (n > txers && round % 6 == 3) {
      sim::Radio& walker = *radios[txers + (round / 6) % (n - txers)];
      walker.set_position({layout.uniform(-extent_m / 2, extent_m / 2),
                           layout.uniform(-extent_m / 2, extent_m / 2)});
    }
    if (round == 12 && n > txers) {
      sim::Radio& flipped = *radios[n / 2 < txers ? txers : n / 2];
      flipped.set_sleeping(!flipped.sleeping());
    }
    medium.transmit(*radios[round % txers], ppdu, tx);
    scheduler.run_all();
  }
  // Brute-force coherence audit (grid, neighbor lists, SoA lanes, link
  // memo) — O(n^2), so only at populations where that stays cheap.
  if (n <= 500) medium.audit_coherence();

  FanoutFingerprint fp;
  for (const auto& r : radios) {
    fp.energy_mj.push_back(r->energy().consumed_mj(scheduler.now()));
  }
  fp.receptions = medium.stats().receptions;
  for (const auto& e : recorder.entries()) {
    fp.trace.emplace_back(e.time, e.raw);
  }
  return fp;
}

}  // namespace

/// Param = scenario seed. At every fan-out size, production (neighbor
/// lanes, set-associative link memo, batched FER pass) must produce the
/// oracle's energies, receptions and sniffer stream byte for byte.
class FanoutEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FanoutEquivalence, CacheLayoutAndSoaPassAreObservablyIdentical) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{10}, std::size_t{500}, std::size_t{5000}}) {
    EXPECT_EQ(run_fanout_scenario(GetParam(), n, /*oracle=*/false),
              run_fanout_scenario(GetParam(), n, /*oracle=*/true))
        << "production diverged from the oracle at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FanoutEquivalence,
                         ::testing::Values(1, 2, 3));

TEST(LinkCache, ThrashingCacheServesTheOracleGains) {
  // 90 radios = 8010 directed links hashed into the cache: enough
  // colliding sets that lines get evicted and refilled. Whatever the
  // cache serves — first-pass fills, second-pass hits, post-eviction
  // recomputes — must be bit-identical to the oracle, which recomputes
  // every budget.
  constexpr std::size_t kRadios = 90;
  sim::Scheduler scheduler;
  sim::Medium cached(scheduler, sim::MediumConfig{}, /*seed=*/11);
  sim::Medium oracle(scheduler, sim::MediumConfig{}, /*seed=*/11);
  sim::MediumTestPeer::use_reference_oracle(oracle);
  Rng layout(77);
  std::vector<std::unique_ptr<sim::Radio>> radios[2];
  for (std::size_t i = 0; i < kRadios; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-400.0, 400.0),
                   layout.uniform(-400.0, 400.0)};
    radios[0].push_back(std::make_unique<sim::Radio>(cached, scheduler, rc));
    radios[1].push_back(std::make_unique<sim::Radio>(oracle, scheduler, rc));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t a = 0; a < kRadios; ++a) {
      for (std::size_t b = 0; b < kRadios; ++b) {
        if (a == b) continue;
        EXPECT_EQ(cached.rx_power_dbm(*radios[0][a], 20.0, *radios[0][b]),
                  oracle.rx_power_dbm(*radios[1][a], 20.0, *radios[1][b]))
            << "pass " << pass << " link " << a << "->" << b;
      }
    }
  }
  // Non-vacuity: the cache really thrashed and really served hits, and
  // the oracle really recomputed everything.
  EXPECT_GT(cached.stats().link_cache_evictions, 0u);
  EXPECT_GT(cached.stats().link_cache_hits, 0u);
  EXPECT_EQ(oracle.stats().link_cache_hits, 0u);
}

// --- Spatial index work ------------------------------------------------------

// The index hands fan-out only the radios in grid cells that intersect
// the sender's detection disc. On a field much wider than the disc, a
// moving sender (which fans out through the index on every transmission)
// visits no radio farther than the disc radius plus one cell diagonal.
// An index that scanned every radio would still deliver the same frames;
// only this count shows the lost pruning.
TEST(SpatialIndex, MovingSenderVisitsOnlyRadiosNearItsDetectionDisc) {
  sim::Scheduler scheduler;
  sim::MediumConfig mc;
  mc.shadowing_sigma_db = 0.0;
  sim::Medium medium(scheduler, mc, /*seed=*/7);
  constexpr double kField = 20000.0;
  Rng layout(1234);
  std::vector<std::unique_ptr<sim::Radio>> radios;
  for (int i = 0; i < 2000; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(0.0, kField), layout.uniform(0.0, kField)};
    radios.push_back(std::make_unique<sim::Radio>(medium, scheduler, rc));
  }
  sim::Radio mover(medium, scheduler, {.position = {0.0, 0.0}});
  const phy::TxVector tx;
  const double reach =
      medium.max_detect_range_m(tx.power_dbm, mover.frequency_hz()) +
      medium.cell_size_m() * std::sqrt(2.0);
  const Bytes ppdu(64, 0xAA);
  std::uint64_t within_reach = 0;
  for (int step = 0; step < 50; ++step) {
    mover.set_position(
        {layout.uniform(0.0, kField), layout.uniform(0.0, kField)});
    for (const auto& radio : radios) {
      within_reach += distance(mover.position(), radio->position()) <= reach;
    }
    medium.transmit(mover, ppdu, tx);
    scheduler.run_all();
  }
  const std::uint64_t visited = medium.stats().candidates_scanned;
  EXPECT_GT(medium.stats().receptions, 0u);
  EXPECT_LE(visited, within_reach)
      << "fan-out visited radios beyond the detection disc's cells";
  EXPECT_LT(within_reach, 50u * 2000u / 4u)
      << "the field is not much wider than the disc; vacuous";
}

// --- Steady-state allocations ------------------------------------------------

// Replaceable global operator new/delete: every heap allocation in this
// test binary outside an auditor (contract::AuditScope) bumps one
// counter, so a test can assert that a phase made none instead of
// guessing from throughput. Every variant is replaced, nothrow and
// aligned included, so no allocation reaches the runtime's own operator
// new (a sanitizer's, say) and then our free().
namespace {
std::atomic<std::uint64_t> heap_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align = 0) noexcept {
  if (!contract::in_audit()) {
    heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  return align == 0
             ? std::malloc(n)
             : std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* counted_alloc_or_throw(std::size_t n, std::size_t align = 0) {
  if (void* p = counted_alloc(n, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

// One attacker streaming fake null-function frames at 50 in-range
// receivers: the inject -> transmit -> deliver path the battery attack
// lives on (pooled shared payloads, the frame-template cache, batched
// delivery records). Once a warm-up has filled the PPDU pool, the
// template cache and the record free-list, a frame costs no heap
// allocation and copies no payload octet.
TEST(SteadyState, PpduPipelineAllocatesNothingAndCopiesNoPayload) {
  sim::Scheduler scheduler;
  sim::MediumConfig mc;
  mc.shadowing_sigma_db = 0.0;
  mc.model_frame_errors = false;
  // Without propagation delay every receiver shares one arrival time, so
  // a transmission is one delivery event.
  mc.model_propagation_delay = false;
  sim::Medium medium(scheduler, mc, /*seed=*/7);

  sim::RadioConfig arc;
  arc.position = {50.0, 50.0};
  sim::Radio attacker(medium, scheduler, arc);
  Rng layout(1234);
  std::vector<std::unique_ptr<sim::Radio>> receivers;
  for (int i = 0; i < 50; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(0.0, 100.0), layout.uniform(0.0, 100.0)};
    receivers.push_back(std::make_unique<sim::Radio>(medium, scheduler, rc));
  }

  frames::Frame fake = frames::make_null_function(
      MacAddress::broadcast(), MacAddress::paper_fake_address(), 0);
  const phy::TxVector tx;
  std::uint16_t seq = 0;
  const auto send = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      fake.seq.sequence = seq++ & 0x0FFF;
      attacker.transmit(fake, tx);
      scheduler.run_all();
    }
  };

  send(256);
  const std::uint64_t before = heap_allocations.load();
  send(2000);
  EXPECT_EQ(heap_allocations.load() - before, 0u)
      << "heap allocations in 2,000 steady-state frames";
  EXPECT_EQ(medium.stats().ppdu_bytes_copied, 0u);
  EXPECT_EQ(medium.stats().receptions, 2256u * 50u)
      << "every receiver must hear every frame, or the test is vacuous";
}
