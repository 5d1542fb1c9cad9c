// Sharded-medium tests: the shared (clock, seq) timebase, the executor's
// global-order merge, shard migration with cross-scheduler timer cancel,
// the RF-anchor position quantum, and the ShardEquivalence property —
// sharded runs must be byte-identical to the unsharded path (and, faded,
// to the reference oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/battery_attack.h"
#include "core/injector.h"
#include "core/wardrive.h"
#include "medium_test_peer.h"
#include "obs/metrics.h"
#include "scenario/city.h"
#include "sim/event_queue.h"
#include "sim/mobility.h"
#include "sim/network.h"
#include "sim/shard.h"
#include "sim/trace.h"

using namespace politewifi;

namespace {

/// RAII registry window (mirrors obs_test): reset + enable on entry,
/// disable on exit, so a failing test can't leak an enabled registry.
struct MetricsWindow {
  MetricsWindow() {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  ~MetricsWindow() { obs::Registry::set_enabled(false); }
};

// --- Shared timebase + executor merge ----------------------------------------

TEST(ShardScheduler, AdoptedTimebaseMergesInScheduleOrder) {
  sim::Scheduler primary;
  sim::Scheduler secondary;
  secondary.adopt_timebase(primary);

  // Alternate same-instant events across the two heaps: the shared seq
  // counter must make the merge replay exact scheduling order, the way a
  // single heap's FIFO tie-break would.
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim::Scheduler& target = (i % 2 == 0) ? primary : secondary;
    target.schedule_in(milliseconds(1), [&order, i] { order.push_back(i); });
  }
  primary.schedule_in(milliseconds(2), [&order] { order.push_back(100); });
  secondary.schedule_in(milliseconds(2), [&order] { order.push_back(101); });

  sim::ShardExecutor exec({&primary, &secondary});
  exec.run_until(kSimStart + milliseconds(5));

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100, 101}));
  EXPECT_EQ(exec.events_executed(), 10u);
  // The shared clock advanced both schedulers together.
  EXPECT_EQ(primary.now(), kSimStart + milliseconds(5));
  EXPECT_EQ(secondary.now(), kSimStart + milliseconds(5));
}

TEST(ShardScheduler, PeekSkipsCancelledEntries) {
  sim::Scheduler s;
  const std::uint64_t first = s.schedule_in(milliseconds(1), [] {});
  s.schedule_in(milliseconds(2), [] {});
  s.cancel(first);

  TimePoint at{};
  std::uint64_t seq = 0;
  ASSERT_TRUE(s.peek_next(&at, &seq));
  EXPECT_EQ(at, kSimStart + milliseconds(2));
  EXPECT_EQ(seq, 1u);  // the second event's sequence number
}

TEST(ShardScheduler, RunAllDrainsBothHeaps) {
  sim::Scheduler primary;
  sim::Scheduler secondary;
  secondary.adopt_timebase(primary);
  int fired = 0;
  // A cascade that hops schedulers: each event schedules the next on the
  // *other* heap, so the executor must keep re-scanning.
  primary.schedule_in(milliseconds(1), [&] {
    ++fired;
    secondary.schedule_in(milliseconds(1), [&] {
      ++fired;
      primary.schedule_in(milliseconds(1), [&] { ++fired; });
    });
  });
  sim::ShardExecutor exec({&primary, &secondary});
  exec.run_all();
  EXPECT_EQ(fired, 3);
}

// --- Migration + cross-scheduler timer routing -------------------------------

TEST(ShardMigration, TimerCancelRoutesToTheOwningScheduler) {
  sim::MediumConfig mc;
  mc.shards = 4;
  mc.shard_cell_m = 100.0;
  sim::Simulation sim({.medium = mc, .seed = 11});

  sim::RadioConfig rc;
  rc.position = {150.0, 10.0};  // lattice (1, 0) => shard 1 in the 2x2
  sim::Device& dev = sim.add_device({.name = "roamer"},
                                    {0x02, 0, 0, 0, 0, 1}, rc);
  sim::Radio& radio = dev.radio();

  bool fired = false;
  const std::uint64_t id =
      radio.schedule(seconds(1), [&fired] { fired = true; });
  EXPECT_EQ(id >> 56, 1u)
      << "expected the issuing shard in the id's top byte";

  // Walk the radio across several super-cells; at least one crossing
  // re-homes it onto a different shard scheduler.
  const std::uint64_t before = sim.medium().stats().shard_handoffs;
  radio.set_position({-150.0, -150.0});
  radio.set_position({150.0, -150.0});
  EXPECT_GT(sim.medium().stats().shard_handoffs, before);

  // The pending timer lives on the scheduler that issued it; the tagged
  // id must still find (and kill) it after the migration.
  radio.cancel(id);
  sim.run_for(seconds(2));
  EXPECT_FALSE(fired) << "cancel after migration missed the event";
}

// --- RF-anchor position quantum ----------------------------------------------

TEST(PositionQuantum, AnchorSnapsOnlyPastTheQuantum) {
  sim::MediumConfig mc;
  mc.position_quantum_m = 4.0;
  sim::Simulation sim({.medium = mc, .seed = 5});
  sim::RadioConfig rc;
  rc.position = {0.0, 0.0};
  sim::Device& dev = sim.add_device({.name = "m"}, {0x02, 0, 0, 0, 0, 2}, rc);
  sim::Radio& radio = dev.radio();

  // Sub-quantum drift: the true position tracks, the RF anchor holds.
  radio.set_position({1.5, 0.0});
  EXPECT_EQ(radio.position(), (Position{1.5, 0.0}));
  EXPECT_EQ(radio.rf_position(), (Position{0.0, 0.0}));

  radio.set_position({3.9, 0.0});
  EXPECT_EQ(radio.rf_position(), (Position{0.0, 0.0}));

  // Past the quantum: the anchor snaps to the true position (not to a
  // lattice), so the error is bounded by the quantum at all times.
  radio.set_position({4.5, 0.0});
  EXPECT_EQ(radio.rf_position(), (Position{4.5, 0.0}));

  // The medium's caches and spatial index must stay coherent with the
  // anchor (audit recomputes everything from rf_position).
  sim.medium().audit_coherence();
}

TEST(PositionQuantum, ImprovesLinkCacheHitRateUnderMobility) {
  const auto run = [](double quantum) {
    sim::MediumConfig mc;
    mc.position_quantum_m = quantum;
    sim::Simulation sim({.medium = mc, .seed = 77});
    std::vector<sim::Device*> targets;
    Rng layout(77);
    for (int i = 0; i < 12; ++i) {
      sim::RadioConfig rc;
      rc.position = {layout.uniform(-120.0, 120.0),
                     layout.uniform(-120.0, 120.0)};
      targets.push_back(&sim.add_device(
          {.name = "t" + std::to_string(i)},
          {0x5e, 0x22, 0x33, 0x44, 0x55, std::uint8_t(i)}, rc));
    }
    sim::RadioConfig rig;
    rig.position = {-140.0, 0.0};
    sim::Device& walker = sim.add_device(
        {.name = "walker", .kind = sim::DeviceKind::kAttacker},
        {0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0x01}, rig);
    core::FakeFrameInjector injector(walker);
    // Wardrive-like micro-steps: ~1 m per tick, transmitting as it goes.
    // With quantum 0 every step invalidates every cached link of the
    // walker; with a 4 m quantum the anchor (and the cache) survives ~4
    // consecutive steps.
    sim::WaypointMover mover(walker.radio(), sim.scheduler(),
                             {{-140.0, 0.0}, {140.0, 0.0}}, 10.0,
                             milliseconds(100));
    mover.start();
    for (int step = 0; step < 280; ++step) {
      injector.inject_one(targets[step % 12]->address());
      sim.run_for(milliseconds(100));
    }
    sim.medium().audit_coherence();
    const auto& st = sim.medium().stats();
    return std::pair<double, double>(
        double(st.link_cache_hits),
        double(st.link_cache_hits + st.link_cache_misses));
  };
  const auto [hits_q0, total_q0] = run(0.0);
  const auto [hits_q4, total_q4] = run(4.0);
  ASSERT_GT(total_q0, 0.0);
  ASSERT_GT(total_q4, 0.0);
  const double rate_q0 = hits_q0 / total_q0;
  const double rate_q4 = hits_q4 / total_q4;
  EXPECT_GT(rate_q4, rate_q0)
      << "quantized RF anchor should lift the mobile hit rate";
  EXPECT_GE(rate_q4, 0.6) << "hit rate " << rate_q4
                          << " under micro-mobility with a 4 m quantum";
}

// --- ShardEquivalence property ------------------------------------------------

/// Metrics whose *distribution* legitimately depends on the shard count:
/// per-shard caches split hits/misses differently (totals still match,
/// asserted separately), per-scheduler pool shapes differ, and the shard
/// counters themselves only exist when sharding is on. Everything else
/// in the registry must be byte-identical.
bool shard_dependent_metric(const std::string& name) {
  return name.starts_with("sim.shard.") ||
         name == "sim.medium.link_cache_hits" ||
         name == "sim.medium.link_cache_misses" ||
         name == "sim.medium.link_cache_evictions" ||
         name == "sim.medium.fer_cache_hits" ||
         name == "sim.medium.fer_cache_misses" ||
         name == "sim.medium.fer_exact_fallbacks" ||
         // Per-shard fading spine caches replay different spans of the
         // same pure fading function, so draw/hit accounting (and how
         // many links hold live state) is shard-layout-dependent; the
         // fading *values* are not, which the fingerprints below prove.
         name == "sim.medium.fading_advances" ||
         name == "sim.medium.fading_cache_hits" ||
         name == "sim.medium.fading_links_peak" ||
         name == "phy.fer_draws" || name == "phy.fer_ppm" ||
         name == "sim.scheduler.pool_slots_peak" ||
         name == "sim.scheduler.tombstones_peak" ||
         name == "sim.scheduler.compactions";
}

struct ShardFingerprint {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t>>
      station;
  std::vector<double> energy_mj;
  std::uint64_t receptions = 0;
  std::uint64_t delivery_events = 0;
  std::vector<std::tuple<TimePoint, std::string, Bytes>> trace;
  /// Shard-independent registry cells, in catalogue order.
  std::vector<std::pair<std::string, std::int64_t>> metrics;
  /// Shard-dependent probe *totals* (hits + misses); must be conserved.
  std::int64_t link_probes = 0;
  std::int64_t fer_probes = 0;
  /// Decisions the FER bracket could not settle: the bracket of a cell is
  /// the same whichever shard's memo serves it, so this is conserved too.
  std::int64_t fer_exact_fallbacks = 0;

  bool operator==(const ShardFingerprint&) const = default;
};

/// A mobility-heavy scenario spanning several 150 m super-cells: static
/// population on mixed channels with sleepers, a continuously walking
/// injector rig (WaypointMover => shard migrations), one teleporting
/// bystander and a mid-run sleep flip. Frame errors, shadowing and
/// propagation delay all stay ON.
ShardFingerprint run_shard_scenario(std::uint64_t scenario_seed, int shards,
                                    bool fading = false,
                                    std::uint64_t* fading_samples = nullptr,
                                    bool oracle = false) {
  MetricsWindow window;
  sim::MediumConfig mc;
  mc.shards = shards;
  mc.shard_cell_m = 150.0;
  if (fading) {
    // Heavily correlated fast fading: ~6 coherence intervals per 25 ms
    // step, so the walker's links cross many bridge nodes and several
    // stationary-restart blocks over the 3 s run.
    mc.fading_rho = 0.9;
    mc.fading_sigma_db = 2.0;
    mc.fading_coherence_us = 4000.0;
  }
  sim::Simulation sim({.medium = mc, .seed = 4000 + scenario_seed});
  if (oracle) sim::MediumTestPeer::use_reference_oracle(sim.medium());
  sim::TraceRecorder& recorder = sim.trace();

  Rng layout(1000 + scenario_seed);
  const int channels[] = {1, 6, 11};
  std::vector<sim::Device*> targets;
  for (int i = 0; i < 16; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-220.0, 220.0),
                   layout.uniform(-220.0, 220.0)};
    rc.channel = channels[layout.uniform_int(0, 2)];
    auto& dev = sim.add_device(
        {.name = "node" + std::to_string(i)},
        {0x5e, 0x11, 0x22, 0x33, 0x44, std::uint8_t(i)}, rc);
    if (layout.bernoulli(0.25)) dev.radio().set_sleeping(true);
    targets.push_back(&dev);
  }

  sim::RadioConfig rig;
  rig.position = {-220.0, -220.0};
  sim::Device& attacker = sim.add_device(
      {.name = "walker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, rig);
  core::FakeFrameInjector injector(attacker);
  sim::WaypointMover mover(attacker.radio(), sim.scheduler(),
                           {{-220.0, -220.0}, {220.0, -100.0}, {220.0, 220.0},
                            {-220.0, 100.0}},
                           40.0, milliseconds(50));
  mover.start();

  for (int step = 0; step < 120; ++step) {
    attacker.radio().set_channel(channels[step % 3]);
    if (step == 60) {
      targets[0]->radio().set_sleeping(!targets[0]->radio().sleeping());
    }
    if (step % 17 == 9) {
      targets[3]->radio().set_position({layout.uniform(-220.0, 220.0),
                                        layout.uniform(-220.0, 220.0)});
    }
    injector.inject_one(targets[layout.uniform_int(0, 15)]->address());
    sim.run_for(milliseconds(25));
  }
  sim.run_for(milliseconds(200));
  // Every PHY FER evaluation is one end of a memo miss's bracket or an
  // exact fallback (read before the audit, which re-evaluates lines).
  const sim::Medium::Stats& ms = sim.medium().stats();
  if (obs::Registry::enabled()) {
    EXPECT_EQ(obs::Registry::counter_value(obs::Counter::kPhyFerDraws),
              std::int64_t(2 * ms.fer_cache_misses + ms.fer_exact_fallbacks))
        << "shards=" << shards << " fading=" << fading << " oracle=" << oracle;
  }
  sim.medium().audit_coherence();

  if (fading_samples != nullptr) {
    *fading_samples = sim.medium().stats().fading_advances;
  }

  ShardFingerprint fp;
  for (const auto& dev : sim.devices()) {
    const auto& s = dev->station().stats();
    fp.station.emplace_back(s.frames_received, s.frames_for_us, s.acks_sent,
                            s.fcs_failures, s.duplicates_dropped,
                            s.frames_transmitted);
    fp.energy_mj.push_back(dev->radio().energy().consumed_mj(sim.now()));
  }
  fp.receptions = sim.medium().stats().receptions;
  fp.delivery_events = sim.medium().stats().delivery_events;
  for (const auto& e : recorder.entries()) {
    fp.trace.emplace_back(e.time, e.sender_name, e.raw);
  }
  fp.link_probes = std::int64_t(sim.medium().stats().link_cache_hits +
                                sim.medium().stats().link_cache_misses);
  fp.fer_probes = std::int64_t(sim.medium().stats().fer_cache_hits +
                               sim.medium().stats().fer_cache_misses);
  fp.fer_exact_fallbacks = std::int64_t(ms.fer_exact_fallbacks);
  if (obs::Registry::enabled()) {
    for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
      const auto c = static_cast<obs::Counter>(i);
      const std::string name = obs::counter_info(c).name;
      if (shard_dependent_metric(name)) continue;
      fp.metrics.emplace_back(name, obs::Registry::counter_value(c));
    }
    for (std::size_t i = 0; i < obs::kNumGauges; ++i) {
      const auto g = static_cast<obs::Gauge>(i);
      const std::string name = obs::gauge_info(g).name;
      if (shard_dependent_metric(name)) continue;
      fp.metrics.emplace_back(name, obs::Registry::gauge_value(g));
    }
    for (std::size_t i = 0; i < obs::kNumHists; ++i) {
      const auto h = static_cast<obs::Hist>(i);
      const obs::HistInfo& info = obs::hist_info(h);
      if (info.wall || shard_dependent_metric(info.name)) continue;
      fp.metrics.emplace_back(std::string(info.name) + ".sum",
                              obs::Registry::hist_sum(h));
      fp.metrics.emplace_back(std::string(info.name) + ".total",
                              obs::Registry::hist_total(h));
    }
  }
  return fp;
}

class ShardEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

void expect_shard_count_invariance(const ShardFingerprint& baseline,
                                   std::uint64_t seed, bool fading) {
  ASSERT_FALSE(baseline.trace.empty());
#if PW_OBS_ON
  // frames.decodes rides in `metrics`, so it is held equal at every
  // shard count below; here it must also be live.
  const auto decodes = std::find_if(
      baseline.metrics.begin(), baseline.metrics.end(),
      [](const auto& m) { return m.first == "frames.decodes"; });
  ASSERT_NE(decodes, baseline.metrics.end());
  EXPECT_GT(decodes->second, 0) << "nothing was ever decoded";
#endif
  for (const int shards : {2, 4, 9}) {
    const ShardFingerprint sharded = run_shard_scenario(seed, shards, fading);
    ASSERT_EQ(sharded.station.size(), baseline.station.size());
    for (std::size_t i = 0; i < baseline.station.size(); ++i) {
      EXPECT_EQ(sharded.station[i], baseline.station[i])
          << "device " << i << " at shards=" << shards;
      // Exact double equality: the sharded run must execute the same
      // floating-point operations in the same order.
      EXPECT_EQ(sharded.energy_mj[i], baseline.energy_mj[i])
          << "device " << i << " at shards=" << shards;
    }
    ASSERT_EQ(sharded.trace.size(), baseline.trace.size())
        << "shards=" << shards;
    for (std::size_t i = 0; i < baseline.trace.size(); ++i) {
      EXPECT_EQ(sharded.trace[i], baseline.trace[i])
          << "trace entry " << i << " at shards=" << shards;
    }
    EXPECT_EQ(sharded.metrics, baseline.metrics) << "shards=" << shards;
    // Per-shard caches may split probes differently but must conserve
    // the totals: the lookup *sequence* is assignment-independent.
    EXPECT_EQ(sharded.link_probes, baseline.link_probes)
        << "shards=" << shards;
    EXPECT_EQ(sharded.fer_probes, baseline.fer_probes)
        << "shards=" << shards;
    EXPECT_EQ(sharded.fer_exact_fallbacks, baseline.fer_exact_fallbacks)
        << "shards=" << shards;
    EXPECT_EQ(sharded, baseline) << "shards=" << shards;
  }
}

TEST_P(ShardEquivalence, ShardedRunIsByteIdenticalToUnsharded) {
  expect_shard_count_invariance(run_shard_scenario(GetParam(), 1), GetParam(),
                                /*fading=*/false);
}

// With fading ON the per-shard fading caches replay *different spans* of
// the fading function (migrations discard state, mirrored fan-outs warm
// different memos) — yet every delivered power, FER draw, energy sample
// and trace byte must still match the unsharded run, because the fade is
// a pure function of (link, coherence interval).
TEST_P(ShardEquivalence, FadedRunIsByteIdenticalAcrossShardCounts) {
  std::uint64_t fading_samples = 0;
  const ShardFingerprint baseline = run_shard_scenario(
      GetParam(), 1, /*fading=*/true, &fading_samples);
  EXPECT_GT(fading_samples, 0u)
      << "the fading process never drew a sample; the property is vacuous";
  expect_shard_count_invariance(baseline, GetParam(), /*fading=*/true);

  // The oracle keeps no memo at all, so only what stations and the
  // sniffer observe is comparable (cache and fan-out counters differ).
  const ShardFingerprint oracle = run_shard_scenario(
      GetParam(), 1, /*fading=*/true, nullptr, /*oracle=*/true);
  EXPECT_EQ(oracle.station, baseline.station);
  EXPECT_EQ(oracle.energy_mj, baseline.energy_mj);
  EXPECT_EQ(oracle.receptions, baseline.receptions);
  EXPECT_EQ(oracle.delivery_events, baseline.delivery_events);
  EXPECT_EQ(oracle.trace, baseline.trace);
}

TEST_P(ShardEquivalence, WalkerActuallyMigratesAndCrossesBoundaries) {
  MetricsWindow window;
  sim::MediumConfig mc;
  mc.shards = 4;
  mc.shard_cell_m = 150.0;
  sim::Simulation sim({.medium = mc, .seed = 4000 + GetParam()});
  sim::RadioConfig rig;
  rig.position = {-220.0, -220.0};
  sim::Device& attacker = sim.add_device(
      {.name = "walker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, rig);
  sim::RadioConfig rc;
  rc.position = {100.0, 100.0};
  sim::Device& target = sim.add_device(
      {.name = "t"}, {0x5e, 0x11, 0x22, 0x33, 0x44, 0x00}, rc);
  core::FakeFrameInjector injector(attacker);
  sim::WaypointMover mover(attacker.radio(), sim.scheduler(),
                           {{-220.0, -220.0}, {220.0, 220.0}}, 40.0,
                           milliseconds(50));
  mover.start();
  for (int step = 0; step < 120; ++step) {
    injector.inject_one(target.address());
    sim.run_for(milliseconds(150));
  }
  // The diagonal walk crosses the 2x2 lattice: migrations must have
  // happened, and fan-outs near the seams must have mirrored deliveries
  // into foreign shard streams.
  EXPECT_GT(sim.medium().stats().shard_handoffs, 0u);
  EXPECT_GT(sim.medium().stats().mirrored_tx, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, ShardEquivalence,
                         ::testing::Values(1, 2, 3));

// --- Experiment-level equivalence --------------------------------------------
//
// The property suite above uses a synthetic adversarial scenario; these
// two re-prove shard-count invariance on the paper's actual pipelines
// (the §3 wardrive and the §4.2 battery drain), comparing the canonical
// report bytes the runtime would publish.

std::string wardrive_fingerprint(int shards) {
  sim::MediumConfig mc;
  mc.shards = shards;  // default 256 m super-cells span the city
  scenario::CityConfig city_cfg;
  city_cfg.scale = 0.005;
  city_cfg.seed = 4242;
  const scenario::CityPlan plan(scenario::CityPlan::grid_route(2, 500),
                                city_cfg);
  sim::Simulation sim({.medium = mc, .seed = 77});
  core::WardriveCampaign campaign(sim, plan);
  return campaign.run().to_json().dump();
}

TEST(ShardEquivalenceExperiments, WardriveReportIsShardCountInvariant) {
  const std::string baseline = wardrive_fingerprint(1);
  for (const int shards : {2, 4, 9}) {
    EXPECT_EQ(wardrive_fingerprint(shards), baseline)
        << "shards=" << shards;
  }
}

std::string battery_drain_fingerprint(int shards) {
  sim::MediumConfig mc;
  mc.shards = shards;
  mc.shard_cell_m = 4.0;  // splits AP / sensor / attacker across shards
  mc.shadowing_sigma_db = 0.0;
  sim::Simulation sim({.medium = mc, .seed = 62});

  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("home-ap", *MacAddress::parse("f2:6e:0b:01:02:03"), {0, 0},
             apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  cc.power_save = true;
  cc.idle_timeout = milliseconds(100);
  cc.beacon_wake_window = milliseconds(1);
  sim::Device& sensor = sim.add_client(
      "esp8266-sensor", *MacAddress::parse("24:0a:c4:aa:bb:cc"), {4, 0}, cc);
  sim::RadioConfig rig;
  rig.position = {8, 2};
  sim::Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      *MacAddress::parse("02:de:ad:be:ef:03"), rig);
  sim.establish(sensor, seconds(10));

  core::BatteryDrainAttack attack(sim, attacker, sensor);
  std::string fp;
  for (const double rate : {0.0, 450.0}) {
    fp += attack.run(rate, milliseconds(500), seconds(2)).to_json().dump();
    fp += '\n';
  }
  common::Json energies = common::Json::array();
  for (const auto& dev : sim.devices()) {
    energies.push_back(dev->radio().energy().consumed_mj(sim.now()));
  }
  fp += energies.dump();
  return fp;
}

TEST(ShardEquivalenceExperiments, BatteryDrainIsShardCountInvariant) {
  const std::string baseline = battery_drain_fingerprint(1);
  for (const int shards : {2, 4, 9}) {
    EXPECT_EQ(battery_drain_fingerprint(shards), baseline)
        << "shards=" << shards;
  }
}

}  // namespace
