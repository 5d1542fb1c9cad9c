// pw_bench: the benchmark harness (see benchmark/README.md).
//
// Runs the repo's experiments through the public API of each layer, so
// set-up and run are timed apart and per-layer counters can be read
// back, and microbenchmarks single layers on fixed inputs. Nothing under
// src/ knows about it. Its experiment replicas must produce documents
// byte-identical to `pw_run <experiment> --json`; benchmark/run.py checks
// that on every invocation, so the harness measures the program users
// run.
//
//   pw_bench info
//   pw_bench run <experiment> [--seed=N] [--smoke] [--<param>=<value> ...]
//                [--setup-only] [--traced] [--doc=PATH] [--trace-out=PATH]
//   pw_bench layers [--trace-out=PATH]
//   pw_bench spawn --usage=PATH -- <program> [<arg> ...]
//
// info, run and layers print one compact JSON object on stdout; spawn
// writes its object to PATH and leaves stdout to the program it runs.
// Spans around each call into the program are kept in memory and written
// at exit as a Chrome trace (chrome://tracing, Perfetto) when --trace-out
// is given.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/battery_attack.h"
#include "core/injector.h"
#include "core/wardrive.h"
#include "frames/frame_template.h"
#include "frames/serializer.h"
#include "obs/metrics.h"
#include "phy/channel_model.h"
#include "phy/error_model.h"
#include "runtime/experiments/all.h"
#include "runtime/registry.h"
#include "runtime/run_context.h"
#include "scenario/city.h"
#include "scenario/device_profiles.h"
#include "sim/event_queue.h"
#include "sim/network.h"

using namespace politewifi;
using common::Json;
using Clock = std::chrono::steady_clock;

namespace {

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start_us;
  double dur_us;
};

const Clock::time_point g_epoch = Clock::now();
std::vector<Span> g_spans;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_since(Clock::time_point t0) {
  return us_between(t0, Clock::now()) * 1e-6;
}

class SpanGuard {
 public:
  explicit SpanGuard(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {}
  ~SpanGuard() {
    g_spans.push_back(Span{std::move(name_), us_between(g_epoch, start_),
                           us_between(start_, Clock::now())});
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  std::string name_;
  Clock::time_point start_;
};

/// Calls `f` inside a span. Returns f()'s value as a prvalue, so objects
/// that must not move (they hand `this` to callbacks) are built in place.
template <class F>
auto timed(const char* name, F&& f) -> decltype(f()) {
  const SpanGuard span(name);
  return f();
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool write_trace(const std::string& path) {
  Json events = Json::array();
  for (const Span& s : g_spans) {
    Json e;
    e["name"] = s.name;
    e["ph"] = "X";
    e["ts"] = s.start_us;
    e["dur"] = s.dur_us;
    e["pid"] = 1;
    e["tid"] = 1;
    events.push_back(std::move(e));
  }
  Json doc;
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return write_text(path, doc.dump_compact() + "\n");
}

/// Keeps the optimizer from deleting a measured computation.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// --- Experiment replicas -------------------------------------------------------
//
// Each mirrors one runtime/experiments/<name>.cpp call for call (minus
// the narration), split at the boundary between set-up and the first
// timed event.

struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double sim_s = 0.0;        // simulated seconds the run phase advanced
  double sim_total_s = 0.0;  // simulated seconds since the simulation began
  std::uint64_t template_hits = 0;
  std::uint64_t template_misses = 0;
};

void finish_run(const sim::Simulation& sim, TimePoint run_start, Rep& rep) {
  rep.sim_s = to_seconds(sim.now() - run_start);
  rep.sim_total_s = to_seconds(sim.now() - kSimStart);
  for (const auto& device : sim.devices()) {
    const auto& stats = device->radio().tx_template_cache().stats();
    rep.template_hits += stats.hits;
    rep.template_misses += stats.misses;
  }
}

void run_wardriving(runtime::RunContext& ctx, bool setup_only, Rep& rep) {
  const double scale = ctx.param_double("scale");
  const auto t0 = Clock::now();
  const scenario::CityPlan plan = timed("setup.plan", [&] {
    scenario::CityConfig city_cfg;
    city_cfg.scale = scale;
    city_cfg.seed = ctx.seed();
    return scenario::CityPlan(
        scenario::CityPlan::grid_route(scale >= 0.5 ? 6 : 2, 500), city_cfg);
  });
  const auto sim = timed("setup.sim", [&] {
    return ctx.make_sim(
        {.fading_rho = ctx.param_double("fading_rho"),
         .fading_sigma_db = ctx.param_double("fading_sigma_db"),
         .fading_coherence_us = ctx.param_double("fading_coherence_us")});
  });
  core::WardriveCampaign campaign = timed(
      "setup.attach", [&] { return core::WardriveCampaign(*sim, plan); });
  rep.setup_s = seconds_since(t0);
  if (setup_only) return;

  const TimePoint run_start = sim->now();
  const auto t1 = Clock::now();
  const core::WardriveReport report =
      timed("run", [&] { return campaign.run(); });
  rep.run_s = seconds_since(t1);
  timed("result.to_json", [&] { ctx.results() = report.to_json(); });
  finish_run(*sim, run_start, rep);
}

void run_battery_drain(runtime::RunContext& ctx, bool setup_only, Rep& rep) {
  const auto t0 = Clock::now();
  const auto sim_holder = timed("setup.sim", [&] {
    return ctx.make_sim(
        {.shadowing_sigma_db = 0.0,
         .fading_rho = ctx.param_double("fading_rho"),
         .fading_sigma_db = ctx.param_double("fading_sigma_db"),
         .fading_coherence_us = ctx.param_double("fading_coherence_us")});
  });
  sim::Simulation& sim = *sim_holder;
  sim::Device* sensor_ptr = nullptr;
  sim::Device* attacker_ptr = nullptr;
  timed("setup.attach", [&] {
    mac::ApConfig apc;
    apc.fast_keys = true;
    sim.add_ap("home-ap", *MacAddress::parse("f2:6e:0b:01:02:03"), {0, 0},
               apc);
    mac::ClientConfig cc;
    cc.fast_keys = true;
    cc.power_save = true;
    cc.idle_timeout = milliseconds(100);
    cc.beacon_wake_window = milliseconds(1);
    cc.adaptive_rate = ctx.param_bool("adaptive_rate");
    sensor_ptr = &sim.add_client("esp8266-sensor",
                                 *MacAddress::parse("24:0a:c4:aa:bb:cc"),
                                 {4, 0}, cc);
    sim::RadioConfig rig;
    rig.position = {8, 2};
    attacker_ptr = &sim.add_device(
        {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
        *MacAddress::parse("02:de:ad:be:ef:03"), rig);
  });
  sim::Device& sensor = *sensor_ptr;
  sim::Device& attacker = *attacker_ptr;
  timed("setup.establish", [&] { sim.establish(sensor, seconds(10)); });
  core::BatteryDrainAttack attack(sim, attacker, sensor);
  rep.setup_s = seconds_since(t0);
  if (setup_only) return;

  const auto warmup = seconds(ctx.param_int("warmup_s"));
  const auto measure = seconds(ctx.param_int("measure_s"));
  std::vector<core::BatteryAttackResult> sweep_results;
  const TimePoint run_start = sim.now();
  const auto t1 = Clock::now();
  timed("run", [&] {
    for (const double rate : {0.0, 10.0, 50.0, 150.0, 450.0, 900.0}) {
      sweep_results.push_back(attack.run(rate, warmup, measure));
    }
  });
  rep.run_s = seconds_since(t1);

  timed("result.to_json", [&] {
    auto& results = ctx.results();
    auto& sweep = results["rate_sweep"];
    double unattacked = 0.0, attacked_900 = 0.0;
    for (const auto& r : sweep_results) {
      if (r.rate_pps == 0.0) unattacked = r.avg_power_mw;
      if (r.rate_pps == 900.0) attacked_900 = r.avg_power_mw;
      sweep.push_back(r.to_json());
    }
    if (unattacked > 0.0 && std::isfinite(attacked_900 / unattacked)) {
      results["power_increase_x"] = attacked_900 / unattacked;
    } else {
      ctx.fail();
    }
    const mac::ArfTrajectory& t =
        sensor.station().rate_controller().trajectory();
    Json ladder;
    ladder["outcomes"] = t.outcomes;
    ladder["upshifts"] = t.upshifts;
    ladder["downshifts"] = t.downshifts;
    ladder["min_index"] = t.min_index;
    ladder["max_index"] = t.max_index;
    ladder["final_index"] = sensor.station().rate_controller().ladder_index();
    Json dwell = Json::array();
    for (const std::uint64_t d : t.dwell) dwell.push_back(d);
    ladder["dwell"] = std::move(dwell);
    results["rate_ladder"] = std::move(ladder);
    auto& projections = results["projections"];
    for (const auto& cam :
         {scenario::logitech_circle2(), scenario::blink_xt2()}) {
      projections.push_back(
          core::project_drain(cam.name, cam.battery_mwh, attacked_900)
              .to_json());
    }
  });
  finish_run(sim, run_start, rep);
}

void run_quickstart(runtime::RunContext& ctx, bool setup_only, Rep& rep) {
  const auto t0 = Clock::now();
  const auto sim_holder = timed(
      "setup.sim", [&] { return ctx.make_sim({.shadowing_sigma_db = 0.0}); });
  sim::Simulation& sim = *sim_holder;
  auto& trace = sim.trace();
  mac::ApConfig ap_config;
  ap_config.ssid = "PrivateNet";
  ap_config.passphrase = "correct horse battery staple";
  sim::Device* ap = nullptr;
  sim::Device* tablet = nullptr;
  timed("setup.attach", [&] {
    ap = &sim.add_ap("home-ap", *MacAddress::parse("f2:6e:0b:11:22:33"),
                     {0, 0}, ap_config);
    mac::ClientConfig client_config;
    client_config.ssid = ap_config.ssid;
    client_config.passphrase = ap_config.passphrase;
    tablet = &sim.add_client("tablet", *MacAddress::parse("3c:28:6d:aa:bb:cc"),
                             {5, 0}, client_config);
  });
  const bool associated = timed(
      "setup.establish", [&] { return sim.establish(*tablet, seconds(10)); });
  if (!associated) {
    rep.setup_s = seconds_since(t0);
    ctx.fail();
    return;
  }
  sim::RadioConfig rig;
  rig.position = {9, 4};
  sim::Device& stranger = sim.add_device(
      {.name = "stranger", .kind = sim::DeviceKind::kAttacker},
      *MacAddress::parse("02:de:ad:be:ef:01"), rig);
  core::FakeFrameInjector injector(stranger);
  rep.setup_s = seconds_since(t0);
  if (setup_only) return;

  const TimePoint run_start = sim.now();
  const auto t1 = Clock::now();
  timed("run", [&] {
    trace.clear();
    trace.set_address_filter({MacAddress::paper_fake_address()});
    injector.inject_one(tablet->address());
    sim.run_for(milliseconds(ctx.param_int("watch_ms")));
  });
  rep.run_s = seconds_since(t1);

  timed("result.to_json", [&] {
    auto& results = ctx.results();
    const auto& entries = trace.entries();
    results["trace_entries"] = entries.size();
    results["handshakes_completed"] = ap->ap()->stats().handshakes_completed;
    const bool acked = entries.size() >= 2 && entries[1].frame.fc.is_ack();
    results["stranger_acked"] = acked;
    if (acked) {
      const Duration gap = entries[1].time - entries[0].time -
                           phy::ppdu_airtime(entries[0].tx.rate,
                                             entries[0].raw.size());
      results["ack_receiver_address"] = entries[1].frame.addr1.to_string();
      results["ack_gap_us"] = to_microseconds(gap);
    }
    results["acks_sent"] = tablet->station().stats().acks_sent;
    results["fake_frames_discarded"] =
        tablet->client()->stats().frames_discarded;
  });
  finish_run(sim, run_start, rep);
}

using Replica = void (*)(runtime::RunContext&, bool, Rep&);

Replica find_replica(const std::string& experiment) {
  if (experiment == "wardriving") return &run_wardriving;
  if (experiment == "battery_drain") return &run_battery_drain;
  if (experiment == "quickstart") return &run_quickstart;
  return nullptr;
}

int usage(const std::string& message) {
  std::fprintf(stderr,
               "pw_bench: %s\n"
               "usage: pw_bench info\n"
               "       pw_bench run <wardriving|battery_drain|quickstart> "
               "[--seed=N] [--smoke]\n"
               "                [--<param>=<value> ...] [--setup-only] "
               "[--traced]\n"
               "                [--doc=PATH] [--trace-out=PATH]\n"
               "       pw_bench layers [--trace-out=PATH]\n"
               "       pw_bench spawn --usage=PATH -- <program> [<arg> ...]\n",
               message.c_str());
  return 2;
}

int run_mode(const common::ParsedArgs& args) {
  if (args.positionals.size() != 2) return usage("run needs one experiment");
  const std::string& name = args.positionals[1];
  const Replica replica = find_replica(name);
  if (replica == nullptr) return usage("no replica for '" + name + "'");

  bool smoke = false, setup_only = false, traced = false;
  std::string doc_path, trace_path;
  std::vector<common::Flag> experiment_flags;
  for (const auto& flag : args.flags) {
    if (flag.name == "smoke") {
      smoke = true;
    } else if (flag.name == "setup-only") {
      setup_only = true;
    } else if (flag.name == "traced") {
      traced = true;
    } else if (flag.name == "doc") {
      doc_path = flag.value.value_or("");
    } else if (flag.name == "trace-out") {
      trace_path = flag.value.value_or("");
    } else {
      experiment_flags.push_back(flag);
    }
  }
  const auto experiment = runtime::ExperimentRegistry::instance().create(name);
  runtime::ResolvedRun resolved;
  std::string error;
  if (!runtime::resolve_run(experiment->spec(), experiment_flags, smoke,
                            &resolved, &error)) {
    return usage(error);
  }
  runtime::RunContext ctx(experiment->spec(), std::move(resolved));

  if (traced) {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  Rep rep;
  replica(ctx, setup_only, rep);
  obs::Registry::set_enabled(false);

  Json out;
  out["experiment"] = name;
  out["failed"] = ctx.failed();
  out["setup_s"] = rep.setup_s;
  out["run_s"] = rep.run_s;
  out["sim_s"] = rep.sim_s;
  out["sim_total_s"] = rep.sim_total_s;
  out["template_hits"] = rep.template_hits;
  out["template_misses"] = rep.template_misses;
  out["results"] = ctx.results();
  if (traced) {
    const Json metrics = obs::Registry::to_json();
    out["counters"] = *metrics.find("counters");
  }
  if (!doc_path.empty() && !write_text(doc_path, ctx.sink().canonical_text())) {
    std::fprintf(stderr, "pw_bench: cannot write %s\n", doc_path.c_str());
    return 1;
  }
  if (!trace_path.empty() && !write_trace(trace_path)) {
    std::fprintf(stderr, "pw_bench: cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::printf("%s\n", out.dump_compact().c_str());
  return ctx.failed() ? 1 : 0;
}

// --- Layer microbenchmarks -----------------------------------------------------
//
// Fixed inputs, independent of the workload seed. Each number is the
// median of five batches; each batch is one span in the trace.

constexpr std::uint64_t kSurveySeed = 99;  // wardriving's default seed
constexpr std::uint64_t kFloodSeed = 62;   // battery_drain's default seed

/// Median of five runs of `batch`, which returns its own per-op cost.
template <class F>
double median_of_batches(const std::string& span, F&& batch) {
  std::vector<double> costs;
  for (int i = 0; i < 5; ++i) {
    const SpanGuard guard(span);
    costs.push_back(batch());
  }
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

double ns_per_op(Clock::time_point t0, double ops) {
  return us_between(t0, Clock::now()) * 1e3 / ops;
}

/// The survey's city at scale 0.1 with its default seed.
scenario::CityPlan survey_plan() {
  scenario::CityConfig city_cfg;
  city_cfg.scale = 0.1;
  city_cfg.seed = kSurveySeed;
  return scenario::CityPlan(scenario::CityPlan::grid_route(2, 500), city_cfg);
}

void phy_layers(Json& out) {
  const phy::ChannelModel model(
      {.fading = {.rho = 0.9, .sigma_db = 2.0, .coherence_ns = 1'000'000}},
      kSurveySeed);

  // Cold: a fresh state per call, so each evaluation replays its chain
  // from the block start (uniform offset: ~128 steps on average).
  constexpr int kColdCalls = 10000;
  std::uint64_t cold_steps = 0, cold_calls = 0;
  out["phy.fade_cold_ns"] = median_of_batches("layer.phy.fade_cold", [&] {
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kColdCalls; ++i) {
      phy::ChannelModel::FadingState state;
      const std::uint64_t key = phy::ChannelModel::splitmix(i);
      acc += model.advance(state, key, key % (1u << 20), &cold_steps);
    }
    keep(acc);
    cold_calls += kColdCalls;
    return ns_per_op(t0, kColdCalls);
  });
  out["phy.fade_cold_steps"] = double(cold_steps) / double(cold_calls);

  // Warm: one link advanced one interval per call.
  constexpr int kWarmCalls = 1000000;
  phy::ChannelModel::FadingState warm;
  std::uint64_t interval = 0;
  out["phy.fade_warm_ns"] = median_of_batches("layer.phy.fade_warm", [&] {
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kWarmCalls; ++i) {
      acc += model.advance(warm, 0x5eedULL, ++interval);
    }
    keep(acc);
    return ns_per_op(t0, kWarmCalls);
  });

  constexpr int kGainCalls = 1000000;
  out["phy.static_gain_ns"] = median_of_batches("layer.phy.static_gain", [&] {
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kGainCalls; ++i) {
      acc += model.static_gain_db(2.437e9, 1.0 + (i % 4096) * 0.05,
                                  std::uint64_t(i), std::uint64_t(i) + 1);
    }
    keep(acc);
    return ns_per_op(t0, kGainCalls);
  });

  // One fan-out's worth of SNRs (-1 .. 15 dB) through the batched FER
  // entry point at the survey's client rate and null-frame size.
  std::vector<double> snr_db(64), fer(64);
  for (std::size_t i = 0; i < snr_db.size(); ++i) snr_db[i] = -1.0 + 0.25 * i;
  constexpr int kFerRounds = 5000;
  out["phy.fer_batch_ns_per_rx"] =
      median_of_batches("layer.phy.fer_batch", [&] {
        const auto t0 = Clock::now();
        for (int r = 0; r < kFerRounds; ++r) {
          phy::frame_error_rate_batch(phy::kOfdm6, snr_db, 28, fer);
          keep(fer.data());
        }
        return ns_per_op(t0, double(kFerRounds) * double(snr_db.size()));
      });
}

/// Fan-out on the survey geometry: the scale-0.1 city with every device
/// awake (a dozing receiver is skipped before any link work), one AP
/// near the route's middle sending a null frame nobody answers every
/// 32 ms. The cost per candidate covers the link budget, the reception,
/// the FER and the delivery to the receiving MAC. 32 coherence intervals
/// between a link's evaluations is near the survey's mean fading walk
/// per link (1,581 steps over 43.7 candidates per tx).
double fanout_ns_per_candidate(double fading_rho, const char* span) {
  const scenario::CityPlan plan = survey_plan();
  sim::SimulationConfig config;
  config.seed = kSurveySeed;
  config.medium.fading_rho = fading_rho;
  sim::Simulation sim(config);
  const core::WardriveCampaign population(sim, plan);
  const Position middle = plan.route()[plan.route().size() / 2];
  sim::Device* sender = nullptr;
  for (const auto& device : sim.devices()) {
    device->radio().set_sleeping(false);
    if (device->info().kind != sim::DeviceKind::kAccessPoint) continue;
    if (sender == nullptr ||
        distance(device->radio().position(), middle) <
            distance(sender->radio().position(), middle)) {
      sender = device.get();
    }
  }
  const Bytes ppdu = frames::serialize(frames::make_null_function(
      MacAddress::paper_fake_address(), sender->address(), 0));
  const phy::TxVector tx{.rate = phy::kOfdm6, .power_dbm = 15.0};
  const auto transmit = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      sim.medium().transmit(sender->radio(), ppdu, tx);
      sim.run_for(milliseconds(32));
    }
  };
  transmit(16);  // fill the link caches and the sender's neighbor lanes
  return median_of_batches(span, [&] {
    const std::uint64_t before = sim.medium().stats().candidates_scanned;
    const auto t0 = Clock::now();
    transmit(1000);
    return ns_per_op(
        t0, double(sim.medium().stats().candidates_scanned - before));
  });
}

void sim_layers(Json& out) {
  out["sim.medium.fanout_ns_per_candidate"] =
      fanout_ns_per_candidate(0.0, "layer.sim.medium.fanout");
  out["sim.medium.fanout_fading_ns_per_candidate"] =
      fanout_ns_per_candidate(0.9, "layer.sim.medium.fanout_fading");

  // Events spread over 100 us, as the medium's delivery events are.
  constexpr int kEvents = 4096;
  constexpr int kRounds = 64;
  sim::Scheduler scheduler;
  std::uint64_t fired = 0;
  out["sim.scheduler.push_pop_ns"] =
      median_of_batches("layer.sim.scheduler.push_pop", [&] {
        const auto t0 = Clock::now();
        for (int r = 0; r < kRounds; ++r) {
          for (int i = 0; i < kEvents; ++i) {
            scheduler.schedule_in(nanoseconds((i * 7919) % 100'000),
                                  [&fired] { ++fired; });
          }
          scheduler.run_for(microseconds(100));
        }
        return ns_per_op(t0, double(kEvents) * kRounds);
      });
  keep(fired);

  std::vector<sim::Scheduler::EventId> ids(kEvents);
  out["sim.scheduler.cancel_ns"] =
      median_of_batches("layer.sim.scheduler.cancel", [&] {
        double ns = 0.0;
        for (int r = 0; r < kRounds; ++r) {
          for (int i = 0; i < kEvents; ++i) {
            ids[i] = scheduler.schedule_in(milliseconds(1) + nanoseconds(i),
                                           [] {});
          }
          const auto t0 = Clock::now();
          for (const auto id : ids) scheduler.cancel(id);
          ns += us_between(t0, Clock::now()) * 1e3;
          scheduler.run_for(milliseconds(2));
        }
        return ns / (double(kEvents) * kRounds);
      });
}

void frames_layers(Json& out) {
  frames::Frame frame = frames::make_null_function(
      *MacAddress::parse("24:0a:c4:aa:bb:cc"), MacAddress::paper_fake_address(),
      0);
  constexpr int kFrames = 1000000;
  frames::PpduPool pool;
  frames::FrameTemplateCache cache;
  out["frames.template_render_ns"] =
      median_of_batches("layer.frames.template_render", [&] {
        std::size_t octets = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kFrames; ++i) {
          frame.seq.sequence = static_cast<std::uint16_t>(i & 0x0FFF);
          octets += cache.render(frame, pool).size();
        }
        keep(octets);
        return ns_per_op(t0, kFrames);
      });
  Bytes octets_out;
  out["frames.serialize_ns"] = median_of_batches("layer.frames.serialize", [&] {
    std::size_t octets = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < kFrames; ++i) {
      frame.seq.sequence = static_cast<std::uint16_t>(i & 0x0FFF);
      frames::serialize_into(frame, octets_out);
      octets += octets_out.size();
    }
    keep(octets);
    return ns_per_op(t0, kFrames);
  });
}

/// One FakeFrameInjector::inject_one -> ACK delivered, in the flood's
/// three-device cell (AP, associated client, attacker) without power save.
/// Returns false if more than 1% of the fake frames went unanswered (a
/// few collide with the AP's beacons).
bool mac_layers(Json& out) {
  sim::SimulationConfig config;
  config.seed = kFloodSeed;
  config.medium.shadowing_sigma_db = 0.0;
  sim::Simulation sim(config);
  mac::ApConfig apc;
  apc.fast_keys = true;
  sim.add_ap("home-ap", *MacAddress::parse("f2:6e:0b:01:02:03"), {0, 0}, apc);
  mac::ClientConfig cc;
  cc.fast_keys = true;
  sim::Device& victim = sim.add_client(
      "victim", *MacAddress::parse("24:0a:c4:aa:bb:cc"), {4, 0}, cc);
  sim::RadioConfig rig;
  rig.position = {8, 2};
  sim::Device& attacker = sim.add_device(
      {.name = "attacker", .kind = sim::DeviceKind::kAttacker},
      *MacAddress::parse("02:de:ad:be:ef:03"), rig);
  if (!sim.establish(victim, seconds(10))) return false;
  core::FakeFrameInjector injector(attacker);

  constexpr int kExchanges = 20000;
  const std::uint64_t acks_before = victim.station().stats().acks_sent;
  std::uint64_t injected = 0;
  out["mac.ack_exchange_us"] =
      median_of_batches("layer.mac.ack_exchange", [&] {
        const auto t0 = Clock::now();
        for (int i = 0; i < kExchanges; ++i) {
          injector.inject_one(victim.address());
          sim.run_for(microseconds(500));
        }
        injected += kExchanges;
        return ns_per_op(t0, kExchanges) * 1e-3;
      });
  const std::uint64_t acked =
      victim.station().stats().acks_sent - acks_before;
  return double(acked) >= 0.99 * double(injected);
}

void setup_layers(Json& out) {
  out["scenario.city_plan_ms"] =
      median_of_batches("layer.scenario.city_plan", [] {
        const auto t0 = Clock::now();
        const scenario::CityPlan plan = survey_plan();
        keep(plan.devices().size());
        return ns_per_op(t0, 1) * 1e-6;
      });
  const scenario::CityPlan plan = survey_plan();
  out["core.wardrive_attach_ms"] =
      median_of_batches("layer.core.wardrive_attach", [&] {
        sim::Simulation sim(sim::SimulationConfig{.seed = kSurveySeed});
        const auto t0 = Clock::now();
        const core::WardriveCampaign campaign(sim, plan);
        return ns_per_op(t0, 1) * 1e-6;
      });
}

int layers_mode(const common::ParsedArgs& args) {
  Json out = Json::object();
  phy_layers(out);
  sim_layers(out);
  frames_layers(out);
  const bool acked = mac_layers(out);
  setup_layers(out);
  if (const common::Flag* flag = args.find_flag("trace-out")) {
    if (!write_trace(flag->value.value_or(""))) {
      std::fprintf(stderr, "pw_bench: cannot write the trace\n");
      return 1;
    }
  }
  std::printf("%s\n", out.dump_compact().c_str());
  if (!acked) {
    std::fprintf(stderr, "pw_bench: a fake frame went unanswered\n");
    return 1;
  }
  return 0;
}

/// Runs a program and writes its wall time and peak RSS to --usage. The
/// kernel reports the larger of the program's own peak and its
/// waited-for children's, and counts the footprint a child inherits from
/// the process that forked it, so the program is launched from this
/// small process rather than from a large interpreter. Exits with the
/// program's status.
int spawn_mode(const common::ParsedArgs& args) {
  const common::Flag* usage_flag = args.find_flag("usage");
  if (usage_flag == nullptr || !usage_flag->value.has_value() ||
      args.positionals.size() < 2) {
    return usage("spawn needs --usage=PATH -- <program> [<arg> ...]");
  }
  std::vector<std::string> command(args.positionals.begin() + 1,
                                   args.positionals.end());
  std::vector<char*> argv;
  for (std::string& arg : command) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("pw_bench: fork");
    return 1;
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("pw_bench: exec");
    ::_exit(127);
  }
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      std::perror("pw_bench: wait4");
      return 1;
    }
  }
  Json out;
  out["wall_s"] = seconds_since(t0);
  out["peak_rss_mb"] = double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
  if (!write_text(*usage_flag->value, out.dump_compact() + "\n")) {
    std::fprintf(stderr, "pw_bench: cannot write %s\n",
                 usage_flag->value->c_str());
    return 1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

int info_mode() {
  Json out;
#if defined(__clang__)
  out["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  out["compiler"] = std::string("gcc ") + __VERSION__;
#else
  out["compiler"] = "unknown";
#endif
  out["build_type"] = PW_BENCH_BUILD_TYPE;
  out["metrics_compiled"] = PW_OBS_ON != 0;
  std::printf("%s\n", out.dump_compact().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = common::parse_args(argc, argv, &error);
  if (!args.has_value()) return usage(error);
  if (args->positionals.empty()) return usage("missing mode");
  const std::string& mode = args->positionals.front();
  if (mode == "spawn") return spawn_mode(*args);
  runtime::register_builtin_experiments();
  if (mode == "info") return info_mode();
  if (mode == "run") return run_mode(*args);
  if (mode == "layers") return layers_mode(*args);
  return usage("unknown mode '" + mode + "'");
}
