// Channel-model tests: the static/dynamic decomposition, the AR(1)
// fading bridge's purity, draw contract and moments, and the
// ChannelEquivalence property — `fading_rho = 0` must be byte-identical
// to the memoryless channel in production and in the reference oracle,
// all the way up to the survey document the runtime publishes — the
// fading-state lines must be a pure cache, and a faded, mobile,
// channel-hopping scene must match the oracle byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/injector.h"
#include "medium_test_peer.h"
#include "obs/metrics.h"
#include "phy/channel_model.h"
#include "phy/propagation.h"
#include "runtime/experiments/all.h"
#include "runtime/runner.h"
#include "sim/mobility.h"
#include "sim/network.h"
#include "sim/trace.h"

using namespace politewifi;

namespace {

phy::ChannelParams fading_params(double rho, double sigma_db,
                                 std::int64_t coherence_ns = 1'000'000) {
  phy::ChannelParams p;
  p.fading = {.rho = rho, .sigma_db = sigma_db, .coherence_ns = coherence_ns};
  return p;
}

// --- The dynamic term: AR(1) bridge contract ---------------------------------

TEST(ChannelModel, FadingDisabledDrawsNothing) {
  for (const auto& ch :
       {phy::ChannelModel(fading_params(0.0, 2.0), 7),     // the off-switch
        phy::ChannelModel(fading_params(0.5, 0.0), 7)}) {  // degenerate sigma
    EXPECT_FALSE(ch.fading_enabled());
    phy::ChannelModel::FadingState st;
    std::uint64_t steps = 0;
    EXPECT_EQ(ch.advance(st, 123, 42, &steps), 0.0);
    EXPECT_EQ(steps, 0u);
  }
  EXPECT_TRUE(phy::ChannelModel(fading_params(0.5, 2.0), 7).fading_enabled());
}

/// Every spine node `st` caches must be the exact double the pure node
/// accessor draws from scratch.
void expect_spine_is_pure(const phy::ChannelModel& ch, std::uint64_t key,
                          const phy::ChannelModel::FadingState& st) {
  using CM = phy::ChannelModel;
  const std::uint64_t j = st.interval % CM::kBlockIntervals;
  const std::uint64_t restart = st.interval - j;
  for (unsigned k = CM::spine_low_level(j); k <= CM::kBridgeLevels; ++k) {
    EXPECT_EQ(st.spine_db[k], ch.node_db(key, restart, CM::spine_node(j, k)))
        << "interval " << st.interval << " spine level " << k;
  }
}

constexpr std::uint64_t kMaxDraws =
    2 + phy::ChannelModel::kBridgeLevels;  // 2 + log2(kBlockIntervals)

TEST(ChannelModel, FadeIsAPureFunctionOfLinkAndInterval) {
  const phy::ChannelModel ch(fading_params(0.85, 3.0, 250'000), 99);
  const std::uint64_t key = phy::ChannelModel::pair_key(5, 9);

  // Drive one persistent state through a scrambled interval sequence —
  // forward jumps, rewinds, block crossings, repeats. Every value must
  // bit-equal the from-scratch evaluation: the state is only a cache.
  phy::ChannelModel::FadingState st;
  for (const std::uint64_t n : {700ull, 3ull, 255ull, 256ull, 257ull, 0ull,
                                511ull, 512ull, 10ull, 10ull, 1023ull,
                                64ull}) {
    EXPECT_EQ(ch.advance(st, key, n), ch.fading_db(key, n))
        << "interval " << n;
  }

  // A different link never aliases this stream.
  const std::uint64_t other = phy::ChannelModel::pair_key(5, 10);
  EXPECT_NE(ch.fading_db(key, 17), ch.fading_db(other, 17));

  // The same property under a seeded random walk per link: repeats,
  // short and long forward moves (landing inside a cached bracket, on a
  // cached spine node, or past the whole spine), rewinds and
  // cross-block jumps, from weakly to almost fully correlated
  // processes. Whatever the state held, the value is the cold one, no
  // evaluation draws more than a cold one may, and the spine left
  // behind is pure too.
  for (const double rho : {0.05, 0.5, 0.9, 0.999}) {
    const phy::ChannelModel walked(fading_params(rho, 2.5), 7);
    Rng walk(1729);
    std::uint64_t max_draws = 0;
    for (std::uint64_t link = 0; link < 40; ++link) {
      const std::uint64_t link_key =
          phy::ChannelModel::pair_key(link, link + 1);
      phy::ChannelModel::FadingState walker;
      std::uint64_t n = std::uint64_t(walk.uniform_int(0, 2000));
      for (int step = 0; step < 4000; ++step) {
        switch (walk.uniform_int(0, 5)) {
          case 0: break;                                        // repeat
          case 1: n += std::uint64_t(walk.uniform_int(1, 4)); break;
          case 2: n += std::uint64_t(walk.uniform_int(5, 255)); break;
          case 3:                                               // rewind
            n -= std::min(n, std::uint64_t(walk.uniform_int(1, 300)));
            break;
          case 4: n += std::uint64_t(walk.uniform_int(256, 1024)); break;
          default: n = std::uint64_t(walk.uniform_int(0, 4096)); break;
        }
        const bool repeat = walker.valid && walker.interval == n;
        std::uint64_t draws = 0;
        const double v = walked.advance(walker, link_key, n, &draws);
        ASSERT_EQ(v, walked.fading_db(link_key, n))
            << "rho " << rho << " link " << link << " interval " << n;
        ASSERT_LE(draws, kMaxDraws) << "rho " << rho << " interval " << n;
        if (repeat) {
          EXPECT_EQ(draws, 0u);
        }
        max_draws = std::max(max_draws, draws);
        if (step % 16 == 0) expect_spine_is_pure(walked, link_key, walker);
      }
    }
    EXPECT_EQ(max_draws, kMaxDraws) << "the walk never evaluated cold";
  }
}

// The draw contract of the bridge + right-spine cache on a link swept
// interval by interval across two stationary restarts (256, 512): every
// value is the cold one, a repeated interval draws nothing, no single
// evaluation draws more than a cold one may, and a full block draws
// each of its kBlockIntervals - 1 interior nodes and two block ends
// exactly once.
TEST(ChannelModel, IncrementalAdvanceReplaysTheColdChain) {
  using CM = phy::ChannelModel;
  const CM ch(fading_params(0.9, 2.0), 4);
  const std::uint64_t key = CM::pair_key(1, 2);
  CM::FadingState st;
  std::uint64_t block_draws = 0;
  for (std::uint64_t n = 0; n < 600; ++n) {
    std::uint64_t steps = 0;
    const double inc = ch.advance(st, key, n, &steps);
    EXPECT_LE(steps, kMaxDraws) << "interval " << n;
    EXPECT_EQ(inc, ch.fading_db(key, n)) << "interval " << n;
    block_draws += steps;
    steps = 0;
    EXPECT_EQ(ch.advance(st, key, n, &steps), inc);
    EXPECT_EQ(steps, 0u) << "interval " << n;
    expect_spine_is_pure(ch, key, st);
    if ((n + 1) % CM::kBlockIntervals == 0) {
      EXPECT_EQ(block_draws, CM::kBlockIntervals + 1) << "block ending " << n;
      block_draws = 0;
    }
  }
}

TEST(ChannelModel, ReciprocalLinksShareOneFade) {
  const phy::ChannelModel ch(fading_params(0.7, 2.5), 11);
  EXPECT_EQ(phy::ChannelModel::pair_key(3, 8),
            phy::ChannelModel::pair_key(8, 3));
  EXPECT_EQ(ch.fading_db(phy::ChannelModel::pair_key(3, 8), 5),
            ch.fading_db(phy::ChannelModel::pair_key(8, 3), 5));
}

TEST(ChannelModel, DistinctSeedsDecorrelateTheStreams) {
  const phy::ChannelModel a(fading_params(0.8, 2.0), 1);
  const phy::ChannelModel b(fading_params(0.8, 2.0), 2);
  const std::uint64_t key = phy::ChannelModel::pair_key(4, 6);
  EXPECT_NE(a.fading_db(key, 9), b.fading_db(key, 9));
}

TEST(ChannelModel, IntervalAtQuantisesSimTimeByCoherence) {
  const phy::ChannelModel ch(fading_params(0.8, 2.0, 1'000'000), 3);
  EXPECT_EQ(ch.interval_at(0), 0u);
  EXPECT_EQ(ch.interval_at(999'999), 0u);
  EXPECT_EQ(ch.interval_at(1'000'000), 1u);
  EXPECT_EQ(ch.interval_at(5'500'000), 5u);
}

// Ensemble moments across independent links: the stationary variance is
// sigma^2 and the lag-k autocorrelation is rho^k (exactly, within a
// restart block — the block-boundary bias is ~lag/kBlockIntervals; the
// lag checks never straddle a boundary, the seam checks test it).
TEST(ChannelModel, AR1MomentsMatchTheory) {
  const double rho = 0.8;
  const double sigma = 3.0;
  const phy::ChannelModel ch(fading_params(rho, sigma), 2024);
  constexpr int kLinks = 4000;
  constexpr std::uint64_t kBase = 40;  // mid-block; max lag 8 stays inside

  std::vector<std::uint64_t> keys(kLinks);
  std::vector<double> base(kLinks);
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < kLinks; ++i) {
    keys[i] = phy::ChannelModel::pair_key(2 * i + 1, 2 * i + 2);
    base[i] = ch.fading_db(keys[i], kBase);
    sum += base[i];
    sumsq += base[i] * base[i];
  }
  const double mean = sum / kLinks;
  const double var = sumsq / kLinks - mean * mean;
  // Standard errors: sigma/sqrt(N) ~= 0.047 for the mean,
  // sigma^2 sqrt(2/N) ~= 0.20 for the variance. Bounds are ~4 sigma.
  EXPECT_NEAR(mean, 0.0, 0.2);
  EXPECT_NEAR(var, sigma * sigma, 0.9);

  for (const std::uint64_t lag : {1u, 2u, 4u, 8u}) {
    double mean_l = 0.0;
    std::vector<double> lagged(kLinks);
    for (int i = 0; i < kLinks; ++i) {
      lagged[i] = ch.fading_db(keys[i], kBase + lag);
      mean_l += lagged[i];
    }
    mean_l /= kLinks;
    double cov = 0.0;
    double var_l = 0.0;
    for (int i = 0; i < kLinks; ++i) {
      cov += (base[i] - mean) * (lagged[i] - mean_l);
      var_l += (lagged[i] - mean_l) * (lagged[i] - mean_l);
    }
    const double corr = cov / std::sqrt((var * kLinks) * var_l);
    EXPECT_NEAR(corr, std::pow(rho, double(lag)), 0.06) << "lag " << lag;
  }

  // The same law at the bridge's seams, where a wrong level coefficient
  // would hide from the mid-block lags above: the block start, the
  // first node, both sides of the top midpoint 128 and the last
  // interval must all have variance sigma^2; pairs straddling the top
  // midpoint and the two ends of a block must correlate as rho^lag; and
  // the last interval of a block must be uncorrelated with the next
  // block's restart. Bounds are ~4 standard errors: sigma^2 sqrt(2/N)
  // for a variance and (1 - c^2)/sqrt(N) for a correlation c.
  constexpr int kSeamLinks = 20000;
  constexpr std::uint64_t kStart = 3 * phy::ChannelModel::kBlockIntervals;
  const std::vector<std::uint64_t> at = {0, 1, 126, 127, 128,
                                         129, 130, 255, 256};
  const auto column = [&](std::uint64_t j) {
    return std::size_t(std::find(at.begin(), at.end(), j) - at.begin());
  };
  const double seam_sigma = 2.0;
  for (const double seam_rho : {0.05, 0.9, 0.999}) {
    const phy::ChannelModel seams(fading_params(seam_rho, seam_sigma), 31337);
    // samples[c][i]: link i's fade at interval kStart + at[c].
    std::vector<std::vector<double>> samples(at.size(),
                                             std::vector<double>(kSeamLinks));
    for (int i = 0; i < kSeamLinks; ++i) {
      const std::uint64_t key = phy::ChannelModel::pair_key(2 * i, 2 * i + 1);
      for (std::size_t c = 0; c < at.size(); ++c) {
        samples[c][i] = seams.fading_db(key, kStart + at[c]);
      }
    }
    const auto moments = [&](std::size_t c) {
      double s1 = 0.0;
      double s2 = 0.0;
      for (const double x : samples[c]) {
        s1 += x;
        s2 += x * x;
      }
      const double m = s1 / kSeamLinks;
      return std::pair{m, s2 / kSeamLinks - m * m};
    };
    const double n_sqrt = std::sqrt(double(kSeamLinks));
    for (const std::uint64_t j : {0u, 1u, 127u, 128u, 129u, 255u}) {
      const auto [m, v] = moments(column(j));
      EXPECT_NEAR(m, 0.0, 4.0 * seam_sigma / n_sqrt)
          << "rho " << seam_rho << " j " << j;
      EXPECT_NEAR(v, seam_sigma * seam_sigma,
                  4.0 * seam_sigma * seam_sigma * std::sqrt(2.0) / n_sqrt)
          << "rho " << seam_rho << " j " << j;
    }
    const auto expect_corr = [&](std::uint64_t ja, std::uint64_t jb,
                                 double want) {
      const auto [ma, va] = moments(column(ja));
      const auto [mb, vb] = moments(column(jb));
      double c = 0.0;
      for (int i = 0; i < kSeamLinks; ++i) {
        c += (samples[column(ja)][i] - ma) * (samples[column(jb)][i] - mb);
      }
      EXPECT_NEAR(c / kSeamLinks / std::sqrt(va * vb), want,
                  4.0 * (1.0 - want * want) / n_sqrt)
          << "rho " << seam_rho << " corr(" << ja << ", " << jb << ")";
    };
    expect_corr(127, 128, seam_rho);
    expect_corr(126, 130, std::pow(seam_rho, 4.0));
    expect_corr(0, 255, std::pow(seam_rho, 255.0));
    expect_corr(255, 256, 0.0);  // across the block boundary
  }
}

// The fading stream's normals come from a counter-fed ziggurat. Over 2^20
// links, the block starts x_0 / sigma must be standard normal: KS
// statistic, the tail mass beyond the ziggurat's R, mean and variance.
// The draws that leave the fast path — a wedge rejection followed by a
// retry, and the tail beyond R — must be found among them and be as
// pure as the rest.
TEST(ChannelModel, NodeDrawsAreStandardNormal) {
  constexpr double kSigma = 2.5;
  constexpr double kR = 3.442619855899;  // the ziggurat's base-strip edge
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  const phy::ChannelModel ch(fading_params(0.9, kSigma), 8128);
  std::vector<double> z(kDraws);
  std::vector<std::uint64_t> retried;
  std::vector<std::uint64_t> tails;
  double sum = 0.0;
  double sumsq = 0.0;
  std::size_t beyond_r = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const std::uint64_t key = phy::ChannelModel::pair_key(2 * i, 2 * i + 1);
    const double x0 = ch.fading_db(key, 0);
    std::uint64_t attempts = 0;
    const double g = phy::ChannelModel::gaussian(ch.fading_counter(key, 0),
                                                 &attempts);
    ASSERT_EQ(x0, kSigma * g) << "link " << i;
    z[i] = x0 / kSigma;
    sum += z[i];
    sumsq += z[i] * z[i];
    if (std::abs(g) > kR) {
      ++beyond_r;
      if (tails.size() < 8) tails.push_back(key);
    }
    if (attempts > 1 && retried.size() < 8) retried.push_back(key);
  }
  const double n = double(kDraws);
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 4.0 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 4.0 * std::sqrt(2.0 / n));

  // Kolmogorov–Smirnov against Phi: sqrt(N) D below 1.63, the 1%
  // critical value.
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    d = std::max({d, (double(i) + 1.0) / n - cdf, cdf - double(i) / n});
  }
  EXPECT_LT(std::sqrt(n) * d, 1.63) << "D = " << d;

  // P(|Z| > R) = erfc(R / sqrt 2) ~= 5.76e-4, within 4 standard errors.
  const double tail = std::erfc(kR / std::sqrt(2.0));
  EXPECT_NEAR(double(beyond_r) / n, tail, 4.0 * std::sqrt(tail * (1 - tail) / n));

  // Purity of the slow paths: a persistent state walked across the block
  // start and back (a cold restart each time) gives the from-scratch
  // value.
  ASSERT_FALSE(retried.empty()) << "no draw retried after a wedge test";
  ASSERT_FALSE(tails.empty()) << "no draw went to the tail";
  for (const auto& keys : {retried, tails}) {
    for (const std::uint64_t key : keys) {
      phy::ChannelModel::FadingState st;
      for (const std::uint64_t interval : {0ull, 5ull, 0ull, 300ull, 0ull}) {
        EXPECT_EQ(ch.advance(st, key, interval), ch.fading_db(key, interval))
            << "interval " << interval;
      }
    }
  }
}

// --- The static term: bit-compatibility with the legacy path -----------------

TEST(ChannelModel, StaticGainIsLogDistancePlusShadowing) {
  phy::ChannelParams cp;
  cp.path_loss_exponent = 3.2;
  cp.shadowing_sigma_db = 4.0;
  const phy::ChannelModel ch(cp, 77);

  const double freq = 2.437e9;
  const phy::LogDistancePathLoss reference(
      {.exponent = 3.2, .reference_m = 1.0, .shadowing_sigma_db = 0.0}, freq);
  EXPECT_EQ(ch.reference_loss_db(freq), reference.reference_loss_db());
  // Memoized second ask is the identical double.
  EXPECT_EQ(ch.reference_loss_db(freq), ch.reference_loss_db(freq));

  for (const double d : {0.05, 1.0, 7.3, 120.0}) {
    const double expected =
        -reference.loss_db(d) + ch.shadowing_db(21, 34);
    EXPECT_EQ(ch.static_gain_db(freq, d, 21, 34), expected) << "d=" << d;
    // Reciprocity: the shadowing draw is order-independent.
    EXPECT_EQ(ch.static_gain_db(freq, d, 34, 21),
              ch.static_gain_db(freq, d, 21, 34));
  }
}

// --- ChannelEquivalence: the rho = 0 off-switch ------------------------------

struct EngineFingerprint {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t>>
      station;
  std::vector<double> energy_mj;
  std::uint64_t receptions = 0;
  std::uint64_t delivery_events = 0;
  std::vector<std::tuple<TimePoint, std::string, Bytes>> trace;

  bool operator==(const EngineFingerprint&) const = default;
};

/// What every station and the sniffer observed in `sim`.
EngineFingerprint fingerprint_of(sim::Simulation& sim,
                                 const sim::TraceRecorder& recorder) {
  EngineFingerprint fp;
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
  return fp;
}

/// A compact mixed scenario with marginal links: a static population
/// spread over a 400 m square plus a walking injector (`frames_per_step`
/// injections per 25 ms step), with shadowing and frame errors ON, so an
/// up- or down-fade that leaked through a supposedly dormant fading term
/// would flip FER draws, detection edges, energies and trace bytes.
/// `stats`, when non-null, receives the production medium's engine
/// counters.
EngineFingerprint run_channel_scenario(sim::MediumConfig mc,
                                       bool oracle = false,
                                       sim::Medium::Stats* stats = nullptr,
                                       int frames_per_step = 1) {
  sim::Simulation sim({.medium = mc, .seed = 314});
  if (oracle) sim::MediumTestPeer::use_reference_oracle(sim.medium());
  sim::TraceRecorder& recorder = sim.trace();

  Rng layout(271);
  std::vector<sim::Device*> targets;
  for (int i = 0; i < 8; ++i) {
    sim::RadioConfig rc;
    rc.position = {layout.uniform(-200.0, 200.0),
                   layout.uniform(-200.0, 200.0)};
    auto& dev = sim.add_device(
        {.name = "node" + std::to_string(i)},
        {0x5e, 0x44, 0x33, 0x22, 0x11, std::uint8_t(i)}, rc);
    targets.push_back(&dev);
  }

  sim::RadioConfig rig;
  rig.position = {-200.0, -200.0};
  sim::Device& attacker = sim.add_device(
      {.name = "walker", .kind = sim::DeviceKind::kAttacker},
      {0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee}, rig);
  core::FakeFrameInjector injector(attacker);
  sim::WaypointMover mover(attacker.radio(), sim.scheduler(),
                           {{-200.0, -200.0}, {200.0, 200.0}}, 40.0,
                           milliseconds(50));
  mover.start();

  for (int step = 0; step < 60; ++step) {
    for (int f = 0; f < frames_per_step; ++f) {
      injector.inject_one(targets[layout.uniform_int(0, 7)]->address());
      sim.run_for(microseconds(25000) / frames_per_step);
    }
  }
  sim.run_for(milliseconds(200));
  sim.medium().audit_coherence();
  if (stats != nullptr) *stats = sim.medium().stats();
  return fingerprint_of(sim, recorder);
}

TEST(ChannelEquivalence, RhoZeroIsByteIdenticalToTheMemorylessChannel) {
  // The reference: an untouched MediumConfig — the engine exactly as it
  // ran before the channel refactor.
  const EngineFingerprint baseline = run_channel_scenario({});
  ASSERT_FALSE(baseline.trace.empty());

  for (const bool oracle : {false, true}) {
    sim::MediumConfig mc;
    mc.fading_rho = 0.0;  // the off-switch under test
    // Deliberately loud dormant knobs: with rho = 0 they must be
    // completely inert, not merely small.
    mc.fading_sigma_db = 9.0;
    mc.fading_coherence_us = 50.0;
    EXPECT_EQ(run_channel_scenario(mc, oracle), baseline)
        << "oracle=" << oracle;
  }
}

// With fading ON, production serves every fade through fading-state
// lines that walk each link's bridge spine incrementally, and decides
// frame loss from memoized FER brackets; the oracle keeps no lines,
// evaluates every fade cold from its block's endpoints and every
// frame-loss decision from the exact FER. Identical bytes prove the
// lines are a pure cache of the fading function and the bracket decision
// is exact (the coherence audit re-derives every cached spine node and
// bracket end). Fading spreads the SINRs over the FER waterfall, so some
// uniforms land inside their bracket: the exact fallback must have been
// taken for the property to cover it.
TEST(ChannelEquivalence, FadingStateLinesAreAPureCache) {
  sim::MediumConfig mc;
  mc.fading_rho = 0.9;
  mc.fading_sigma_db = 6.0;
  mc.fading_coherence_us = 500.0;
  // One injection per coherence interval (~5,000 frame-loss decisions)
  // so that some uniforms land inside their bracket.
  constexpr int kFramesPerStep = 50;
  sim::Medium::Stats stats;
  const EngineFingerprint production = run_channel_scenario(
      mc, /*oracle=*/false, &stats, kFramesPerStep);
  ASSERT_FALSE(production.trace.empty());
  EXPECT_GT(stats.fer_cache_hits, 0u);
  EXPECT_GT(stats.fer_exact_fallbacks, 0u)
      << "no decision landed inside its FER bracket; the property is vacuous";
  EXPECT_EQ(production, run_channel_scenario(mc, /*oracle=*/true, nullptr,
                                             kFramesPerStep));
}

// Sanity for the property above: with rho > 0 the very same scenario
// must NOT reproduce the memoryless bytes — otherwise the off-switch
// test is vacuous.
TEST(ChannelEquivalence, CorrelatedFadingActuallyChangesTheBytes) {
  const EngineFingerprint baseline = run_channel_scenario({});
  sim::MediumConfig mc;
  mc.fading_rho = 0.9;
  mc.fading_sigma_db = 6.0;
  mc.fading_coherence_us = 500.0;
  EXPECT_NE(run_channel_scenario(mc), baseline);
}

// The same off-switch at the top of the stack: the §3 survey document
// (params echo aside) must ignore arbitrarily loud dormant fading knobs.
TEST(ChannelEquivalence, SurveyDocumentIgnoresDormantFadingKnobs) {
  runtime::register_builtin_experiments();
  const auto base = runtime::run_experiment("wardriving", {}, /*smoke=*/true);
  ASSERT_EQ(base.exit_code, 0);
  const auto tweaked = runtime::run_experiment(
      "wardriving",
      {{"fading_sigma_db", "7.5"}, {"fading_coherence_us", "50"}},
      /*smoke=*/true);
  ASSERT_EQ(tweaked.exit_code, 0);

  const auto results_block = [](const std::string& doc) {
    const auto at = doc.find("\"results\"");
    EXPECT_NE(at, std::string::npos);
    return doc.substr(at);
  };
  EXPECT_EQ(results_block(base.json), results_block(tweaked.json));
  EXPECT_NE(base.json, tweaked.json);  // the params echo does differ
}

// --- FadedMobileEquivalence: a faded, mobile scene against the oracle -------

/// RAII registry window: reset + enable on entry, disable on exit, so a
/// failing test can't leak an enabled registry.
struct MetricsWindow {
  MetricsWindow() {
    obs::Registry::reset();
    obs::Registry::set_enabled(true);
  }
  ~MetricsWindow() { obs::Registry::set_enabled(false); }
};

/// Work a faded mobile run did: the equivalence below is vacuous unless
/// the fading process drew and some frame was decoded.
struct MobileWork {
  std::uint64_t fading_advances = 0;
  std::int64_t decodes = 0;
};

/// A mobility-heavy faded scene: 16 static radios on channels 1/6/11
/// over a 440 m square, about a quarter asleep; an injector rig walking
/// a waypoint loop and hopping channel every 25 ms step; a bystander
/// teleported every 17 steps; a sleep flip at step 60. Frame errors,
/// shadowing and propagation delay stay on, and the fading is heavily
/// correlated and fast (~6 coherence intervals per step), so the
/// walker's links cross many bridge nodes and several block restarts.
/// Every run checks the FER-draw identity and the coherence audit.
EngineFingerprint run_faded_mobile_scenario(std::uint64_t scenario_seed,
                                            bool oracle,
                                            MobileWork* work = nullptr) {
  MetricsWindow window;
  sim::MediumConfig mc;
  mc.fading_rho = 0.9;
  mc.fading_sigma_db = 2.0;
  mc.fading_coherence_us = 4000.0;
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
  const sim::Medium::Stats& stats = sim.medium().stats();
#if PW_OBS_ON
  // Every PHY FER evaluation is one end of a memo miss's bracket or an
  // exact fallback (read before the audit, which re-evaluates lines).
  EXPECT_EQ(obs::Registry::counter_value(obs::Counter::kPhyFerDraws),
            std::int64_t(2 * stats.fer_cache_misses +
                          stats.fer_exact_fallbacks))
      << "oracle=" << oracle;
  if (work != nullptr) {
    work->decodes = obs::Registry::counter_value(obs::Counter::kFramesDecodes);
  }
#endif
  sim.medium().audit_coherence();
  if (work != nullptr) work->fading_advances = stats.fading_advances;
  return fingerprint_of(sim, recorder);
}

class FadedMobileEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

// Production serves the hopping walker's fades from fading-state lines
// and decides frame loss from memoized FER brackets, past sleepers and a
// teleported bystander; the oracle keeps no memo at all. Station
// counters, energy doubles, receptions, delivery events and sniffer
// bytes must still match, because the fade is a pure function of (link,
// coherence interval).
TEST_P(FadedMobileEquivalence, ProductionMatchesTheOracle) {
  MobileWork work;
  const EngineFingerprint production =
      run_faded_mobile_scenario(GetParam(), /*oracle=*/false, &work);
  ASSERT_FALSE(production.trace.empty());
  EXPECT_GT(work.fading_advances, 0u)
      << "the fading process never drew a sample; the property is vacuous";
#if PW_OBS_ON
  EXPECT_GT(work.decodes, 0) << "nothing was ever decoded";
#endif
  EXPECT_EQ(run_faded_mobile_scenario(GetParam(), /*oracle=*/true),
            production);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, FadedMobileEquivalence,
                         ::testing::Values(1, 2, 3));

}  // namespace
