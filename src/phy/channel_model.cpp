#include "phy/channel_model.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "phy/propagation.h"

namespace politewifi::phy {

namespace {

/// Salt separating the fading node stream from the shadowing stream:
/// both hash the same pair key and seed, and the shadowing draw
/// consumes counters k and k + 1, so the fading stream must live in an
/// unrelated region of counter space.
constexpr std::uint64_t kFadingSalt = 0x8f1d2ab04c96e35dULL;

/// Salt of the block-endpoint stream. The virtual endpoint of the block
/// starting at r sits at interval r + kBlockIntervals, whose node-stream
/// counter is the next block's restart draw; reusing it would couple the
/// blocks, so the endpoint draws from its own stream at counter r.
constexpr std::uint64_t kEndpointSalt = 0x3c6ef372fe94f82bULL;

/// Counter stride between successive intervals. Odd and avalanche-
/// friendly (the splitmix golden-ratio increment), so n -> base + n *
/// stride spreads the intervals of one link across counter space.
constexpr std::uint64_t kCounterStride = 0x9e3779b97f4a7c15ULL;

/// Salt of a node's ziggurat sub-stream: the words after a node's first
/// (wedge uniforms, retries, tail uniforms) are splitmix(splitmix(k ^
/// salt) + n), so they never land on another node's counter.
constexpr std::uint64_t kZigguratSalt = 0xd1b54a32d192ed03ULL;

/// The 128-layer Marsaglia–Tsang normal ziggurat for the unnormalised
/// density f(x) = exp(-x^2 / 2): layer 0 is the base strip [0, x_0] x
/// [0, f(R)] whose part beyond R stands for the tail, layer i >= 1 the
/// box [0, x_i] x [f(x_i), f(x_(i+1))]. Every layer has area V.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct Ziggurat {
  /// Right edges x_i, from the closed forms x_0 = V / f(R), x_1 = R,
  /// x_(i+1) = sqrt(-2 ln(V / x_i + f(x_i))), and x_128 = 0.
  double x[kZigLayers + 1];
  /// x_(i+1) / x_i: a signed uniform u with |u| below it puts u * x_i
  /// under the curve, so the draw is accepted outright.
  double ratio[kZigLayers];
  /// f(x_i), with f(x_128) = 1; f[0] is unused (layer 0 has no wedge).
  double f[kZigLayers + 1];

  Ziggurat() {
    const auto density = [](double v) { return std::exp(-0.5 * v * v); };
    x[0] = kZigV / density(kZigR);
    x[1] = kZigR;
    for (int i = 1; i + 1 < kZigLayers; ++i) {
      x[i + 1] = std::sqrt(-2.0 * std::log(kZigV / x[i] + density(x[i])));
    }
    x[kZigLayers] = 0.0;
    for (int i = 0; i < kZigLayers; ++i) ratio[i] = x[i + 1] / x[i];
    for (int i = 0; i < kZigLayers; ++i) f[i] = density(x[i]);
    f[kZigLayers] = 1.0;
  }
};

/// The tables, built on the first draw: a process that never fades
/// (a campaign driver, an unfaded run) never evaluates them.
const Ziggurat& ziggurat() {
  static const Ziggurat tables;
  return tables;
}

/// Uniform in [0, 1) from a word's top 53 bits.
double unit_uniform(std::uint64_t w) { return double(w >> 11) * 0x1p-53; }

/// Uniform in (0, 1) from a word's top 53 bits (safe under log).
double open_uniform(std::uint64_t w) {
  return (double(w >> 11) + 0.5) * 0x1p-53;
}

}  // namespace

std::uint64_t ChannelModel::splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t ChannelModel::pair_key(std::uint64_t a, std::uint64_t b) {
  if (a > b) std::swap(a, b);
  return splitmix(a * 0x100000001b3ULL + b);
}

ChannelModel::ChannelModel(ChannelParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  PW_CHECK(params_.fading.rho >= 0.0 && params_.fading.rho < 1.0,
           "fading rho must be in [0, 1)");
  PW_CHECK(params_.fading.sigma_db >= 0.0,
           "fading sigma must be non-negative");
  PW_CHECK(!fading_enabled() || params_.fading.coherence_ns > 0,
           "fading needs a positive coherence interval");
  if (!fading_enabled()) return;
  // 1 - rho^2h through expm1: for rho near 1 the direct subtraction
  // loses digits to cancellation.
  const double sigma = params_.fading.sigma_db;
  const double log_rho = std::log(params_.fading.rho);
  for (unsigned k = 0; k < kBridgeLevels; ++k) {
    const double h = double(std::uint64_t{1} << k);
    const double one_minus = -std::expm1(2.0 * h * log_rho);  // 1 - rho^2h
    const double one_plus = 2.0 - one_minus;                  // 1 + rho^2h
    bridge_mean_[k] = std::exp(h * log_rho) / one_plus;
    bridge_scale_db_[k] = sigma * std::sqrt(one_minus / one_plus);
  }
  const double b = double(kBlockIntervals);
  endpoint_mean_ = std::exp(b * log_rho);
  endpoint_scale_db_ = sigma * std::sqrt(-std::expm1(2.0 * b * log_rho));
}

double ChannelModel::reference_loss_db(double frequency_hz) const {
  for (const RefLossMemo& m : ref_loss_memo_) {
    if (m.freq_hz == frequency_hz && m.freq_hz != 0.0) return m.ref_loss_db;
  }
  // Computed with the model itself, so the memoized value is the exact
  // double a per-call LogDistancePathLoss construction would produce.
  const LogDistancePathLoss model(
      {.exponent = params_.path_loss_exponent,
       .reference_m = 1.0,
       .shadowing_sigma_db = 0.0},
      frequency_hz);
  const double ref = model.reference_loss_db();
  ref_loss_memo_[ref_loss_memo_next_++ & 7] = RefLossMemo{frequency_hz, ref};
  return ref;
}

double ChannelModel::shadowing_db(std::uint64_t id_a,
                                  std::uint64_t id_b) const {
  if (params_.shadowing_sigma_db <= 0.0) return 0.0;
  // Box-Muller on two deterministic uniforms from the pair key.
  const std::uint64_t k = pair_key(id_a, id_b) ^ seed_;
  const double u1 = open_uniform(splitmix(k));
  const double u2 = open_uniform(splitmix(k + 1));
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return z * params_.shadowing_sigma_db;
}

double ChannelModel::static_gain_db(double frequency_hz, double distance_m,
                                    std::uint64_t tx_id,
                                    std::uint64_t rx_id) const {
  const double ref = reference_loss_db(frequency_hz);
  const double d = std::max(distance_m, 0.1);
  const double loss =
      ref + 10.0 * params_.path_loss_exponent * std::log10(d / 1.0);
  return -std::max(loss, 0.0) + shadowing_db(tx_id, rx_id);
}

double ChannelModel::gaussian(std::uint64_t k, std::uint64_t* attempts_out) {
  const Ziggurat& z = ziggurat();
  std::uint64_t sub = 0;  // the sub-stream key, derived on first use
  std::uint64_t n = 0;
  const auto next_word = [&] {
    if (n == 0) sub = splitmix(k ^ kZigguratSalt);
    return splitmix(sub + ++n);
  };
  // The first attempt reads one word: the low 7 bits pick the layer, the
  // top 53 are a signed uniform in [-1, 1).
  std::uint64_t w = splitmix(k);
  for (std::uint64_t attempt = 1;; ++attempt) {
    const auto accept = [&](double value) {
      if (attempts_out != nullptr) *attempts_out += attempt;
      return value;
    };
    const unsigned i = unsigned(w) & (kZigLayers - 1);
    const double u = double(std::int64_t(w) >> 11) * 0x1p-52;
    const double x = u * z.x[i];
    if (std::abs(u) < z.ratio[i]) return accept(x);
    if (i == 0) {
      // The tail beyond R, by Marsaglia's exponential method.
      double t;
      double y;
      do {
        t = -std::log(open_uniform(next_word())) / kZigR;
        y = -std::log(open_uniform(next_word()));
      } while (y + y < t * t);
      return accept(u < 0.0 ? -(kZigR + t) : kZigR + t);
    }
    // The wedge: a uniform height within the layer against the curve.
    const double h =
        z.f[i] + unit_uniform(next_word()) * (z.f[i + 1] - z.f[i]);
    if (h < std::exp(-0.5 * x * x)) return accept(x);
    w = next_word();  // rejected: retry with a fresh (layer, u) word
  }
}

std::uint64_t ChannelModel::fading_counter(std::uint64_t link_key,
                                           std::uint64_t interval) const {
  return splitmix(link_key ^ seed_ ^ kFadingSalt) + interval * kCounterStride;
}

void ChannelModel::start_block(FadingState& state, std::uint64_t link_key,
                               std::uint64_t restart) const {
  const double x0 =
      params_.fading.sigma_db * gaussian(fading_counter(link_key, restart));
  const double end =
      endpoint_mean_ * x0 +
      endpoint_scale_db_ * gaussian(splitmix(link_key ^ seed_ ^ kEndpointSalt) +
                                    restart * kCounterStride);
  state.interval = restart;
  state.value_db = x0;
  state.spine_db[kBridgeLevels] = end;
  state.valid = true;
}

std::uint64_t ChannelModel::walk_forward(FadingState& state,
                                         std::uint64_t link_key,
                                         std::uint64_t j) const {
  const std::uint64_t i = state.interval % kBlockIntervals;
  const std::uint64_t restart = state.interval - i;
  PW_DCHECK(i < j && j < kBlockIntervals, "bridge walks only forward");
  state.interval = restart + j;
  // The spine's nodes split (i, kBlockIntervals] into dyadic brackets;
  // find the one holding j. d is the highest bit where i and j differ
  // (j has it set): below the lowest spine level, j sits in the level-t
  // bracket [i, i + 2^t]; otherwise it sits in the level-d bracket
  // between spine nodes d and d + 1, unless it is node d itself.
  const unsigned t = spine_low_level(i);
  const unsigned d = unsigned(std::bit_width(i ^ j)) - 1;
  std::uint64_t lo;
  unsigned level;
  double left;
  double right;
  if (d < t) {
    lo = i;
    level = t;
    left = state.value_db;
    right = state.spine_db[t];
  } else {
    lo = (j >> d) << d;
    if (lo == j) {  // a cached spine node: no draw
      state.value_db = state.spine_db[d];
      state.spine_db[d] = state.spine_db[d + 1];
      return 0;
    }
    level = d;
    left = state.spine_db[d];
    right = state.spine_db[d + 1];
  }
  // Descend: draw each bracket's midpoint from its bridge conditional
  // until j is the midpoint. Every bracket's right end is j's spine
  // node at that level.
  const std::uint64_t base = fading_counter(link_key, 0);
  std::uint64_t draws = 0;
  for (;;) {
    state.spine_db[level] = right;
    --level;
    const std::uint64_t mid = lo + (std::uint64_t{1} << level);
    const double z = gaussian(base + (restart + mid) * kCounterStride);
    const double x =
        bridge_mean_[level] * (left + right) + bridge_scale_db_[level] * z;
    ++draws;
    if (mid == j) {
      state.spine_db[level] = right;
      state.value_db = x;
      return draws;
    }
    if (j < mid) {
      right = x;
    } else {
      left = x;
      lo = mid;
    }
  }
}

double ChannelModel::advance(FadingState& state, std::uint64_t link_key,
                             std::uint64_t interval,
                             std::uint64_t* steps_out) const {
  if (!fading_enabled()) return 0.0;
  if (state.valid && state.interval == interval) return state.value_db;
  const std::uint64_t j = interval % kBlockIntervals;
  const std::uint64_t restart = interval - j;
  std::uint64_t draws = 0;
  if (!state.valid || state.interval > interval || state.interval < restart) {
    start_block(state, link_key, restart);
    draws = 2;
  }
  if (state.interval != interval) draws += walk_forward(state, link_key, j);
  if (steps_out != nullptr) *steps_out += draws;
  return state.value_db;
}

double ChannelModel::node_db(std::uint64_t link_key, std::uint64_t restart,
                             std::uint64_t m) const {
  PW_CHECK(restart % kBlockIntervals == 0 && m <= kBlockIntervals,
           "bridge node %llu of a block at %llu is out of range",
           static_cast<unsigned long long>(m),
           static_cast<unsigned long long>(restart));
  if (!fading_enabled()) return 0.0;
  FadingState cold;
  start_block(cold, link_key, restart);
  if (m == kBlockIntervals) return cold.spine_db[kBridgeLevels];
  if (m > 0) walk_forward(cold, link_key, m);
  return cold.value_db;
}

}  // namespace politewifi::phy
