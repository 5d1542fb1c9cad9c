// The pluggable channel model: static geometry + dynamic fading.
//
// Decomposes a link budget into two terms with very different lifetimes:
//
//  * a **static geometry term** — log-distance path loss plus a
//    deterministic per-link lognormal shadowing draw. A pure function of
//    (frequency, distance, link identity), so every cache layer above
//    (the medium's link cache and its SoA fan-out lanes) may memoize it
//    for as long as the geometry holds.
//
//  * a **dynamic fading term** — a stationary AR(1) process in dB,
//    Cov(x_i, x_j) = sigma^2 * rho^|i - j|, one value per coherence
//    interval of sim time, restarted independently every
//    kBlockIntervals intervals. Each block is sampled as an exact
//    dyadic Gaussian bridge: the block start x_0 = sigma * z and a
//    virtual endpoint x_B are drawn first, then every interior node is
//    drawn from its closed-form Gaussian conditional given the two
//    nodes bracketing it. The standard normals come from counter-based
//    RNG streams keyed by (link, seed, interval), each sampled by a
//    128-layer ziggurat (the shadowing draw keeps Box–Muller), so x_n is
//    a *pure function* of (link key, interval): any evaluation order
//    or cache state replays the identical value bit for bit, and a cold
//    evaluation draws at most 2 + log2(kBlockIntervals) normals.
//    Incremental state (FadingState) is only ever a cache of that
//    function.
//
// `fading.rho = 0` disables the dynamic term entirely; the model then
// degenerates to today's memoryless channel and every byte downstream
// is unchanged (ChannelEquivalence property-tests this).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

namespace politewifi::phy {

/// AR(1) fading parameters. Disabled (memoryless channel) unless
/// rho > 0 and sigma_db > 0.
struct FadingParams {
  /// One-interval autocorrelation of the dB fading process, in [0, 1).
  /// 0 = no dynamic term at all (the legacy memoryless channel).
  double rho = 0.0;
  /// Stationary standard deviation of the fading term in dB.
  double sigma_db = 0.0;
  /// Coherence interval: sim-time nanoseconds between successive AR(1)
  /// samples. The fade is constant within an interval.
  std::int64_t coherence_ns = 1'000'000;  // 1 ms
};

struct ChannelParams {
  double path_loss_exponent = 3.0;
  /// Per-link lognormal shadowing spread (dB); drawn once per link.
  double shadowing_sigma_db = 4.0;
  FadingParams fading;
};

class ChannelModel {
 public:
  /// Intervals per stationary-restart block: at every multiple of this
  /// the process redraws from its stationary distribution, and each
  /// block is one dyadic bridge, bounding a cold evaluation to at most
  /// 2 + log2(kBlockIntervals) draws. Within a block the
  /// autocorrelation at lag k is exactly rho^k (across a boundary it
  /// drops to 0 — a 1/kBlockIntervals-weight bias the moments test
  /// budgets for).
  static constexpr std::uint64_t kBlockIntervals = 256;
  /// Bridge levels: node m of a block (m in [0, kBlockIntervals]) sits
  /// at level ctz(m) and is drawn given nodes m -/+ 2^ctz(m).
  static constexpr unsigned kBridgeLevels =
      std::countr_zero(kBlockIntervals);

  /// Incremental fading state for one link: the last interval it was
  /// evaluated at, the value there, and its right spine — for the
  /// block-local index j = interval mod kBlockIntervals and every level
  /// k in [spine_low_level(j), kBridgeLevels], spine_db[k] holds node
  /// spine_node(j, k), the nearest level-k bracket end above j.
  /// Consecutive spine nodes bracket every later interval of the block,
  /// so a forward move draws only the nodes below the smallest cached
  /// bracket. Purely a cache — every node it holds is the exact double
  /// a cold evaluation draws — so state may be discarded (cache
  /// collision, cache growth) at any time without changing any
  /// returned value.
  struct FadingState {
    std::uint64_t interval = 0;
    double value_db = 0.0;
    double spine_db[kBridgeLevels + 1] = {};
    bool valid = false;
  };

  /// Lowest spine level a state at block-local index j holds: ctz(j),
  /// with ctz(0) = kBridgeLevels.
  static constexpr unsigned spine_low_level(std::uint64_t j) {
    return std::min<unsigned>(std::countr_zero(j), kBridgeLevels);
  }
  /// The node a state at block-local index j caches at spine level k:
  /// the smallest multiple of 2^k above j.
  static constexpr std::uint64_t spine_node(std::uint64_t j, unsigned k) {
    return ((j >> k) + 1) << k;
  }

  ChannelModel(ChannelParams params, std::uint64_t seed);

  const ChannelParams& params() const { return params_; }

  // --- Static geometry term ------------------------------------------------

  /// Friis reference loss at 1 m for `frequency_hz`, memoized per
  /// frequency (a fleet tunes a handful of channels). Evaluates exactly
  /// LogDistancePathLoss::reference_loss_db, so memoized and fresh
  /// values are bit-identical.
  double reference_loss_db(double frequency_hz) const;

  /// Deterministic per-link shadowing in dB: Box–Muller on two uniforms
  /// derived from the (order-independent) pair key and the seed.
  double shadowing_db(std::uint64_t id_a, std::uint64_t id_b) const;

  /// The full static gain (dB, <= 0 path loss plus shadowing):
  /// rx_dbm = tx_dbm + static_gain_db. Expression and evaluation order
  /// match LogDistancePathLoss::loss_db exactly (reference_m = 1.0,
  /// distance floored at 0.1 m), so this is bit-identical to the
  /// pre-refactor Medium::raw_link_gain_db.
  double static_gain_db(double frequency_hz, double distance_m,
                        std::uint64_t tx_id, std::uint64_t rx_id) const;

  // --- Dynamic fading term -------------------------------------------------

  bool fading_enabled() const {
    return params_.fading.rho > 0.0 && params_.fading.sigma_db > 0.0;
  }

  /// Coherence interval containing sim-time offset `elapsed_ns`.
  std::uint64_t interval_at(std::int64_t elapsed_ns) const {
    return static_cast<std::uint64_t>(elapsed_ns) /
           static_cast<std::uint64_t>(params_.fading.coherence_ns);
  }

  /// Moves `state` (for the link identified by `link_key` — use
  /// pair_key for reciprocal fading) to `interval` and returns the
  /// fading value there in dB. `steps_out`, when non-null, is
  /// incremented by the number of Gaussian draws (bridge nodes and
  /// block endpoints) actually made: 0 means the state already held
  /// this interval or had it cached as a spine node (a pure cache hit).
  /// A forward move within the block draws only the nodes below the
  /// smallest cached bracket; an invalid, earlier-block or rewound
  /// state evaluates cold (at most 2 + log2(kBlockIntervals) draws). The
  /// result never depends on what the state held before the call.
  double advance(FadingState& state, std::uint64_t link_key,
                 std::uint64_t interval,
                 std::uint64_t* steps_out = nullptr) const;

  /// Bridge node `m` in [0, kBlockIntervals] of the block starting at
  /// interval `restart` (a multiple of kBlockIntervals), evaluated from
  /// scratch: node m < kBlockIntervals is the fade at interval
  /// restart + m; node kBlockIntervals is the block's virtual endpoint
  /// (never a fade — the next block restarts independently). The one
  /// pure definition every cache of the fading term is checked against.
  double node_db(std::uint64_t link_key, std::uint64_t restart,
                 std::uint64_t m) const;

  /// The pure function: fading at (link_key, interval) from scratch.
  double fading_db(std::uint64_t link_key, std::uint64_t interval) const {
    const std::uint64_t j = interval % kBlockIntervals;
    return node_db(link_key, interval - j, j);
  }

  /// The counter whose standard normal the node at `interval` of
  /// `link_key`'s fading stream is drawn from: a block start is
  /// sigma * gaussian(fading_counter(link_key, restart)).
  std::uint64_t fading_counter(std::uint64_t link_key,
                               std::uint64_t interval) const;

  /// Standard-normal draw from counter `k` by the 128-layer
  /// Marsaglia–Tsang ziggurat (R = 3.442619855899, V =
  /// 9.91256303526217e-3). The first attempt reads the one word
  /// splitmix(k); wedge tests, retries and the tail beyond R read the
  /// salted sub-stream splitmix(splitmix(k ^ salt) + n), n = 1, 2, …, so
  /// the draw is a pure function of k and no two counters share a word.
  /// `attempts_out`, when non-null, is incremented by the (layer,
  /// uniform) words tried: 1 unless a wedge test rejected.
  static double gaussian(std::uint64_t k,
                         std::uint64_t* attempts_out = nullptr);

  // --- Shared deterministic hashing ----------------------------------------

  static std::uint64_t splitmix(std::uint64_t x);
  /// Order-independent pair key (reciprocal links share one stream).
  static std::uint64_t pair_key(std::uint64_t a, std::uint64_t b);

 private:
  /// Resets `state` to the block starting at `restart`: draws the block
  /// start x_0 and the virtual endpoint x_B (2 draws).
  void start_block(FadingState& state, std::uint64_t link_key,
                   std::uint64_t restart) const;
  /// Moves a valid `state` forward within its block to block-local
  /// index `j`, descending from the smallest cached bracket that holds
  /// it. Returns the number of nodes drawn.
  std::uint64_t walk_forward(FadingState& state, std::uint64_t link_key,
                             std::uint64_t j) const;

  ChannelParams params_;
  std::uint64_t seed_;
  /// Bridge coefficients per level k (half-width h = 2^k): a node is
  /// bridge_mean_[k] * (left + right) + bridge_scale_db_[k] * z, with
  /// a_h = rho^h / (1 + rho^2h), s_h = sigma * sqrt((1 - rho^2h) /
  /// (1 + rho^2h)).
  double bridge_mean_[kBridgeLevels] = {};
  double bridge_scale_db_[kBridgeLevels] = {};
  /// Virtual endpoint x_B = endpoint_mean_ * x_0 + endpoint_scale_db_ * z'
  /// with B = kBlockIntervals: rho^B and sigma * sqrt(1 - rho^2B).
  double endpoint_mean_ = 0.0;
  double endpoint_scale_db_ = 0.0;
  /// Tiny frequency -> reference-loss memo (see reference_loss_db).
  struct RefLossMemo {
    double freq_hz = 0.0;
    double ref_loss_db = 0.0;
  };
  mutable RefLossMemo ref_loss_memo_[8];
  mutable unsigned ref_loss_memo_next_ = 0;
};

}  // namespace politewifi::phy
