#include "sim/medium.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/annotations.h"
#include "common/check.h"
#include "frames/serializer.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "phy/rates.h"
#include "sim/radio.h"

namespace politewifi::sim {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent pair key.
std::uint64_t pair_key(std::uint64_t a, std::uint64_t b) {
  if (a > b) std::swap(a, b);
  return splitmix(a * 0x100000001b3ULL + b);
}

/// Hard bound on |z| from the Box–Muller draw in link_shadowing_db: the
/// uniform u1 is at least 2^-54, so sqrt(-2 ln u1) <= sqrt(108 ln 2)
/// ~= 8.6524 and |cos| <= 1. Any radio farther than the range this bound
/// implies is provably below detect_threshold_dbm — skipping it cannot
/// change the reception set.
constexpr double kShadowingBoundSigmas = 8.6524;

/// EIRP ceiling used only to size grid cells (regulatory-max-ish). The
/// per-transmission query radius uses the frame's actual power.
constexpr double kCellSizingTxPowerDbm = 30.0;

constexpr double kMinCellSizeM = 25.0;
constexpr double kMaxCellSizeM = 4096.0;

/// Link-cache sizing: ~this many cache lines per attached
/// radio (a beaconing AP touches every same-channel radio in range, so
/// the live working set scales with the population), clamped so a
/// hello-world sim doesn't pay megabytes and a city doesn't grow without
/// bound. 2^21 lines * 24 B = 48 MB worst case.
constexpr std::size_t kLinkCacheLinesPerRadio = 256;
constexpr std::size_t kLinkCacheMinLines = 1u << 12;
constexpr std::size_t kLinkCacheMaxLines = 1u << 21;

std::uint64_t chan_key_of(const Radio& r) {
  return (static_cast<std::uint64_t>(r.config().band) << 32) |
         static_cast<std::uint32_t>(r.config().channel);
}

/// The FER at SINR cell boundary `cell` / kFerCellsPerDb (exact: `cell`
/// is an integer): what a FER memo miss fills each end of its bracket
/// with, and what the coherence auditor re-derives the ends from.
double fer_cell_end(const phy::PhyRate& rate, double cell,
                    std::size_t octets) {
  return phy::frame_error_rate(rate, cell / phy::kFerCellsPerDb, octets);  // pw-lint: allow(scalar-fer-in-fanout)
}

}  // namespace

Medium::Medium(Scheduler& scheduler, MediumConfig config, std::uint64_t seed)
    : scheduler_(scheduler),
      config_(config),
      rng_(seed),
      seed_(seed),
      channel_(
          phy::ChannelParams{
              .path_loss_exponent = config.path_loss_exponent,
              .shadowing_sigma_db = config.shadowing_sigma_db,
              .fading = {.rho = config.fading_rho,
                         .sigma_db = config.fading_sigma_db,
                         .coherence_ns = static_cast<std::int64_t>(
                             config.fading_coherence_us * 1000.0)}},
          seed) {
  PW_CHECK(config_.shards >= 1 && config_.shards <= 256,
           "MediumConfig::shards out of range");
  PW_CHECK(config_.shard_cell_m > 0.0, "shard_cell_m must be positive");
  // Shard lattice factorization: the most-square nx x ny with
  // nx * ny == shards (2 -> 1x2, 4 -> 2x2, 9 -> 3x3). Until the owner
  // wires per-shard schedulers, everything homes on the primary.
  std::uint32_t nx =
      static_cast<std::uint32_t>(std::sqrt(double(config_.shards)));
  while (config_.shards % nx != 0) --nx;
  shard_nx_ = nx;
  shard_ny_ = static_cast<std::uint32_t>(config_.shards) / nx;
  shard_schedulers_.assign(1, &scheduler_);
  memos_.resize(static_cast<std::size_t>(config_.shards));
  timeline_group_ = obs::allocate_timeline_group();
  // Cell edge = detection range at the EIRP ceiling on 2.4 GHz (the band
  // with the smaller reference loss, i.e. the longer reach), so one ring
  // of neighbour cells always covers a real frame's detection disc.
  const double f24 = phy::channel_frequency_hz(phy::Band::k2_4GHz, 6);
  const double r = max_detect_range_m(kCellSizingTxPowerDbm, f24);
  cell_size_m_ = std::clamp(r > 0.0 ? r : kMinCellSizeM, kMinCellSizeM,
                            kMaxCellSizeM);
  // The noise floor is a constant of the config; computing it here (with
  // the same expressions the per-reception path used to run) keeps every
  // downstream SINR bit-identical while removing two libm calls per
  // reception.
  noise_mw_ = dbm_to_mw(thermal_noise_dbm(phy::kChannelBandwidthHz) +
                        config_.noise_figure_db);
  noise_floor_dbm_ = mw_to_dbm(noise_mw_);
}

double Medium::max_detect_range_m(double tx_power_dbm,
                                  double frequency_hz) const {
  for (const RangeMemo& m : range_memo_) {
    if (m.power_dbm == tx_power_dbm && m.freq_hz == frequency_hz) {
      return m.range_m;
    }
  }
  const phy::LogDistancePathLoss model(
      {.exponent = config_.path_loss_exponent,
       .reference_m = 1.0,
       .shadowing_sigma_db = 0.0},
      frequency_hz);
  const double shadow_bound_db =
      config_.shadowing_sigma_db > 0.0
          ? kShadowingBoundSigmas * config_.shadowing_sigma_db
          : 0.0;
  const double headroom_db = tx_power_dbm + shadow_bound_db -
                             config_.detect_threshold_dbm -
                             model.reference_loss_db();
  const double d =
      std::pow(10.0, headroom_db / (10.0 * config_.path_loss_exponent));
  // loss_db floors the distance at 0.1 m; below that the frame is
  // undetectable even with zero separation.
  const double range = d < 0.1 ? 0.0 : d;
  range_memo_[range_memo_next_++ & 7] =
      RangeMemo{tx_power_dbm, frequency_hz, range};
  return range;
}

std::int32_t Medium::cell_coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_size_m_));
}

std::uint64_t Medium::cell_key_for(const Position& p) const {
  return (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(cell_coord(p.x)))
          << 32) |
         static_cast<std::uint32_t>(cell_coord(p.y));
}

void Medium::set_shard_schedulers(std::vector<Scheduler*> schedulers) {
  PW_CHECK(schedulers.size() == static_cast<std::size_t>(config_.shards),
           "need exactly one scheduler per shard");
  PW_CHECK(!schedulers.empty() && schedulers.front() == &scheduler_,
           "shard 0 must be the medium's primary scheduler");
  PW_CHECK(radios_.empty(), "set_shard_schedulers after radios attached");
  shard_schedulers_ = std::move(schedulers);
}

Scheduler& Medium::shard_scheduler(std::uint64_t shard) const {
  PW_CHECK(shard < shard_schedulers_.size(),
           "shard %llu out of range (did an event id lose its tag?)",
           static_cast<unsigned long long>(shard));
  return *shard_schedulers_[shard];
}

std::uint32_t Medium::shard_of(const Position& p) const {
  if (config_.shards <= 1) return 0;
  const auto lattice = [this](double v, std::uint32_t n) {
    const auto cell =
        static_cast<std::int64_t>(std::floor(v / config_.shard_cell_m));
    // floor-mod: negative coordinates wrap into [0, n).
    const std::int64_t m = cell % static_cast<std::int64_t>(n);
    return static_cast<std::uint32_t>(m < 0 ? m + n : m);
  };
  return lattice(p.x, shard_nx_) + shard_nx_ * lattice(p.y, shard_ny_);
}

void Medium::refresh_shard_horizon(Radio& radio, double speed_mps) const {
  const TimePoint now = scheduler_.now();
  if (config_.shards <= 1 || speed_mps <= 0.0) {
    radio.shard_check_after_ = now;
    return;
  }
  // Conservative cell-exit horizon: the radio cannot cross a super-cell
  // edge before covering the distance to the nearest one, and
  // on_radio_moved re-checks once the horizon passes.
  const auto edge_gap = [this](double v) {
    const double cell = config_.shard_cell_m;
    const double frac = v - std::floor(v / cell) * cell;
    return std::min(frac, cell - frac);
  };
  const double gap =
      std::min(edge_gap(radio.position().x), edge_gap(radio.position().y));
  radio.shard_check_after_ =
      now + nanoseconds(static_cast<std::int64_t>(gap / speed_mps * 1e9));
}

void Medium::maybe_migrate_shard(Radio& radio) {
  if (config_.shards <= 1) return;
  if (scheduler_.now() < radio.shard_check_after_) return;
  const std::uint32_t shard = shard_of(radio.position());
  if (shard == radio.shard_) return;
  radio.shard_ = shard;
  radio.scheduler_ = shard_schedulers_[shard];
  ++stats_.shard_handoffs;
  PW_COUNT(kShardHandoffs);
}

Scheduler& Medium::scheduler_for(const Radio& radio) const {
  return *radio.scheduler_;
}

void Medium::index_insert(Radio* radio) {
  radio->grid_chan_ = chan_key_of(*radio);
  radio->grid_cell_ = cell_key_for(radio->position());
  auto& cell = grid_[radio->grid_chan_][radio->grid_cell_];
  // Cells stay sorted by attach order, so fan-out can merge them instead
  // of sorting per transmission. Fresh attachments always land at the
  // end (attach order is monotonic); only a move/retune of an old radio
  // pays the binary search + mid-vector insert.
  if (cell.empty() || cell.back()->attach_order_ < radio->attach_order_) {
    cell.push_back(radio);
  } else {
    cell.insert(std::upper_bound(cell.begin(), cell.end(), radio,
                                 [](const Radio* a, const Radio* b) {
                                   return a->attach_order_ < b->attach_order_;
                                 }),
                radio);
  }
  radio->grid_indexed_ = true;
}

void Medium::index_remove(Radio* radio) {
  if (!radio->grid_indexed_) return;
  auto git = grid_.find(radio->grid_chan_);
  if (git != grid_.end()) {
    auto cit = git->second.find(radio->grid_cell_);
    if (cit != git->second.end()) {
      auto& cell = cit->second;
      if (auto it = std::find(cell.begin(), cell.end(), radio);
          it != cell.end()) {
        cell.erase(it);  // order-preserving: cells stay in attach order
      }
      if (cell.empty()) git->second.erase(cit);
    }
  }
  radio->grid_indexed_ = false;
}

void Medium::attach(Radio* radio) {
  radio->attach_order_ = next_attach_order_++;
  if (config_.shards > 1) {
    PW_CHECK(shard_schedulers_.size() ==
                 static_cast<std::size_t>(config_.shards),
             "attach before set_shard_schedulers on a sharded medium");
    radio->shard_ = shard_of(radio->position());
    radio->scheduler_ = shard_schedulers_[radio->shard_];
  }
  radios_.push_back(radio);
  PW_GAUGE_MAX(kMediumRadiosPeak, radios_.size());
  index_insert(radio);
  maybe_grow_link_cache();
  ++static_epoch_;
}

void Medium::detach(Radio* radio) {
  index_remove(radio);
  std::erase(radios_, radio);
  std::erase(volatile_radios_, radio);
  ++static_epoch_;
}

void Medium::mark_volatile(Radio& radio) {
  if (radio.volatile_) return;
  radio.volatile_ = true;
  volatile_radios_.insert(
      std::upper_bound(volatile_radios_.begin(), volatile_radios_.end(),
                       &radio,
                       [](const Radio* a, const Radio* b) {
                         return a->attach_order_ < b->attach_order_;
                       }),
      &radio);
  ++static_epoch_;
}

void Medium::on_radio_moved(Radio& radio) {
  mark_volatile(radio);
  maybe_migrate_shard(radio);
  if (!radio.grid_indexed_) return;
  const std::uint64_t cell = cell_key_for(radio.position());
  if (cell == radio.grid_cell_) return;
  index_remove(&radio);
  index_insert(&radio);
}

void Medium::on_radio_retuned(Radio& radio) {
  mark_volatile(radio);
  index_remove(&radio);
  index_insert(&radio);
}

double Medium::link_shadowing_db(const Radio& a, const Radio& b) const {
  return channel_.shadowing_db(a.id(), b.id());
}

void Medium::maybe_grow_link_cache() {
  if (oracle_) return;  // the oracle recomputes every lookup
  // Each shard's memo gets the full population-scaled capacity: the
  // growth trigger (and so the generation count) is identical across
  // shard counts, and a shard only ever probes its own lines.
  const std::size_t want = std::clamp(
      std::bit_ceil(radios_.size() * kLinkCacheLinesPerRadio),
      kLinkCacheMinLines, kLinkCacheMaxLines);
  if (want <= memos_.front().lines.size()) return;
  for (LinkMemo& memo : memos_) {
    memo.lines.assign(want, LinkBudget{});  // key 0 = empty line
    memo.mask = want - 1;
    memo.mru.assign(want / 2, 0);  // one MRU bit per 2-line set
    memo.fer_lines.assign(want, FerMemoEntry{});  // mbps NaN = empty
    memo.fer_mask = want - 1;
    if (channel_.fading_enabled()) {
      // Fading state is pair-keyed (reciprocal links share a line) and
      // a line holds a whole bridge spine (~100 B); an eighth of the
      // link-cache line count still covers the live fading links (the
      // scale-0.05 survey peaks at ~8k links in 16k lines).
      memo.fading_lines.assign(want / 8, FadingLine{});
      memo.fading_mask = want / 8 - 1;
    }
  }
  // Growth drops every link's cached fading spine (the values are pure
  // functions, so nothing observable changes — the next evaluation just
  // starts cold from its block's restart).
  fading_links_live_ = 0;
  // Growth drops the old contents; the generation gauge makes a cache
  // that keeps reallocating (and therefore keeps missing) visible.
  ++stats_.link_cache_generation;
  PW_GAUGE_MAX(kMediumLinkCacheGeneration, stats_.link_cache_generation);
}

bool Medium::frame_lost(const phy::PhyRate& rate, double sinr_db,
                        std::size_t octets, std::uint32_t shard) const {
  // The uniform std::bernoulli_distribution would compare the FER
  // against: one engine output per decision, in delivery order.
  const double u = rng_.canonical();
  const double cell = std::floor(sinr_db * phy::kFerCellsPerDb);
  LinkMemo& memo = memos_[shard];
  if (!memo.fer_lines.empty() && octets < (std::size_t{1} << 19) &&
      std::uint32_t(rate.bits_per_symbol) < (1u << 12) &&
      std::abs(cell) < 0x1p31) {
    const std::int32_t index = static_cast<std::int32_t>(cell);
    const std::uint32_t shape =
        (std::uint32_t(octets) << 13) |
        (std::uint32_t(rate.bits_per_symbol) << 1) |
        (rate.modulation == phy::Modulation::kDsss ? 1u : 0u);
    const std::uint64_t h =
        splitmix(((std::uint64_t(shape) << 32) | std::uint32_t(index)) ^
                 std::bit_cast<std::uint64_t>(rate.mbps));
    FerMemoEntry& e = memo.fer_lines[h & memo.fer_mask];
    if (e.cell == index && e.shape == shape && e.mbps == rate.mbps) {
      ++stats_.fer_cache_hits;
      PW_COUNT(kMediumFerCacheHits);
    } else {
      ++stats_.fer_cache_misses;
      PW_COUNT(kMediumFerCacheMisses);
      e = FerMemoEntry{fer_cell_end(rate, cell, octets),
                       fer_cell_end(rate, cell + 1.0, octets), rate.mbps,
                       index, shape};
    }
    if (u < e.fer_hi - phy::kFerBracketSlack) return true;
    if (u >= e.fer_lo + phy::kFerBracketSlack) return false;
  }
  ++stats_.fer_exact_fallbacks;
  PW_COUNT(kMediumFerExactFallbacks);
  // The exact fallback (and the oracle's every decision).
  return u < phy::frame_error_rate(rate, sinr_db, octets);  // pw-lint: allow(scalar-fer-in-fanout)
}

double Medium::raw_link_gain_db(const Radio& tx_radio,
                                const Radio& rx_radio) const {
  // The channel model inlines LogDistancePathLoss::loss_db
  // (reference_m = 1.0, no rng) with the reference-loss term memoized
  // per frequency: expression and evaluation order match the model
  // exactly, so this is bit-identical to constructing the model per
  // call — the coherence auditor and the LinkBudget contract test both
  // depend on that.
  return channel_.static_gain_db(
      tx_radio.frequency_hz(),
      distance(tx_radio.position(), rx_radio.position()),
      tx_radio.id(), rx_radio.id());
}

double Medium::link_fading_db(const Radio& a, const Radio& b,
                              std::uint64_t interval,
                              std::uint32_t shard) const {
  const std::uint64_t key = pair_key(a.id(), b.id());
  LinkMemo& memo = memos_[shard];
  phy::ChannelModel::FadingState scratch;
  phy::ChannelModel::FadingState* state = &scratch;
  if (!memo.fading_lines.empty()) {
    // Direct-mapped probe (the pair key is already a splitmix output).
    FadingLine& line = memo.fading_lines[key & memo.fading_mask];
    if (line.key != key) {
      if (line.key == 0) {
        // Cold fill, not a collision: one more link holds live state.
        ++fading_links_live_;
        if (fading_links_live_ > stats_.fading_links_peak) {
          stats_.fading_links_peak = fading_links_live_;
        }
        PW_GAUGE_MAX(kMediumFadingLinksPeak, fading_links_live_);
      }
      line.key = key;
      line.state = phy::ChannelModel::FadingState{};
    }
    state = &line.state;
  }
  std::uint64_t steps = 0;
  const double fade_db = channel_.advance(*state, key, interval, &steps);
  if (steps == 0) {
    ++stats_.fading_cache_hits;
    PW_COUNT(kMediumFadingCacheHits);
  } else {
    stats_.fading_advances += steps;
    PW_COUNT_N(kMediumFadingAdvances, steps);
  }
  return fade_db;
}

double Medium::link_gain_db(const Radio& tx_radio,
                            const Radio& rx_radio) const {
  // Directed key: the budget depends on the transmitter's frequency, so
  // (a->b) and (b->a) are distinct entries when the radios are tuned
  // differently. Ids are per-medium and sequential, so they fit 32 bits
  // for any simulation this side of the heat death.
  LinkMemo& memo = memos_[tx_radio.shard_];  // transmitter's shard memo
  const bool cacheable = !memo.lines.empty() &&
                         tx_radio.id() < (1ULL << 32) &&
                         rx_radio.id() < (1ULL << 32);
  const std::uint64_t key = (tx_radio.id() << 32) | rx_radio.id();
  LinkBudget* line = nullptr;
  std::uint8_t* mru = nullptr;
  std::uint8_t victim_way = 0;
  if (cacheable) {
    // 2-way set: lines 2s and 2s+1 of set s. Probe the MRU way first
    // (the likelier hit), then the other; a miss fills the LRU way, so
    // two live links sharing a set coexist instead of evicting each
    // other on every alternation.
    const std::size_t set = splitmix(key) & (memo.mask >> 1);
    mru = &memo.mru[set];
    for (int probe = 0; probe < 2; ++probe) {
      const std::uint8_t way = probe == 0 ? *mru : (*mru ^ 1u);
      LinkBudget* cand = &memo.lines[set * 2 + way];
      if (cand->key == key &&
          cand->tx_version == tx_radio.geometry_version_ &&
          cand->rx_version == rx_radio.geometry_version_) {
        *mru = way;
        ++stats_.link_cache_hits;
        PW_COUNT(kMediumLinkCacheHits);
        return cand->gain_db;
      }
    }
    victim_way = *mru ^ 1u;
    line = &memo.lines[set * 2 + victim_way];
  }
  ++stats_.link_cache_misses;
  PW_COUNT(kMediumLinkCacheMisses);
  const double gain = raw_link_gain_db(tx_radio, rx_radio);
  if (line != nullptr) {
    if (line->key != 0 && line->key != key) {
      // A different link owned this line: that's thrash, not cold fill.
      ++stats_.link_cache_evictions;
      PW_COUNT(kMediumLinkCacheEvictions);
    }
    *line = LinkBudget{key, tx_radio.geometry_version_,
                       rx_radio.geometry_version_, gain};
    *mru = victim_way;
  }
  return gain;
}

double Medium::rx_power_dbm(const Radio& tx_radio, double tx_power_dbm,
                            const Radio& rx_radio) const {
  return tx_power_dbm + link_gain_db(tx_radio, rx_radio);
}

void Medium::collect_candidates(const Radio& sender, double tx_power_dbm,
                                std::vector<Radio*>& out) const {
  const auto git = grid_.find(chan_key_of(sender));
  if (git == grid_.end()) return;
  const double r = max_detect_range_m(tx_power_dbm, sender.frequency_hz());
  if (r <= 0.0) return;
  const Position c = sender.position();
  const double r2 = r * r;
  const std::int32_t cx0 = cell_coord(c.x - r);
  const std::int32_t cx1 = cell_coord(c.x + r);
  const std::int32_t cy0 = cell_coord(c.y - r);
  const std::int32_t cy1 = cell_coord(c.y + r);
  // Distance from a coordinate to the nearest point of a cell's extent.
  const auto axis_gap = [this](double v, std::int32_t cell) {
    const double lo = cell * cell_size_m_;
    const double hi = lo + cell_size_m_;
    return v < lo ? lo - v : (v > hi ? v - hi : 0.0);
  };
  // Gather the (few) cells intersecting the detection disc. Each cell's
  // list is already sorted by attach order, so a k-way merge reproduces
  // the brute-force iteration order byte-identically without the
  // per-transmission sort that used to dominate fan-out at city scale.
  struct Run {
    Radio* const* it;
    Radio* const* end;
  };
  Run runs[16];
  std::size_t nruns = 0;
  std::vector<const std::vector<Radio*>*> overflow;
  const auto add_cell = [&](const std::vector<Radio*>& cell) {
    if (cell.empty()) return;
    if (nruns < std::size(runs)) {
      runs[nruns++] = Run{cell.data(), cell.data() + cell.size()};
    } else {
      overflow.push_back(&cell);  // >16 cells: huge radius corner
    }
  };
  const std::size_t disc_cells =
      std::size_t(cx1 - cx0 + 1) * std::size_t(cy1 - cy0 + 1);
  if (git->second.size() <= disc_cells) {
    // Fewer occupied cells than cells under the disc (the common case
    // with detection-range-sized cells): walk the map once instead of
    // probing the hash per disc cell.
    // pw-analyze: allow(unordered-iteration): only *collects* cells from
    // the hash map; receivers are then merged by attach order, and
    // audit_coherence re-proves byte-identity with brute force.
    for (const auto& [key, cell] : git->second) {
      const auto cx = static_cast<std::int32_t>(key >> 32);
      const auto cy = static_cast<std::int32_t>(key);
      if (cx < cx0 || cx > cx1 || cy < cy0 || cy > cy1) continue;
      const double gx = axis_gap(c.x, cx);
      const double gy = axis_gap(c.y, cy);
      if (gx * gx + gy * gy > r2) continue;  // cell outside detection disc
      add_cell(cell);
    }
  } else {
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      const double gx = axis_gap(c.x, cx);
      for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
        const double gy = axis_gap(c.y, cy);
        if (gx * gx + gy * gy > r2) continue;
        const auto cit = git->second.find(
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx))
             << 32) |
            static_cast<std::uint32_t>(cy));
        if (cit == git->second.end()) continue;
        add_cell(cit->second);
      }
    }
  }
  if (!overflow.empty()) {
    // Rare fallback (tiny cells + enormous radius): concatenate and sort.
    for (std::size_t i = 0; i < nruns; ++i) {
      out.insert(out.end(), runs[i].it, runs[i].end);
    }
    for (const auto* cell : overflow) {
      out.insert(out.end(), cell->begin(), cell->end());
    }
    std::sort(out.begin(), out.end(), [](const Radio* a, const Radio* b) {
      return a->attach_order_ < b->attach_order_;
    });
    return;
  }
  if (nruns == 1) {
    out.insert(out.end(), runs[0].it, runs[0].end);
    return;
  }
  while (nruns > 0) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < nruns; ++i) {
      if ((*runs[i].it)->attach_order_ < (*runs[best].it)->attach_order_) {
        best = i;
      }
    }
    out.push_back(*runs[best].it);
    if (++runs[best].it == runs[best].end) runs[best] = runs[--nruns];
  }
}

void Medium::build_neighbor_list(Radio& sender, double tx_power_dbm) {
  std::vector<Radio*> candidates;
  std::swap(candidates, scratch_);
  candidates.clear();
  collect_candidates(sender, tx_power_dbm, candidates);
  sender.neighbors_.clear();
  for (Radio* rx : candidates) {
    if (rx == &sender || rx->volatile_) continue;
    const double gain = link_gain_db(sender, *rx);
    if (tx_power_dbm + gain < config_.detect_threshold_dbm) continue;
    sender.neighbors_.push_back(NeighborEntry{rx, gain, rx->attach_order_});
  }
  std::swap(candidates, scratch_);
  // SoA lanes: everything the fan-out and batch pass would recompute
  // per entry, evaluated once here with the exact expressions the
  // per-delivery path uses (the same gain sum, the same dbm_to_mw, the
  // same propagation-delay truncation), so a lane replay is
  // bit-identical to recomputing. Entries are static radios and the
  // list dies on any geometry change (epoch/version checks), so the
  // lanes cannot go stale without the list going stale with them.
  const std::size_t n = sender.neighbors_.size();
  sender.nb_rx_dbm_.resize(n);
  sender.nb_rx_mw_.resize(n);
  sender.nb_prop_ns_.resize(n);
  sender.nb_arrival_rank_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NeighborEntry& e = sender.neighbors_[i];
    const double rx_dbm = tx_power_dbm + e.gain_db;
    sender.nb_rx_dbm_[i] = rx_dbm;
    sender.nb_rx_mw_[i] = dbm_to_mw(rx_dbm);
    std::int64_t prop_ns = 0;
    if (config_.model_propagation_delay) {
      const double d =
          distance(sender.position(), e.radio->position());
      prop_ns = static_cast<std::int64_t>(d / kSpeedOfLight * 1e9);
    }
    sender.nb_prop_ns_[i] = prop_ns;
    sender.nb_arrival_rank_[i] = static_cast<std::uint32_t>(i);
  }
  // Arrival permutation: delivery events fire in (arrival time, push
  // order). rx_end = tx_end + prop, so sorting ranks by the delay lane
  // (stable: index breaks ties) precomputes the finalize order of any
  // full-list replay.
  std::stable_sort(sender.nb_arrival_rank_.begin(),
                   sender.nb_arrival_rank_.end(),
                   [&sender](std::uint32_t a, std::uint32_t b) {
                     return sender.nb_prop_ns_[a] < sender.nb_prop_ns_[b];
                   });
  sender.nb_epoch_ = static_epoch_;
  sender.nb_self_version_ = sender.geometry_version_;
  sender.nb_power_dbm_ = tx_power_dbm;
}

std::size_t Medium::acquire_record() {
  if (!free_records_.empty()) {
    const std::size_t idx = free_records_.back();
    free_records_.pop_back();
    return idx;
  }
  // pw-analyze: allow(hot-new): record-pool growth on a cold miss only;
  // steady state recycles through free_records_, witnessed by the
  // steady-state allocation test.
  records_.push_back(std::make_unique<TransmissionRecord>());
  return records_.size() - 1;
}

void Medium::release_record(std::size_t rec_idx) {
  TransmissionRecord& rec = *records_[rec_idx];
  rec.ppdu.reset();
  rec.sender = nullptr;
  rec.deliveries.clear();  // keeps capacity for the record's next life
  rec.order.clear();
  rec.next = 0;
  rec.live = false;
  rec.decoded = false;  // rec.decode keeps its Frame storage
  free_records_.push_back(rec_idx);
}

const frames::DeserializeResult& Medium::intact_decode(
    TransmissionRecord& rec) {
  if (!rec.decoded) {
    // The one parse the medium makes (pw_lint's per-receiver-decode).
    frames::deserialize_into(rec.ppdu.octets(), rec.decode);  // pw-lint: allow(per-receiver-decode)
    rec.decoded = true;
    return rec.decode;
  }
#if PW_AUDIT_ENABLED
  // Every delivery served from the cache must see exactly what decoding
  // the shared octets afresh would give it.
  const contract::AuditScope audit;
  const frames::DeserializeResult fresh =
      frames::audit_deserialize(rec.ppdu.octets());  // pw-lint: allow(per-receiver-decode)
  PW_CHECK(fresh == rec.decode,
           "cached decode of a %zu-octet PPDU differs from a fresh decode",
           rec.ppdu.size());
#endif
  return rec.decode;
}

void Medium::schedule_batch(std::size_t rec_idx, const Radio& sender,
                            std::size_t lane_pushes) {
  TransmissionRecord& rec = *records_[rec_idx];
  const std::size_t n = rec.deliveries.size();
  if (lane_pushes == n && !sender.volatile_ &&
      n == sender.neighbors_.size()) {
    // Pure lane replay: every delivery is neighbor i in list order, so
    // the arrival permutation was already computed when the lanes were
    // built. Copied, not referenced — the sender's list can be rebuilt
    // while this record is still in flight.
    rec.order.assign(sender.nb_arrival_rank_.begin(),
                     sender.nb_arrival_rank_.end());
  } else {
    // Mixed fan-out (volatile interleaves, sleepers, quieter frame, the
    // oracle's scan): a stable index sort, so ties keep fan-out order
    // (the scheduler is FIFO within a timestamp).
    rec.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      rec.order[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(rec.order.begin(), rec.order.end(),
                     [&rec](std::uint32_t a, std::uint32_t b) {
                       return rec.deliveries[a].rx_end <
                              rec.deliveries[b].rx_end;
                     });
  }
  // All group events are scheduled here, inside the transmit() call, so
  // their sequence numbers occupy one window per transmission.
  const auto arrival = [&rec](std::size_t k) -> const PendingDelivery& {
    return rec.deliveries[rec.order[k]];
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && arrival(i).rx_end == arrival(i - 1).rx_end) continue;
    ++stats_.delivery_events;
    PW_COUNT(kMediumDeliveryEvents);
    scheduler_for(sender).schedule_at(arrival(i).rx_end,
                                      [this, rec_idx] { run_batch(rec_idx); });
  }
}

void Medium::run_batch(std::size_t rec_idx) {
  // Reference through the unique_ptr: the record is address-stable even
  // if a nested transmit (a receiver ACKing from deliver()) grows
  // records_ mid-loop.
  TransmissionRecord& rec = *records_[rec_idx];
  PW_DCHECK(rec.live, "batch delivery fired on a released record");
  const TimePoint now = scheduler_.now();
  const std::size_t n = rec.deliveries.size();
  while (rec.next < n) {
    const std::size_t k = rec.order[rec.next];
    if (rec.deliveries[k].rx_end != now) break;
    const PendingDelivery d = rec.deliveries[k];
    ++rec.next;
    finalize_reception(rec, d);
  }
  if (rec.next == n) release_record(rec_idx);
}

void Medium::begin_reception(const Radio& sender, Radio* rx_radio,
                             double rx_dbm, TransmissionRecord& rec,
                             TimePoint start, TimePoint end, double rx_mw,
                             std::int64_t prop_ns) {
  // Finite-speed-of-light arrival: the PPDU occupies [start+d/c, end+d/c]
  // at this receiver. The lane-replay caller hands in the delay it
  // precomputed with this exact expression; everyone else computes it
  // here.
  Duration prop = Duration::zero();
  if (config_.model_propagation_delay) {
    if (prop_ns < 0) {
      const double d =
          distance(sender.position(), rx_radio->position());
      prop_ns = static_cast<std::int64_t>(d / kSpeedOfLight * 1e9);
    }
    prop = nanoseconds(prop_ns);
  }
  const TimePoint rx_start = start + prop;
  const TimePoint rx_end = end + prop;

  const std::uint64_t rid = next_reception_id_++;
  ++stats_.receptions;
  PW_COUNT(kMediumReceptions);
  const bool awake_at_start = !rx_radio->sleeping();
  auto& state = rx_radio->rx_state_;
  state.list.push_back(
      Reception{rid, rx_start, rx_end, rx_dbm,
                rx_mw >= 0.0 ? rx_mw : dbm_to_mw(rx_dbm), awake_at_start});
  // Amortized prune: sweep the list when it doubles, not on every push.
  if (state.list.size() >= state.prune_at) {
    prune(state.list);
    state.prune_at = std::max<std::size_t>(8, state.list.size() * 2);
  }

  // Energy: an awake radio is in RX while a detectable PPDU is on air.
  if (!rx_radio->sleeping() &&
      !rx_radio->transmitting_during(rx_start, rx_end)) {
    rx_radio->rx_nesting_++;
    rx_radio->energy().set_state(RadioState::kRx, rx_start);
  }

  // Queue the delivery on the transmission's record: no per-receiver
  // event, no per-receiver payload reference.
  rec.deliveries.push_back(PendingDelivery{rx_radio, rid, rx_start, rx_end,
                                           rx_dbm, awake_at_start});
}

PW_HOT void Medium::transmit(Radio& sender, std::span<const std::uint8_t> ppdu,
                             const phy::TxVector& tx) {
  frames::PpduRef pooled = ppdu_pool_.acquire();
  pooled.mutable_octets().assign(ppdu.begin(), ppdu.end());
  transmit(sender, std::move(pooled), tx);
}

PW_HOT void Medium::transmit(Radio& sender, frames::PpduRef ppdu,
                             const phy::TxVector& tx) {
  const TimePoint start = scheduler_.now();
  const Duration airtime = phy::ppdu_airtime(tx.rate, ppdu.size());
  const TimePoint end = start + airtime;

  ++stats_.transmissions;
  PW_COUNT(kMediumTransmissions);
#if PW_AUDIT_ENABLED
  // Audit builds spot-check one sender's cached fan-out per period, so a
  // coherence bug is caught near its cause without O(n^2) per frame.
  if (stats_.transmissions % kAuditPeriod == 0) audit_radio(sender);
#endif
  if (trace_) {
    trace_(TransmissionEvent{start, end, &sender, ppdu, tx});
  }

  // Charge the sender: TX state for the airtime, plus ramp overhead.
  sender.energy().set_state(RadioState::kTx, start);
  sender.energy().charge_tx_ramp();
  sender.tx_since_ = start;
  sender.tx_until_ = end;
  scheduler_for(sender).schedule_at(end, [&sender, end] {
    sender.energy().set_state(
        sender.sleeping() ? RadioState::kSleep : RadioState::kIdle, end);
  });

  // One shared buffer for every receiver of this PPDU, parked with the
  // delivery list on a pooled record; receivers only copy it on the
  // (rare) corruption path.
  const std::size_t rec_idx = acquire_record();
  TransmissionRecord& rec = *records_[rec_idx];
  rec.ppdu = std::move(ppdu);
  rec.tx = tx;
  rec.sender = &sender;
  rec.live = true;

  // Tracks whether any delivery of this PPDU lands on a radio homed on a
  // different shard (the "boundary mirror" case); counted once per
  // transmission after the fan-out.
  bool crossed = false;

  // Dynamic fading: evaluated once per transmission at the *transmit*
  // start's coherence interval (a pure function of sim time, so the
  // draw is schedule- and shard-independent), composed on top of the
  // cached static budget per receiver below. The fade only modulates
  // power within the statically-detectable set: a down-fade below the
  // detection threshold drops the reception, but an up-fade never
  // resurrects a link the static budget ruled out — that contract keeps
  // the spatial index's query radius exact with zero fading margin.
  const bool fading = channel_.fading_enabled();
  const std::uint64_t fading_interval =
      fading ? channel_.interval_at(start.time_since_epoch().count()) : 0;

  // Shared by every fan-out flavor: one volatile (recently moved/retuned)
  // radio, checked from scratch.
  const auto try_receiver = [&](Radio* rx_radio) {
    if (rx_radio == &sender) return;
    ++stats_.candidates_scanned;
    PW_COUNT(kMediumFanoutCandidates);
    // A dozing radio missed the preamble; it cannot receive this PPDU no
    // matter what. Skipping it here is both correct and the fast path
    // that lets the 5,000-device city stay cheap.
    if (rx_radio->sleeping()) return;
    if (rx_radio->config().band != sender.config().band ||
        rx_radio->config().channel != sender.config().channel) {
      return;
    }
    double rx_dbm = rx_power_dbm(sender, tx.power_dbm, *rx_radio);
    if (rx_dbm < config_.detect_threshold_dbm) return;
    if (fading) {
      rx_dbm +=
          link_fading_db(sender, *rx_radio, fading_interval, sender.shard_);
      if (rx_dbm < config_.detect_threshold_dbm) return;  // faded below
    }
    crossed |= rx_radio->shard_ != sender.shard_;
    begin_reception(sender, rx_radio, rx_dbm, rec, start, end);
  };

  // Deliveries pushed straight off the sender's SoA lanes (schedule_batch
  // reuses the precomputed arrival permutation when the whole fan-out was
  // a lane replay).
  std::size_t lane_pushes = 0;

  const auto fan_out = [&] {
    if (oracle_) {  // the reference scan: every radio, in attach order
      for (Radio* rx_radio : radios_) try_receiver(rx_radio);
      return;
    }

    if (sender.volatile_) {
      // A mover has no stable neighbor list; scan the grid candidates.
      // Borrow the scratch buffer (swap keeps this re-entrancy safe: a
      // nested transmit from a trace sink would just allocate its own).
      std::vector<Radio*> candidates;
      std::swap(candidates, scratch_);
      candidates.clear();
      collect_candidates(sender, tx.power_dbm, candidates);
      for (Radio* rx_radio : candidates) try_receiver(rx_radio);
      std::swap(candidates, scratch_);
      return;
    }

    // Static sender: replay the cached fan-out, interleaving the few
    // volatile radios at their attach positions so reception ids and
    // event order stay byte-identical to the brute-force scan.
    if (sender.nb_epoch_ != static_epoch_ ||
        sender.nb_self_version_ != sender.geometry_version_ ||
        tx.power_dbm > sender.nb_power_dbm_) {
      build_neighbor_list(sender, tx.power_dbm);
    }
    // Lane replay is valid only for the exact power the lanes were built
    // at: every lane double was computed from that power, and every list
    // entry already cleared the detection threshold there.
    const bool lane_replay = tx.power_dbm == sender.nb_power_dbm_;
    auto vit = volatile_radios_.begin();
    const auto vend = volatile_radios_.end();
    const std::size_t nbs = sender.neighbors_.size();
    for (std::size_t i = 0; i < nbs; ++i) {
      const NeighborEntry& e = sender.neighbors_[i];
      while (vit != vend && (*vit)->attach_order_ < e.order) {
        try_receiver(*vit++);
      }
      ++stats_.candidates_scanned;
      PW_COUNT(kMediumFanoutCandidates);
      if (e.radio->sleeping()) continue;
      if (lane_replay) {
        // Pure loads: precomputed rx power, linear power and propagation
        // delay. Counts as a link-cache hit — the per-transmitter lanes
        // are the cache's fan-out-keyed tier. The lanes hold the
        // *static* budget; the fade composes here (same expressions as
        // the per-delivery path, so both spellings stay bit-identical),
        // and a fade-dropped entry shorts lane_pushes so schedule_batch
        // falls back to the index sort instead of the precomputed rank
        // lane.
        ++stats_.link_cache_hits;
        PW_COUNT(kMediumLinkCacheHits);
        double rx_dbm = sender.nb_rx_dbm_[i];
        double rx_mw = sender.nb_rx_mw_[i];
        if (fading) {
          rx_dbm +=
              link_fading_db(sender, *e.radio, fading_interval, sender.shard_);
          if (rx_dbm < config_.detect_threshold_dbm) continue;  // faded below
          rx_mw = dbm_to_mw(rx_dbm);
        }
        crossed |= e.radio->shard_ != sender.shard_;
        begin_reception(sender, e.radio, rx_dbm, rec, start, end, rx_mw,
                        sender.nb_prop_ns_[i]);
        ++lane_pushes;
        continue;
      }
      double rx_dbm = tx.power_dbm + e.gain_db;
      if (rx_dbm < config_.detect_threshold_dbm) continue;  // quieter frame
      if (fading) {
        rx_dbm +=
            link_fading_db(sender, *e.radio, fading_interval, sender.shard_);
        if (rx_dbm < config_.detect_threshold_dbm) continue;  // faded below
      }
      crossed |= e.radio->shard_ != sender.shard_;
      begin_reception(sender, e.radio, rx_dbm, rec, start, end);
    }
    while (vit != vend) try_receiver(*vit++);
  };
  fan_out();

  if (crossed) {
    ++stats_.mirrored_tx;
    PW_COUNT(kShardMirroredTx);
  }

  if (rec.deliveries.empty()) {
    release_record(rec_idx);  // nobody in range; recycle immediately
    return;
  }
  schedule_batch(rec_idx, sender, lane_pushes);
}

void Medium::prune(std::vector<Reception>& list) const {
  const TimePoint now = scheduler_.now();
  // A record is dead once (a) its own finalize event has fired (end < now
  // — events at `end` run before time moves past it) and (b) it cannot
  // overlap any reception still pending on this radio: overlap with a
  // pending p needs end > p.start, so end <= min pending start rules it
  // out. Receptions begin at transmit time, so nothing scheduled later
  // can start before `now` — dropping these entries provably never
  // changes an interference sum, a carrier-sense answer, or a finalize
  // lookup. (A fixed 10 ms horizon used to stand in for this; under a
  // kHz-rate injection stream it kept hundreds of dead entries per radio
  // and their O(n) scans dominated the delivery path.)
  TimePoint min_pending_start = TimePoint::max();
  for (const Reception& r : list) {
    if (r.end >= now && r.start < min_pending_start) {
      min_pending_start = r.start;
    }
  }
  std::erase_if(list, [now, min_pending_start](const Reception& r) {
    return r.end < now && r.end <= min_pending_start;
  });
}

bool Medium::busy_for(const Radio& radio) const {
  const TimePoint now = scheduler_.now();
  if (radio.transmitting_during(now, now + nanoseconds(1))) return true;
  for (const auto& r : radio.rx_state_.list) {
    if (r.start <= now && now < r.end &&
        r.power_dbm >= config_.cs_threshold_dbm) {
      return true;
    }
  }
  return false;
}

void Medium::finalize_reception(TransmissionRecord& rec,
                                const PendingDelivery& delivery) {
  Radio* const receiver = delivery.radio;
  const std::uint64_t reception_id = delivery.reception_id;
  const frames::PpduRef& ppdu = rec.ppdu;
  const phy::TxVector& tx = rec.tx;
  const TimePoint start = delivery.rx_start;
  const TimePoint end = delivery.rx_end;
  const double power_dbm = delivery.power_dbm;
  const Radio* const sender = rec.sender;
  auto& list = receiver->rx_state_.list;

  // Settle RX energy state first.
  if (receiver->rx_nesting_ > 0) {
    receiver->rx_nesting_--;
    if (receiver->rx_nesting_ == 0 &&
        !receiver->transmitting_during(end, end + nanoseconds(1))) {
      receiver->energy().set_state(
          receiver->sleeping() ? RadioState::kSleep : RadioState::kIdle, end);
    }
  }

  // Half-duplex and sleep gating. `awake_at_start` rode along with the
  // delivery record instead of being fished out of the reception list —
  // same value, no O(list) lookup.
  if (!delivery.awake_at_start || receiver->sleeping()) return;
  if (receiver->transmitting_during(start, end)) return;

  // Interference: sum other receptions overlapping [start, end]. The
  // per-reception linear power is precomputed at push time, so the
  // common no-overlap case runs without a single libm call.
  double interference_mw = 0.0;
  for (const auto& r : list) {
    if (r.id == reception_id) continue;
    if (r.start < end && r.end > start) {
      interference_mw += r.power_mw;
    }
  }

  const double sinr_db =
      interference_mw == 0.0
          ? power_dbm - noise_floor_dbm_
          : power_dbm - mw_to_dbm(noise_mw_ + interference_mw);

  bool corrupted = false;
  if (interference_mw > 0.0 &&
      power_dbm - mw_to_dbm(interference_mw) < config_.capture_margin_db) {
    corrupted = true;  // collision without capture
  } else if (sinr_db < phy::kPreambleDetectSnrDb) {
    return;  // not even detectable as a frame
  } else if (config_.model_frame_errors) {
    corrupted = frame_lost(tx.rate, sinr_db, ppdu.size(),
                           sender != nullptr ? sender->shard_ : 0);
  }

  frames::PpduRef damaged_ref;
  if (corrupted) {
    // Channel damage: flip bits so the FCS fails at the MAC. The shared
    // buffer is immutable, so only this copy-on-corrupt path ever copies
    // payload octets after transmit() took ownership — and the copy lands
    // in a pooled buffer, not a fresh heap block.
    damaged_ref = ppdu_pool_.acquire();
    Bytes& damaged = damaged_ref.mutable_octets();
    damaged.assign(ppdu.octets().begin(), ppdu.octets().end());
    stats_.ppdu_bytes_copied += damaged.size();
    PW_COUNT_N(kMediumPpduBytesCopied, damaged.size());
    frames::corrupt(damaged, 3, splitmix(reception_id));
  }

  phy::RxVector rx;
  rx.rate = tx.rate;
  rx.rssi_dbm = power_dbm;
  rx.snr_db = sinr_db;
  if (receiver->config().capture_csi && !corrupted && sender != nullptr) {
    if (csi_) rx.csi = csi_(*sender, *receiver, end);
    if (!rx.csi) {
      // Default: stable static multipath per link, geometry-seeded.
      const std::uint64_t key = pair_key(sender->id(), receiver->id());
      auto it = static_paths_.find(key);
      if (it == static_paths_.end()) {
        Rng path_rng(key ^ seed_);
        const double d =
            distance(sender->position(), receiver->position());
        it = static_paths_.emplace(key, phy::make_static_paths(d, 4, path_rng))
                 .first;
      }
      Rng noise_rng(splitmix(reception_id) ^ seed_);
      rx.csi = phy::evaluate_csi(sender->frequency_hz(), it->second, {},
                                 0.01, noise_rng, end);
    }
  }

  // Hand-off to the MAC. A damaged copy goes as its own octets; an intact
  // PPDU as the transmission's one shared decode, made only once some
  // receiver's MAC listens. The reference oracle hands every receiver
  // octets, so each decodes its own.
  if (!receiver->mac_listening()) return;
  if (oracle_) {
    const Bytes& octets = corrupted ? damaged_ref.octets() : ppdu.octets();
    receiver->deliver(std::span<const std::uint8_t>(octets), rx);
  } else if (corrupted) {
    receiver->deliver(damaged_ref.octets(), rx);
  } else {
    receiver->deliver(intact_decode(rec), rx);
  }
}

void Medium::audit_radio(const Radio& radio) const {
  const contract::AuditScope audit;
  // Grid residency: the recorded (channel, cell) keys must match what the
  // radio's current tuning and position imply, and the radio must sit in
  // exactly that cell. A position mutated without Medium::on_radio_moved
  // (the classic stale-cache bug) trips here.
  if (radio.grid_indexed_) {
    PW_CHECK(radio.grid_chan_ == chan_key_of(radio),
             "radio %llu indexed under stale channel key",
             static_cast<unsigned long long>(radio.id()));
    PW_CHECK(radio.grid_cell_ == cell_key_for(radio.position()),
             "radio %llu indexed under stale grid cell (moved without "
             "on_radio_moved?)",
             static_cast<unsigned long long>(radio.id()));
    const auto git = grid_.find(radio.grid_chan_);
    PW_CHECK(git != grid_.end(), "radio %llu's channel missing from grid",
             static_cast<unsigned long long>(radio.id()));
    const auto cit = git->second.find(radio.grid_cell_);
    PW_CHECK(cit != git->second.end(),
             "radio %llu's cell missing from grid",
             static_cast<unsigned long long>(radio.id()));
    PW_CHECK(std::count(cit->second.begin(), cit->second.end(), &radio) == 1,
             "radio %llu not exactly once in its grid cell",
             static_cast<unsigned long long>(radio.id()));
  }

  // Neighbor-list coherence: a valid cached fan-out must equal the
  // brute-force reception set — same receivers, same order, bit-identical
  // link gains — because transmit() replays it instead of scanning.
  const bool list_valid = !radio.volatile_ &&
                          radio.nb_epoch_ == static_epoch_ &&
                          radio.nb_self_version_ == radio.geometry_version_;
  if (!list_valid) return;
  std::size_t i = 0;
  for (const Radio* rx : radios_) {
    if (rx == &radio || rx->volatile_) continue;
    if (chan_key_of(*rx) != chan_key_of(radio)) continue;
    const double gain = raw_link_gain_db(radio, *rx);
    if (radio.nb_power_dbm_ + gain < config_.detect_threshold_dbm) continue;
    PW_CHECK(i < radio.neighbors_.size(),
             "neighbor list of radio %llu misses detectable radio %llu",
             static_cast<unsigned long long>(radio.id()),
             static_cast<unsigned long long>(rx->id()));
    const NeighborEntry& e = radio.neighbors_[i++];
    PW_CHECK(e.radio == rx && e.order == rx->attach_order_,
             "neighbor list of radio %llu diverges from brute force at "
             "entry %zu",
             static_cast<unsigned long long>(radio.id()), i - 1);
    PW_CHECK(std::bit_cast<std::uint64_t>(e.gain_db) ==
                 std::bit_cast<std::uint64_t>(gain),
             "cached gain %.17g != recomputed %.17g for link %llu->%llu",
             e.gain_db, gain, static_cast<unsigned long long>(radio.id()),
             static_cast<unsigned long long>(rx->id()));
  }
  PW_CHECK_EQ(i, radio.neighbors_.size());

  // SoA lane coherence: every lane value a replay would load must be
  // bit-identical to what the per-delivery path computes from the
  // (already audited) cached gains, and the arrival permutation must be
  // the stable (delay, index) sort the scheduler's tie-breaking implies.
  const std::size_t n = radio.neighbors_.size();
  PW_CHECK_EQ(radio.nb_rx_dbm_.size(), n);
  PW_CHECK_EQ(radio.nb_rx_mw_.size(), n);
  PW_CHECK_EQ(radio.nb_prop_ns_.size(), n);
  PW_CHECK_EQ(radio.nb_arrival_rank_.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    const NeighborEntry& e = radio.neighbors_[k];
    const double rx_dbm = radio.nb_power_dbm_ + e.gain_db;
    PW_CHECK(std::bit_cast<std::uint64_t>(radio.nb_rx_dbm_[k]) ==
                 std::bit_cast<std::uint64_t>(rx_dbm),
             "rx-power lane %.17g != recomputed %.17g at entry %zu of "
             "radio %llu",
             radio.nb_rx_dbm_[k], rx_dbm, k,
             static_cast<unsigned long long>(radio.id()));
    PW_CHECK(std::bit_cast<std::uint64_t>(radio.nb_rx_mw_[k]) ==
                 std::bit_cast<std::uint64_t>(dbm_to_mw(rx_dbm)),
             "linear-power lane diverges at entry %zu of radio %llu", k,
             static_cast<unsigned long long>(radio.id()));
    std::int64_t prop_ns = 0;
    if (config_.model_propagation_delay) {
      const double d =
          distance(radio.position(), e.radio->position());
      prop_ns = static_cast<std::int64_t>(d / kSpeedOfLight * 1e9);
    }
    PW_CHECK(radio.nb_prop_ns_[k] == prop_ns,
             "propagation lane %lld != recomputed %lld at entry %zu of "
             "radio %llu",
             static_cast<long long>(radio.nb_prop_ns_[k]),
             static_cast<long long>(prop_ns), k,
             static_cast<unsigned long long>(radio.id()));
  }
  std::vector<std::uint32_t> want(n);
  for (std::size_t k = 0; k < n; ++k) {
    want[k] = static_cast<std::uint32_t>(k);
  }
  std::stable_sort(want.begin(), want.end(),
                   [&radio](std::uint32_t a, std::uint32_t b) {
                     return radio.nb_prop_ns_[a] < radio.nb_prop_ns_[b];
                   });
  PW_CHECK(radio.nb_arrival_rank_ == want,
           "arrival-rank lane of radio %llu is not the stable delay sort",
           static_cast<unsigned long long>(radio.id()));
}

void Medium::audit_coherence() const {
  const contract::AuditScope audit;
  // Per-radio slices: grid residency + cached fan-outs.
  for (const Radio* r : radios_) audit_radio(*r);

  // Grid totals: cells hold only attached, indexed radios, in strictly
  // increasing attach order (the merge in collect_candidates depends on
  // it), and every indexed radio is accounted for exactly once.
  std::size_t in_grid = 0;
  // pw-analyze: allow(unordered-iteration): the auditor's grid walk is
  // order-independent membership checking; nothing it visits feeds the
  // event stream.
  for (const auto& [chan, cells] : grid_) {
    // pw-analyze: allow(unordered-iteration): same auditor walk, inner map.
    for (const auto& [cell_key, cell] : cells) {
      PW_CHECK(!cell.empty(), "grid retains an empty cell");
      for (std::size_t k = 0; k < cell.size(); ++k) {
        const Radio* r = cell[k];
        PW_CHECK(std::count(radios_.begin(), radios_.end(), r) == 1,
                 "grid cell holds a detached radio");
        PW_CHECK(r->grid_indexed_ && r->grid_chan_ == chan &&
                     r->grid_cell_ == cell_key,
                 "radio %llu's grid bookkeeping disagrees with the cell "
                 "holding it",
                 static_cast<unsigned long long>(r->id()));
        PW_CHECK(k == 0 ||
                     cell[k - 1]->attach_order_ < r->attach_order_,
                 "grid cell not in attach order at position %zu", k);
      }
      in_grid += cell.size();
    }
  }
  std::size_t indexed = 0;
  for (const Radio* r : radios_) indexed += r->grid_indexed_ ? 1 : 0;
  PW_CHECK_EQ(in_grid, indexed);

  // Volatile list: exactly the flagged radios, in attach order.
  std::size_t flagged = 0;
  for (const Radio* r : radios_) flagged += r->volatile_ ? 1 : 0;
  PW_CHECK_EQ(flagged, volatile_radios_.size());
  for (std::size_t k = 0; k < volatile_radios_.size(); ++k) {
    PW_CHECK(volatile_radios_[k]->volatile_,
             "non-volatile radio on the volatile list");
    PW_CHECK(k == 0 || volatile_radios_[k - 1]->attach_order_ <
                           volatile_radios_[k]->attach_order_,
             "volatile list not in attach order at position %zu", k);
  }

  // Link-cache lines that would be served as hits (key decodes to two
  // attached radios whose geometry versions match) must hold exactly the
  // gain a fresh computation produces.
  std::unordered_map<std::uint64_t, const Radio*> by_id;
  for (const Radio* r : radios_) by_id.emplace(r->id(), r);
  for (const LinkMemo& memo : memos_) {
    for (const LinkBudget& line : memo.lines) {
      if (line.key == 0) continue;
      const auto tx = by_id.find(line.key >> 32);
      const auto rx = by_id.find(line.key & 0xffffffffULL);
      if (tx == by_id.end() || rx == by_id.end()) continue;  // detached
      if (line.tx_version != tx->second->geometry_version_ ||
          line.rx_version != rx->second->geometry_version_) {
        continue;  // stale line: the next lookup misses and recomputes
      }
      const double gain = raw_link_gain_db(*tx->second, *rx->second);
      PW_CHECK(std::bit_cast<std::uint64_t>(line.gain_db) ==
                   std::bit_cast<std::uint64_t>(gain),
               "link cache line %.17g != recomputed %.17g for %llu->%llu "
               "(position changed without a version bump?)",
               line.gain_db, gain,
               static_cast<unsigned long long>(tx->second->id()),
               static_cast<unsigned long long>(rx->second->id()));
    }
  }

  // Fading-state lines are caches of a pure function: every live line
  // must hold exactly the value and the spine nodes a from-scratch
  // evaluation of its (link, interval) produces, or the incremental
  // walk drifted off the counter-based stream. A bad spine node would
  // otherwise surface only as a later wrong fade.
  for (const LinkMemo& memo : memos_) {
    for (const FadingLine& line : memo.fading_lines) {
      if (line.key == 0 || !line.state.valid) continue;
      const std::uint64_t j =
          line.state.interval % phy::ChannelModel::kBlockIntervals;
      const std::uint64_t restart = line.state.interval - j;
      const double fresh = channel_.node_db(line.key, restart, j);
      PW_CHECK(std::bit_cast<std::uint64_t>(line.state.value_db) ==
                   std::bit_cast<std::uint64_t>(fresh),
               "fading line %.17g != recomputed %.17g for link key %llu at "
               "interval %llu",
               line.state.value_db, fresh,
               static_cast<unsigned long long>(line.key),
               static_cast<unsigned long long>(line.state.interval));
      for (unsigned k = phy::ChannelModel::spine_low_level(j);
           k <= phy::ChannelModel::kBridgeLevels; ++k) {
        const std::uint64_t node = phy::ChannelModel::spine_node(j, k);
        const double node_db = channel_.node_db(line.key, restart, node);
        PW_CHECK(std::bit_cast<std::uint64_t>(line.state.spine_db[k]) ==
                     std::bit_cast<std::uint64_t>(node_db),
                 "fading spine level %u node %llu %.17g != recomputed %.17g "
                 "for link key %llu at interval %llu",
                 k, static_cast<unsigned long long>(node),
                 line.state.spine_db[k], node_db,
                 static_cast<unsigned long long>(line.key),
                 static_cast<unsigned long long>(line.state.interval));
      }
    }
  }

  // FER lines hold the two ends of a SINR cell's bracket, which every
  // decision they serve trusts without re-evaluating: both must be the
  // exact doubles phy::frame_error_rate gives at the cell's ends.
  for (const LinkMemo& memo : memos_) {
    for (const FerMemoEntry& line : memo.fer_lines) {
      if (std::isnan(line.mbps)) continue;
      const phy::PhyRate rate{(line.shape & 1u) != 0u
                                  ? phy::Modulation::kDsss
                                  : phy::Modulation::kOfdm,
                              line.mbps, int((line.shape >> 1) & 0xfffu)};
      const std::size_t octets = line.shape >> 13;
      const double lo = fer_cell_end(rate, line.cell, octets);
      const double hi = fer_cell_end(rate, line.cell + 1.0, octets);
      PW_CHECK(std::bit_cast<std::uint64_t>(line.fer_lo) ==
                       std::bit_cast<std::uint64_t>(lo) &&
                   std::bit_cast<std::uint64_t>(line.fer_hi) ==
                       std::bit_cast<std::uint64_t>(hi),
               "FER line [%.17g, %.17g] != recomputed [%.17g, %.17g] for %s, "
               "%zu octets, cell %d",
               line.fer_lo, line.fer_hi, lo, hi, rate.name().c_str(), octets,
               line.cell);
    }
  }

  // Indexed-vs-brute-force spot check: for every attached radio the grid
  // query must return an attach-ordered, same-channel candidate list
  // containing every radio a brute-force range scan would keep.
  std::vector<Radio*> candidates;
  for (const Radio* sender : radios_) {
    const double probe_dbm = 20.0;
    candidates.clear();
    collect_candidates(*sender, probe_dbm, candidates);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      PW_CHECK(chan_key_of(*candidates[k]) == chan_key_of(*sender),
               "grid query crossed channels");
      PW_CHECK(k == 0 || candidates[k - 1]->attach_order_ <
                             candidates[k]->attach_order_,
               "grid query result not in attach order at position %zu", k);
    }
    const double r = max_detect_range_m(probe_dbm, sender->frequency_hz());
    for (Radio* rx : radios_) {
      if (chan_key_of(*rx) != chan_key_of(*sender)) continue;
      if (distance(sender->position(), rx->position()) > r) continue;
      PW_CHECK(std::count(candidates.begin(), candidates.end(), rx) == 1,
               "grid query missed in-range radio %llu for sender %llu",
               static_cast<unsigned long long>(rx->id()),
               static_cast<unsigned long long>(sender->id()));
    }
  }

  // PPDU pool internals: free-list flags and refcounts must agree.
  ppdu_pool_.audit();

  // Transmission records: the free list must hold exactly the non-live
  // record slots, each exactly once, and a free record must not pin a
  // payload buffer or undelivered receptions.
  std::vector<bool> is_free(records_.size(), false);
  for (const std::size_t idx : free_records_) {
    PW_CHECK(idx < records_.size(), "free-record index out of range");
    PW_CHECK(!is_free[idx], "record %zu on the free list twice", idx);
    is_free[idx] = true;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const TransmissionRecord& rec = *records_[i];
    PW_CHECK(rec.live != is_free[i],
             "record %zu live flag disagrees with the free list", i);
    if (!rec.live) {
      PW_CHECK(!rec.ppdu && rec.deliveries.empty() && rec.order.empty() &&
                   rec.next == 0,
               "released record %zu still pins payload or deliveries", i);
    } else {
      PW_CHECK(static_cast<bool>(rec.ppdu),
               "live record %zu has no payload", i);
      PW_CHECK(rec.next <= rec.deliveries.size(),
               "record %zu delivery cursor out of range", i);
      PW_CHECK(rec.order.size() == rec.deliveries.size(),
               "record %zu finalize order is not a full permutation", i);
    }
  }
}

}  // namespace politewifi::sim
