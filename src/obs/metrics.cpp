#include "obs/metrics.h"

#include "common/check.h"
#include "obs/timeline.h"

namespace politewifi::obs {

namespace {

constexpr MetricInfo kCounterInfo[] = {
#define PW_OBS_X(sym, name, unit, desc) {name, unit, desc},
    PW_OBS_COUNTER_LIST(PW_OBS_X)
#undef PW_OBS_X
};
static_assert(std::size(kCounterInfo) == kNumCounters);

constexpr MetricInfo kGaugeInfo[] = {
#define PW_OBS_X(sym, name, unit, desc) {name, unit, desc},
    PW_OBS_GAUGE_LIST(PW_OBS_X)
#undef PW_OBS_X
};
static_assert(std::size(kGaugeInfo) == kNumGauges);

// Histogram edges. Integer-valued domains keep bucketing (and therefore
// the canonical block) free of floating point.
constexpr std::int64_t kFerPpmEdges[] = {0,     1,      10,      100,
                                         1000,  10000,  100000,  1000000};
constexpr std::int64_t kTxOctetEdges[] = {16, 32, 64, 128, 256, 512, 1024,
                                          2048};
// Wall spans: 1 ms .. 10 min, decade-ish steps.
constexpr std::int64_t kWallNsEdges[] = {
    1'000'000,      10'000'000,     100'000'000,   1'000'000'000,
    10'000'000'000, 60'000'000'000, 600'000'000'000};

constexpr HistInfo kHistInfo[] = {
    {"phy.fer_ppm", "ppm",
     "frame-error rate per PHY evaluation, parts-per-million (1e6 = "
     "certain loss)",
     kFerPpmEdges, /*wall=*/false},
    {"mac.tx_octets", "octets", "MPDU sizes handed to the transmit pipeline",
     kTxOctetEdges, /*wall=*/false},
    {"runtime.experiment_wall_ns", "ns",
     "wall time of one experiment run (wall: canonical block excludes it)",
     kWallNsEdges, /*wall=*/true},
};
static_assert(std::size(kHistInfo) == kNumHists);

}  // namespace

std::span<const MetricInfo> counter_catalog() { return kCounterInfo; }
std::span<const MetricInfo> gauge_catalog() { return kGaugeInfo; }
std::span<const HistInfo> hist_catalog() { return kHistInfo; }

std::atomic<bool> Registry::enabled_{false};
std::atomic<std::int64_t> Registry::counters_[kNumCounters] = {};
std::atomic<std::int64_t> Registry::gauges_[kNumGauges] = {};
Registry::HistCells Registry::hists_[kNumHists] = {};

void Registry::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (auto& h : hists_) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.sum.store(0, std::memory_order_relaxed);
  }
}

void Registry::record(Hist h, std::int64_t v) {
  if (!enabled()) return;
  const HistInfo& info = kHistInfo[static_cast<std::size_t>(h)];
  std::size_t bucket = info.edges.size();  // overflow unless an edge holds v
  for (std::size_t i = 0; i < info.edges.size(); ++i) {
    if (v <= info.edges[i]) {
      bucket = i;
      break;
    }
  }
  HistCells& cells = hists_[static_cast<std::size_t>(h)];
  cells.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(v, std::memory_order_relaxed);
}

std::int64_t Registry::counter_value(Counter c) {
  return counters_[static_cast<std::size_t>(c)].load(
      std::memory_order_relaxed);
}

std::int64_t Registry::gauge_value(Gauge g) {
  return gauges_[static_cast<std::size_t>(g)].load(std::memory_order_relaxed);
}

std::int64_t Registry::hist_bucket(Hist h, std::size_t bucket) {
  const HistInfo& info = kHistInfo[static_cast<std::size_t>(h)];
  PW_CHECK(bucket <= info.edges.size());
  return hists_[static_cast<std::size_t>(h)].buckets[bucket].load(
      std::memory_order_relaxed);
}

std::int64_t Registry::hist_total(Hist h) {
  const HistInfo& info = kHistInfo[static_cast<std::size_t>(h)];
  std::int64_t total = 0;
  for (std::size_t i = 0; i <= info.edges.size(); ++i) {
    total += hist_bucket(h, i);
  }
  return total;
}

std::int64_t Registry::hist_sum(Hist h) {
  return hists_[static_cast<std::size_t>(h)].sum.load(
      std::memory_order_relaxed);
}

common::Json Registry::to_json(bool include_wall) {
  common::Json counters = common::Json::object();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters[kCounterInfo[i].name] = counter_value(static_cast<Counter>(i));
  }
  common::Json gauges = common::Json::object();
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    gauges[kGaugeInfo[i].name] = gauge_value(static_cast<Gauge>(i));
  }
  common::Json hists = common::Json::object();
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const HistInfo& info = kHistInfo[i];
    if (info.wall && !include_wall) continue;
    const Hist h = static_cast<Hist>(i);
    common::Json edges = common::Json::array();
    common::Json counts = common::Json::array();
    for (std::size_t b = 0; b < info.edges.size(); ++b) {
      edges.push_back(info.edges[b]);
      counts.push_back(hist_bucket(h, b));
    }
    counts.push_back(hist_bucket(h, info.edges.size()));  // overflow
    common::Json one = common::Json::object();
    one["counts"] = std::move(counts);
    one["edges"] = std::move(edges);
    one["sum"] = hist_sum(h);
    one["total"] = hist_total(h);
    hists[info.name] = std::move(one);
  }
  common::Json out = common::Json::object();
  out["counters"] = std::move(counters);
  out["gauges"] = std::move(gauges);
  out["histograms"] = std::move(hists);
  return out;
}

ScopedTimer::~ScopedTimer() {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  Registry::record(hist_, ns);
  if (TimelineProfiler* timeline = active_timeline()) {
    timeline->add_wall_span(name_, ns);
  }
}

}  // namespace politewifi::obs
