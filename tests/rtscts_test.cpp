// RTS/CTS initiator tests: the dot11RTSThreshold machinery, both against
// the mock environment (exact timing) and end-to-end over the medium,
// including the hidden-terminal topology it exists for.
#include <gtest/gtest.h>

#include "core/injector.h"
#include "frames/data.h"
#include "frames/serializer.h"
#include "mac/station.h"
#include "sim/network.h"

namespace politewifi::mac {
namespace {

const MacAddress kSelf{0x3c, 0x28, 0x6d, 0x01, 0x02, 0x03};
const MacAddress kPeer{0x00, 0x11, 0x22, 0x33, 0x44, 0x55};

/// Mock environment with ordered timer execution (same as the station
/// suite's, trimmed).
class MockEnv : public MacEnvironment {
 public:
  struct Sent {
    frames::Frame frame;
    phy::TxVector tx;
    TimePoint at;
  };

  TimePoint now() const override { return now_; }
  std::uint64_t schedule(Duration delay, SmallFn fn) override {
    const std::uint64_t id = next_id_++;
    timers_.push_back(Timer{id, now_ + delay, std::move(fn), false});
    return id;
  }
  void cancel(std::uint64_t id) override {
    for (auto& t : timers_) {
      if (t.id == id) t.cancelled = true;
    }
  }
  void transmit(const frames::Frame& frame, const phy::TxVector& tx) override {
    sent_.push_back({frame, tx, now_});
  }
  bool medium_busy() const override { return false; }

  void advance(Duration d) {
    const TimePoint until = now_ + d;
    while (true) {
      auto best = timers_.end();
      for (auto it = timers_.begin(); it != timers_.end(); ++it) {
        if (it->cancelled || it->at > until) continue;
        if (best == timers_.end() || it->at < best->at ||
            (it->at == best->at && it->id < best->id)) {
          best = it;
        }
      }
      if (best == timers_.end()) break;
      now_ = best->at;
      auto fn = std::move(best->fn);
      timers_.erase(best);
      fn();
    }
    now_ = until;
  }

  std::vector<Sent> sent_;

 private:
  struct Timer {
    std::uint64_t id;
    TimePoint at;
    SmallFn fn;
    bool cancelled;
  };
  TimePoint now_ = kSimStart;
  std::vector<Timer> timers_;
  std::uint64_t next_id_ = 1;
};

frames::Frame big_frame() {
  return frames::make_data_to_ds(kPeer, kSelf, kPeer, Bytes(500, 0x42), 7);
}

template <typename Pred>
bool advance_until(MockEnv& env, Pred pred, Duration max = seconds(1)) {
  const TimePoint deadline = env.now() + max;
  while (!pred() && env.now() < deadline) env.advance(microseconds(10));
  return pred();
}

TEST(RtsCtsInitiator, LargeFramePrecededByRts) {
  MockEnv env;
  MacConfig cfg;
  cfg.address = kSelf;
  cfg.rts_threshold = 300;
  Station station(cfg, env, Rng(1));

  station.send(big_frame(), phy::kOfdm24);
  ASSERT_TRUE(advance_until(env, [&] { return !env.sent_.empty(); }));
  ASSERT_EQ(env.sent_.size(), 1u);
  const auto& rts = env.sent_[0];
  EXPECT_TRUE(rts.frame.fc.is_rts());
  EXPECT_EQ(rts.frame.addr1, kPeer);
  EXPECT_EQ(rts.frame.addr2, kSelf);
  // NAV must cover CTS + data + ACK + 3 SIFS.
  EXPECT_GT(rts.frame.duration_id, 200);
  EXPECT_EQ(station.stats().rts_sent, 1u);

  // Peer answers CTS: the data goes out one SIFS later.
  phy::RxVector rx;
  rx.rate = phy::kOfdm24;
  station.on_ppdu_received(
      frames::serialize(frames::make_cts(kSelf, 100)), rx);
  const TimePoint cts_time = env.now();
  ASSERT_TRUE(advance_until(env, [&] { return env.sent_.size() >= 2; }));
  const auto& data = env.sent_[1];
  EXPECT_TRUE(data.frame.fc.is_data());
  EXPECT_EQ(data.at - cts_time, phy::sifs(phy::Band::k2_4GHz));
  EXPECT_EQ(station.stats().cts_received, 1u);

  // ACK completes the exchange.
  station.on_ppdu_received(frames::serialize(frames::make_ack(kSelf)), rx);
  env.advance(milliseconds(1));
  EXPECT_EQ(station.stats().tx_success, 1u);
}

TEST(RtsCtsInitiator, SmallFrameSkipsRts) {
  MockEnv env;
  MacConfig cfg;
  cfg.address = kSelf;
  cfg.rts_threshold = 300;
  Station station(cfg, env, Rng(1));
  station.send(frames::make_null_function(kPeer, kSelf, 1), phy::kOfdm24);
  ASSERT_TRUE(advance_until(env, [&] { return !env.sent_.empty(); }));
  EXPECT_TRUE(env.sent_[0].frame.fc.is_null_function());
  EXPECT_EQ(station.stats().rts_sent, 0u);
}

TEST(RtsCtsInitiator, NoCtsMeansRetryThenFailure) {
  MockEnv env;
  MacConfig cfg;
  cfg.address = kSelf;
  cfg.rts_threshold = 300;
  cfg.retry_limit = 3;
  Station station(cfg, env, Rng(1));
  std::optional<TxResult> result;
  station.send(big_frame(), phy::kOfdm24,
               [&result](const TxResult& r) { result = r; });
  env.advance(seconds(2));

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->acked);
  // Every attempt was an RTS that went unanswered; the data never flew.
  EXPECT_EQ(station.stats().rts_sent, 3u);
  for (const auto& s : env.sent_) {
    EXPECT_TRUE(s.frame.fc.is_rts());
  }
}

TEST(RtsCtsInitiator, EndToEndOverTheMedium) {
  sim::Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 130});
  sim::RadioConfig a_rc;
  MacConfig a_mc;
  a_mc.rts_threshold = 300;
  sim::Device& a =
      sim.add_device({.name = "a"}, kSelf, a_rc, a_mc);
  sim::RadioConfig b_rc;
  b_rc.position = {5, 0};
  sim::Device& b = sim.add_device({.name = "b"}, kPeer, b_rc);
  (void)b;

  auto& trace = sim.trace();
  std::optional<TxResult> result;
  a.station().send(big_frame(), phy::kOfdm24,
                   [&result](const TxResult& r) { result = r; });
  sim.run_for(milliseconds(20));

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->acked);
  // The on-air order is RTS, CTS, data, ACK.
  std::vector<std::string> kinds;
  for (const auto& e : trace.entries()) {
    if (e.frame.fc.is_rts()) kinds.push_back("rts");
    if (e.frame.fc.is_cts()) kinds.push_back("cts");
    if (e.frame.fc.is_data()) kinds.push_back("data");
    if (e.frame.fc.is_ack()) kinds.push_back("ack");
  }
  EXPECT_EQ(kinds,
            (std::vector<std::string>{"rts", "cts", "data", "ack"}));
}

TEST(RtsCtsInitiator, ThirdPartyDefersForTheWholeExchange) {
  // A bystander hearing only the RTS must honour its NAV through the
  // data + ACK — virtual carrier sense protecting hidden terminals.
  sim::Simulation sim({.medium = {.shadowing_sigma_db = 0.0}, .seed = 131});
  sim::RadioConfig a_rc;
  MacConfig a_mc;
  a_mc.rts_threshold = 300;
  sim::Device& a = sim.add_device({.name = "a"}, kSelf, a_rc, a_mc);
  sim::RadioConfig b_rc;
  b_rc.position = {5, 0};
  sim.add_device({.name = "b"}, kPeer, b_rc);
  sim::RadioConfig c_rc;
  c_rc.position = {2, 2};
  sim::Device& bystander = sim.add_device(
      {.name = "c"}, {9, 9, 9, 9, 9, 9}, c_rc);

  a.station().send(big_frame(), phy::kOfdm24);
  sim.run_for(microseconds(100));  // RTS is on the air / just heard
  // Bystander queues a frame now; it must not transmit into the NAV.
  const TimePoint queued = sim.now();
  bool sent = false;
  TimePoint sent_at{};
  sim.medium().set_trace_sink([&](const sim::TransmissionEvent& ev) {
    const auto r = frames::deserialize(ev.ppdu.bytes());
    if (r.frame && r.frame->fc.is_null_function() && !sent) {
      sent = true;
      sent_at = ev.start;
    }
  });
  bystander.station().send(
      frames::make_null_function({8, 8, 8, 8, 8, 8},
                                 bystander.address(), 1),
      phy::kOfdm24);
  sim.run_for(milliseconds(20));
  ASSERT_TRUE(sent);
  // The exchange at 24 Mb/s with a 500-byte MPDU runs ~250+ us of NAV;
  // the bystander's frame must start after the NAV it heard.
  EXPECT_GT(sent_at - queued, microseconds(200));
}

TEST(HiddenTerminal, RtsCtsRescuesThroughput) {
  // Classic topology: A and C both talk to B in the middle; A and C are
  // out of carrier-sense range of each other. Without RTS/CTS their data
  // frames collide at B; with it, the CTS from B silences the far side.
  struct Outcome {
    int delivered = 0;
    std::size_t data_frames_on_air = 0;  // includes collided retries
  };
  auto run_case = [](bool use_rts) {
    sim::SimulationConfig scfg;
    scfg.seed = 150;
    scfg.medium.shadowing_sigma_db = 0.0;
    scfg.medium.model_frame_errors = false;
    sim::Simulation sim(scfg);

    MacConfig mc;
    if (use_rts) mc.rts_threshold = 100;
    mc.retry_limit = 7;

    sim::RadioConfig a_rc;
    a_rc.position = {0, 0};
    sim::Device& a =
        sim.add_device({.name = "A"}, {1, 1, 1, 1, 1, 1}, a_rc, mc);
    sim::RadioConfig b_rc;
    b_rc.position = {120, 0};  // hears both
    sim::Device& b =
        sim.add_device({.name = "B"}, {2, 2, 2, 2, 2, 2}, b_rc);
    (void)b;
    sim::RadioConfig c_rc;
    c_rc.position = {240, 0};  // cannot hear A's data (480 m apart... no:
                               // 240 m from A — beyond CS at these powers)
    sim::Device& c =
        sim.add_device({.name = "C"}, {3, 3, 3, 3, 3, 3}, c_rc, mc);

    std::size_t data_on_air = 0;
    sim.medium().set_trace_sink([&](const sim::TransmissionEvent& ev) {
      const auto r = frames::deserialize(ev.ppdu.bytes());
      if (r.frame && r.frame->fc.is_data()) ++data_on_air;
    });

    // Both bombard B with large frames simultaneously.
    int a_ok = 0, c_ok = 0;
    for (int i = 0; i < 30; ++i) {
      a.station().send(
          frames::make_data_to_ds({2, 2, 2, 2, 2, 2}, {1, 1, 1, 1, 1, 1},
                                  {2, 2, 2, 2, 2, 2}, Bytes(600, 1),
                                  a.station().next_sequence()),
          phy::kOfdm6, [&a_ok](const TxResult& r) { a_ok += r.acked; });
      c.station().send(
          frames::make_data_to_ds({2, 2, 2, 2, 2, 2}, {3, 3, 3, 3, 3, 3},
                                  {2, 2, 2, 2, 2, 2}, Bytes(600, 1),
                                  c.station().next_sequence()),
          phy::kOfdm6, [&c_ok](const TxResult& r) { c_ok += r.acked; });
      sim.run_for(milliseconds(40));
    }
    sim.run_for(seconds(1));
    return Outcome{a_ok + c_ok, data_on_air};
  };

  const Outcome without = run_case(false);
  const Outcome with = run_case(true);
  // Retries eventually deliver everything either way; what RTS/CTS buys
  // under hidden contention is *airtime*: collisions burn a 20-octet RTS
  // instead of a 600-octet data frame, so far fewer data PPDUs fly.
  EXPECT_GE(without.delivered, 50);
  EXPECT_GE(with.delivered, 50);
  EXPECT_GT(without.data_frames_on_air, 70u);   // collision-driven retries
  EXPECT_LT(with.data_frames_on_air,
            without.data_frames_on_air * 3 / 4);
}

}  // namespace
}  // namespace politewifi::mac
