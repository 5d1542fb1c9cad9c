// Compile-gate test: with the metrics instrumentation compiled out, the
// PW_* macros must expand to no-ops — no registry traffic, no evaluation
// cost — while the Registry class itself stays linkable (pw_run always
// can emit an all-zero block).
//
// PW_OBS_FORCE_OFF gives this one TU the -DPW_METRICS=OFF expansion even
// in the default ON build, so the gate is exercised by every CI run, not
// only by the dedicated metrics-off build job.
#define PW_OBS_FORCE_OFF 1
#include "obs/metrics.h"

#include <gtest/gtest.h>

namespace politewifi {
namespace {

static_assert(PW_OBS_ON == 0,
              "PW_OBS_FORCE_OFF must force the no-op macro expansion");

TEST(ObsNoop, MacrosCompileToNothingWhenForcedOff) {
  obs::Registry::reset();
  obs::Registry::set_enabled(true);  // even enabled: macros are gone
  PW_COUNT(kMacAcksSent);
  PW_COUNT_N(kMacAcksSent, 100);
  PW_GAUGE_MAX(kMediumRadiosPeak, 42);
  PW_HIST(kMacTxOctets, 64);
  { PW_TIMEIT(kRuntimeExperimentWallNs, "noop"); }
  obs::Registry::set_enabled(false);
  EXPECT_EQ(obs::Registry::counter_value(obs::Counter::kMacAcksSent), 0);
  EXPECT_EQ(obs::Registry::gauge_value(obs::Gauge::kMediumRadiosPeak), 0);
  EXPECT_EQ(obs::Registry::hist_total(obs::Hist::kMacTxOctets), 0);
  EXPECT_EQ(obs::Registry::hist_total(obs::Hist::kRuntimeExperimentWallNs),
            0);
}

TEST(ObsNoop, MacroArgumentsAreNotEvaluated) {
  obs::Registry::reset();
  obs::Registry::set_enabled(true);
  int evaluations = 0;
  [[maybe_unused]] const auto bump = [&evaluations] { return ++evaluations; };
  PW_COUNT_N(kMacAcksSent, bump());
  PW_GAUGE_MAX(kMediumRadiosPeak, bump());
  PW_HIST(kMacTxOctets, bump());
  obs::Registry::set_enabled(false);
  EXPECT_EQ(evaluations, 0)
      << "no-op metrics macros must not evaluate their value expressions";
}

}  // namespace
}  // namespace politewifi
