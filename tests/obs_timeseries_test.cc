// Streaming-telemetry tests: timeseries rings, grid alignment, export
// determinism, and the flight recorder's ring/disabled-path contracts.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "netsim/sim.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"

namespace painter {
namespace {

// --- TimeseriesRegistry -----------------------------------------------------

TEST(TimeseriesTest, SamplesOnExactIntegerGrid) {
  obs::TimeseriesRegistry reg{{.period_s = 0.25}};
  netsim::Simulator sim;
  double v = 0.0;
  reg.RegisterSampler("test.grid", [&v]() { return v += 1.0; });
  netsim::StartSampling(sim, reg, 2.0);
  sim.Run(3.0);

  // 9 grid points: k = 0..8 at k * 250000 µs (horizon 2 s inclusive).
  EXPECT_EQ(reg.SamplesTaken(), 9u);
  EXPECT_EQ(reg.MaxSampleSkewUs(), 0u);
  const auto view = reg.View("test.grid");
  ASSERT_EQ(view.t_us.size(), 9u);
  for (std::size_t k = 0; k < view.t_us.size(); ++k) {
    EXPECT_EQ(view.t_us[k], k * 250000u);
    EXPECT_DOUBLE_EQ(view.values[k], static_cast<double>(k + 1));
  }
}

TEST(TimeseriesTest, EventRingWrapsAndKeepsExactTimes) {
  obs::TimeseriesRegistry reg{{.period_s = 1.0, .capacity = 4}};
  // 10 appends into a capacity-4 ring: only the last 4 survive, and their
  // reconstructed absolute times must be exact despite the delta encoding
  // folding evicted deltas into the base.
  for (std::uint64_t k = 0; k < 10; ++k) {
    reg.Append("test.events", 1000 + 7 * k, static_cast<double>(100 + k));
  }
  const auto view = reg.View("test.events");
  EXPECT_FALSE(view.sampled);
  EXPECT_EQ(view.dropped, 6u);
  ASSERT_EQ(view.t_us.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t k = 6 + i;
    EXPECT_EQ(view.t_us[i], 1000 + 7 * k);
    EXPECT_DOUBLE_EQ(view.values[i], static_cast<double>(100 + k));
  }
}

TEST(TimeseriesTest, SampledRingEvictsOldest) {
  obs::TimeseriesRegistry reg{{.period_s = 1.0, .capacity = 3}};
  double v = 0.0;
  reg.RegisterSampler("test.sampled", [&v]() { return v += 1.0; });
  for (std::uint64_t k = 0; k < 5; ++k) reg.SampleNow(k * 1000000u);
  const auto view = reg.View("test.sampled");
  EXPECT_EQ(view.dropped, 2u);
  ASSERT_EQ(view.values.size(), 3u);
  EXPECT_DOUBLE_EQ(view.values.front(), 3.0);  // samples 3, 4, 5 retained
  EXPECT_EQ(view.t_us.front(), 2000000u);
}

TEST(TimeseriesTest, ExportIsDeterministicAcrossIdenticalRuns) {
  const auto run = []() {
    obs::TimeseriesRegistry reg{{.period_s = 0.5}};
    netsim::Simulator sim;
    std::uint64_t ticks = 0;
    reg.RegisterSampler("z.gauge", [&ticks]() {
      return static_cast<double>(ticks++);
    });
    reg.RegisterSampler("a.frac", []() { return 0.25; });
    reg.Append("m.events", 123456, 7.0);
    reg.Append("m.events", 654321, 9.5);
    netsim::StartSampling(sim, reg, 5.0);
    sim.Run(6.0);
    return reg.ToJson();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"painter.timeseries.v1\""), std::string::npos);
  // Series are sorted by name in the export regardless of registration order.
  EXPECT_LT(a.find("\"a.frac\""), a.find("\"m.events\""));
  EXPECT_LT(a.find("\"m.events\""), a.find("\"z.gauge\""));
}

TEST(TimeseriesTest, StripVolatileEmptiesWallClockSeries) {
  obs::TimeseriesRegistry reg{{.period_s = 1.0}};
  reg.RegisterSampler("test.sim_ms", []() { return 42.0; });
  reg.RegisterSampler("test.rss_bytes", []() { return 1234.5; },
                      /*wall_clock=*/true);
  reg.SampleNow(0);
  reg.SampleNow(1000000);
  const std::string json = reg.ToJson();
  // Wall-clock series export under a wall_-prefixed sample key...
  EXPECT_NE(json.find("\"wall_samples\""), std::string::npos);
  const std::string stripped = obs::StripVolatile(json);
  // ...which StripVolatile empties, leaving the deterministic series alone.
  EXPECT_NE(stripped.find("\"wall_samples\":[]"), std::string::npos);
  EXPECT_EQ(stripped.find("1234.5"), std::string::npos);
  EXPECT_NE(stripped.find("42"), std::string::npos);
  // Same sim-time inputs -> the stripped export is stable.
  EXPECT_EQ(stripped, obs::StripVolatile(reg.ToJson()));
}

TEST(TimeseriesTest, DuplicateAndCrossKindNamesThrow) {
  obs::TimeseriesRegistry reg;
  reg.RegisterSampler("dup.name", []() { return 0.0; });
  EXPECT_THROW(reg.RegisterSampler("dup.name", []() { return 1.0; }),
               std::logic_error);
  EXPECT_THROW(reg.Append("dup.name", 0, 1.0), std::logic_error);
  reg.Append("ev.series", 10, 1.0);
  EXPECT_THROW(reg.Append("ev.series", 5, 2.0), std::invalid_argument);
}

TEST(TimeseriesTest, ReportAttachesTimeseriesBlock) {
  obs::TimeseriesRegistry reg{{.period_s = 1.0}};
  reg.Append("attach.check", 42, 3.0);
  obs::RunReport report{"timeseries_attach_test"};
  report.SetSeed(1);
  report.AttachTimeseries(reg);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"timeseries\":{\"schema\":\"painter.timeseries.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"attach.check\""), std::string::npos);
}

// --- FlightRecorder ---------------------------------------------------------

TEST(FlightRecorderTest, DisabledPathRecordsNothing) {
  obs::FlightRecorder::Disable();
  obs::FlightRecorder::Record(1, "test", obs::Severity::kInfo, "ignored",
                              {{"k", 1.0}});
  EXPECT_FALSE(obs::FlightRecorder::Enabled());
  EXPECT_EQ(obs::FlightRecorder::EventCount(), 0u);
  EXPECT_EQ(obs::FlightRecorder::Recorded(), 0u);
  // A Trip with no recorder and no PAINTER_POSTMORTEM_DIR produces no file.
  EXPECT_TRUE(obs::FlightRecorder::Trip(2, "test", "no dump").empty());
}

TEST(FlightRecorderTest, RingWrapsKeepingMostRecent) {
  obs::FlightRecorder::Enable(/*capacity=*/4);
  for (std::uint64_t k = 0; k < 10; ++k) {
    obs::FlightRecorder::Record(100 + k, "test.ring", obs::Severity::kInfo,
                                "ev", {{"k", static_cast<double>(k)}});
  }
  EXPECT_EQ(obs::FlightRecorder::EventCount(), 4u);
  EXPECT_EQ(obs::FlightRecorder::Recorded(), 10u);
  const auto events = obs::FlightRecorder::Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].t_us, 106 + i);  // oldest-first: k = 6..9
    ASSERT_EQ(events[i].kvs.size(), 1u);
    EXPECT_DOUBLE_EQ(events[i].kvs[0].second, static_cast<double>(6 + i));
  }
  obs::FlightRecorder::Disable();
}

TEST(FlightRecorderTest, PostMortemJsonIsStructuredAndDeterministic) {
  obs::FlightRecorder::Enable(8);
  obs::FlightRecorder::Record(10, "tm.edge", obs::Severity::kWarn,
                              "tunnel_down", {{"tunnel", 2.0}});
  obs::FlightRecorder::Record(20, "faultsim", obs::Severity::kError,
                              "violation");
  std::ostringstream a;
  obs::FlightRecorder::WritePostMortem(a, "test reason", 30);
  std::ostringstream b;
  obs::FlightRecorder::WritePostMortem(b, "test reason", 30);
  EXPECT_EQ(obs::StripVolatile(a.str()), obs::StripVolatile(b.str()));
  const std::string json = a.str();
  EXPECT_NE(json.find("\"schema\":\"painter.postmortem.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"test reason\""), std::string::npos);
  EXPECT_NE(json.find("\"component\":\"tm.edge\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  obs::FlightRecorder::Disable();
}

TEST(FlightRecorderTest, ResetClearsJournalButKeepsEnabledState) {
  obs::FlightRecorder::Enable(4);
  obs::FlightRecorder::Record(1, "test", obs::Severity::kInfo, "ev");
  obs::FlightRecorder::Reset();
  EXPECT_TRUE(obs::FlightRecorder::Enabled());
  EXPECT_EQ(obs::FlightRecorder::EventCount(), 0u);
  EXPECT_EQ(obs::FlightRecorder::Recorded(), 0u);
  obs::FlightRecorder::Disable();
}

}  // namespace
}  // namespace painter
