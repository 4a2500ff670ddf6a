// End-to-end observability check: run the learning loop on a small world
// with metrics and tracing enabled, then parse the emitted JSON and verify
// the acceptance-level telemetry is present — the latest iteration's
// realized benefit, CELF evaluation counts, the thread-pool queue-wait
// histogram, the per-round learning curve as timeseries —
// and that two identical runs produce byte-identical documents once the
// wall-clock fields are stripped (the determinism contract from DESIGN.md).
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluate.h"
#include "core/learning_timeline.h"
#include "core/orchestrator.h"
#include "core/sim_environment.h"
#include "netsim/sim.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "tests/json_test_util.h"
#include "tests/world_fixture.h"

namespace painter {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = test::MakeWorld();
    inst_ = test::MakeInstance(w_);
  }

  static core::OrchestratorConfig LearningConfig() {
    core::OrchestratorConfig cfg;
    cfg.prefix_budget = 4;
    cfg.max_learning_iterations = 3;
    cfg.learning_stop_frac = -1.0;  // run all 3 iterations every time
    cfg.num_threads = 4;
    return cfg;
  }

  // One full learning run with fixed seeds, instrumented registry-wide.
  // Returns the metrics snapshot taken right after the run.
  std::string RunLearningOnce(const std::string& trace_path) {
    obs::Metrics().ResetValues();
    if (!trace_path.empty()) obs::TraceSink::Enable(trace_path);

    core::Orchestrator orch{inst_, LearningConfig()};
    core::SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
    reports_ = orch.Learn(env);
    EXPECT_FALSE(reports_.empty());

    if (!trace_path.empty()) obs::TraceSink::Disable();
    return obs::Metrics().ToJson();
  }

  test::World w_;
  core::ProblemInstance inst_;
  std::vector<core::Orchestrator::IterationReport> reports_;
};

TEST_F(ObsIntegrationTest, MetricsCaptureLearningRun) {
  const std::string json = RunLearningOnce("");
  const test::JsonValue doc = test::ParseJson(json);

  const test::JsonValue& counters = doc.At("counters");
  // CELF work actually happened and was counted.
  EXPECT_GT(counters.At("orchestrator.celf.evaluations").AsNumber(), 0.0);
  EXPECT_GT(counters.At("orchestrator.celf.commits").AsNumber(), 0.0);
  EXPECT_EQ(counters.At("orchestrator.learn.iterations").AsNumber(), 3.0);
  EXPECT_GT(counters.At("orchestrator.model.observations").AsNumber(), 0.0);
  EXPECT_GT(counters.At("model.preferences_learned").AsNumber(), 0.0);
  EXPECT_GT(counters.At("evaluator.predict.calls").AsNumber(), 0.0);
  EXPECT_GT(counters.At("bgpsim.propagations").AsNumber(), 0.0);
  // Predict's per-UG loop ran through the pool.
  EXPECT_GT(counters.At("threadpool.parallel_for.calls").AsNumber(), 0.0);

  // The latest iteration's learning telemetry agrees with the run's actual
  // result. The per-iteration curve is Learn()'s reports (and
  // LearningTimeline's round series, below), never a gauge per iteration.
  ASSERT_EQ(reports_.size(), 3u);
  const core::Orchestrator::IterationReport& last = reports_.back();
  const test::JsonValue& gauges = doc.At("gauges");
  EXPECT_EQ(gauges.At("orchestrator.learn.last.iteration").AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(gauges.At("orchestrator.learn.last.realized_ms").AsNumber(),
                   last.realized_ms);
  EXPECT_DOUBLE_EQ(
      gauges.At("orchestrator.learn.last.predicted_mean_ms").AsNumber(),
      last.predicted.mean_ms);
  EXPECT_EQ(gauges.At("orchestrator.learn.last.prefixes_used").AsNumber(),
            static_cast<double>(last.prefixes_used));
  EXPECT_TRUE(gauges.Has("orchestrator.learn.last.preferences_total"));
  const std::regex iter_family{R"(^orchestrator\.learn\.iter\d+\.)"};
  for (const auto& [name, value] : gauges.AsObject()) {
    EXPECT_FALSE(std::regex_search(name, iter_family)) << name;
  }
  EXPECT_LE(gauges.At("orchestrator.prefix_budget.used").AsNumber(),
            gauges.At("orchestrator.prefix_budget.total").AsNumber());

  // Thread-pool queue-wait histogram: wall-clock values under wall_ keys,
  // with a workload-driven sample count.
  const test::JsonValue& hist =
      doc.At("histograms").At("threadpool.queue_wait_us");
  EXPECT_GT(hist.At("count").AsNumber(), 0.0);
  EXPECT_TRUE(hist.Has("wall_buckets"));
}

// The per-round learning curve is a timeseries: LearningTimeline appends
// one point per round, stamped at the round's sim time, equal to that
// round's report.
TEST_F(ObsIntegrationTest, RoundSeriesCarryThePerIterationCurve) {
  core::Orchestrator orch{inst_, LearningConfig()};
  core::SimEnvironment env{*w_.resolver, *w_.oracle, util::Rng{9}};
  netsim::Simulator sim;
  obs::TimeseriesRegistry ts;
  core::LearningTimeline timeline{
      sim, orch, env, {.round_interval_s = 60.0, .timeseries = &ts}};
  timeline.Start();
  sim.Run(600.0);
  ASSERT_TRUE(timeline.Finished());

  const auto& reports = timeline.reports();
  ASSERT_EQ(reports.size(), 3u);
  const auto realized = ts.View("orchestrator.round.realized_ms");
  const auto predicted = ts.View("orchestrator.round.predicted_ms");
  ASSERT_EQ(realized.values.size(), reports.size());
  ASSERT_EQ(predicted.values.size(), reports.size());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    EXPECT_EQ(realized.t_us[k], k * 60'000'000u);
    EXPECT_DOUBLE_EQ(realized.values[k], reports[k].realized_ms);
    EXPECT_DOUBLE_EQ(predicted.values[k], reports[k].predicted.estimated_ms);
  }
}

TEST_F(ObsIntegrationTest, TraceFileIsLoadableAndCoversTheRun) {
  const std::string path = ::testing::TempDir() + "obs_integration_trace.json";
  RunLearningOnce(path);

  const test::JsonValue doc = test::ParseJson(ReadFile(path));
  ASSERT_TRUE(doc.IsArray());
  const auto& events = doc.AsArray();
  ASSERT_FALSE(events.empty());

  int compute_config = 0;
  int learn_iteration = 0;
  int predict = 0;
  for (const auto& e : events) {
    const std::string& name = e.At("name").AsString();
    EXPECT_TRUE(e.Has("ts"));
    EXPECT_TRUE(e.Has("ph"));
    if (name == "orchestrator.ComputeConfig") ++compute_config;
    if (name == "orchestrator.learn.iteration") ++learn_iteration;
    if (name == "orchestrator.Predict") ++predict;
  }
  EXPECT_GE(compute_config, 1);
  EXPECT_EQ(learn_iteration, 3);
  EXPECT_GE(predict, 1);
}

TEST_F(ObsIntegrationTest, IdenticalRunsProduceByteIdenticalReports) {
  const std::string trace_a = ::testing::TempDir() + "obs_det_a.json";
  const std::string trace_b = ::testing::TempDir() + "obs_det_b.json";
  const std::string metrics_a = RunLearningOnce(trace_a);
  const std::string metrics_b = RunLearningOnce(trace_b);

  // Metrics: every non-wall-clock value (counters, gauges, histogram counts)
  // must match exactly; stripping only removes the wall_* timing payloads.
  EXPECT_EQ(obs::StripVolatile(metrics_a), obs::StripVolatile(metrics_b));

  // Trace: same span sequence, differing only in ts/dur.
  EXPECT_EQ(obs::StripVolatile(ReadFile(trace_a)),
            obs::StripVolatile(ReadFile(trace_b)));
}

TEST_F(ObsIntegrationTest, RunReportRoundTripsThroughDisk) {
  const std::string metrics_json = RunLearningOnce("");

  obs::RunReport report{"integration"};
  report.SetSeed(11);
  report.AddConfig("stubs", 150.0);
  report.AddPhaseMs("learn", 1.0);
  report.AddValue("realized_ms", reports_.back().realized_ms);
  report.AttachMetrics();

  const std::string path = ::testing::TempDir() + "obs_integration_report.json";
  report.Write(path);
  const test::JsonValue doc = test::ParseJson(ReadFile(path));
  EXPECT_EQ(doc.At("schema").AsString(), "painter.bench.v1");
  EXPECT_DOUBLE_EQ(doc.At("values").At("realized_ms").AsNumber(),
                   reports_.back().realized_ms);
  // The attached metrics are the live registry — same counters the direct
  // snapshot saw.
  const test::JsonValue direct = test::ParseJson(metrics_json);
  EXPECT_EQ(doc.At("metrics")
                .At("counters")
                .At("orchestrator.celf.evaluations")
                .AsNumber(),
            direct.At("counters")
                .At("orchestrator.celf.evaluations")
                .AsNumber());
}

}  // namespace
}  // namespace painter
