// End-to-end observability tests (docs/OBSERVABILITY.md): the batch
// engine's registry counters reconcile exactly with EngineStats, spans
// cover the engine's phases with correct nesting, and the twq CLI
// exporters (--metrics-out / --trace-out) plus the batch progress line
// work through a real subprocess over examples/batch.manifest.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/automata/builder.h"
#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/engine/engine.h"
#include "src/logic/tree_eval.h"
#include "src/tree/delimited.h"
#include "src/tree/generate.h"

namespace treewalk {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsEnabled) GTEST_SKIP() << "built with TREEWALK_METRICS=OFF";
    MetricsRegistry::Global().ResetForTest();
    FailpointRegistry::Global().DisableAll();
    Tracer::Global().Disable();
  }
  void TearDown() override { FailpointRegistry::Global().DisableAll(); }
};

struct Workload {
  std::vector<Program> programs;
  std::vector<Tree> trees;
  std::vector<BatchJob> jobs;
};

/// Mixed all-success workload: accepting and rejecting jobs over shared
/// programs and trees (no retries, no failures).
Workload SmallWorkload() {
  Workload w;
  w.programs.push_back(std::move(HasLabelProgram("a")).value());
  w.programs.push_back(std::move(ParityProgram("a")).value());
  w.trees.push_back(FullTree(2, 3));
  w.trees.push_back(FullTree(3, 2));
  for (int i = 0; i < 12; ++i) {
    BatchJob job;
    job.program = &w.programs[static_cast<std::size_t>(i) % 2];
    job.tree = &w.trees[static_cast<std::size_t>(i / 2) % 2];
    w.jobs.push_back(job);
  }
  return w;
}

/// The acceptance contract: on a fresh registry, the snapshot's engine
/// and interpreter counters equal the batch's EngineStats field for
/// field.  (The interpreter families coincide because every attempt
/// succeeded — EngineStats sums OK jobs only, the registry counts all
/// work.)
TEST_F(ObservabilityTest, CountersReconcileExactlyWithEngineStats) {
  Workload w = SmallWorkload();
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 4}).RunBatch(w.jobs)).value();
  ASSERT_EQ(batch.stats.failed, 0);
  ASSERT_GT(batch.stats.accepted, 0);
  ASSERT_GT(batch.stats.rejected, 0);

  const MetricsSnapshot& m = batch.metrics;
  EXPECT_EQ(m.Value("treewalk_engine_jobs_total", "accepted"),
            batch.stats.accepted);
  EXPECT_EQ(m.Value("treewalk_engine_jobs_total", "rejected"),
            batch.stats.rejected);
  EXPECT_EQ(m.Value("treewalk_engine_jobs_total", "failed"),
            batch.stats.failed);
  EXPECT_EQ(m.Value("treewalk_engine_jobs_total", "cancelled"),
            batch.stats.cancelled);
  EXPECT_EQ(m.Value("treewalk_engine_attempts_total"), batch.stats.jobs);
  EXPECT_EQ(m.Value("treewalk_engine_retries_total"), batch.stats.retries);
  EXPECT_EQ(m.Value("treewalk_engine_deadline_hits_total"),
            batch.stats.deadline_hits);
  EXPECT_EQ(m.Value("treewalk_engine_memory_trips_total"),
            batch.stats.memory_trips);
  EXPECT_EQ(m.Value("treewalk_engine_degraded_successes_total"),
            batch.stats.degraded_successes);

  EXPECT_EQ(m.Value("treewalk_interp_runs_total"), batch.stats.jobs);
  EXPECT_EQ(m.Value("treewalk_interp_steps_total"), batch.stats.steps);
  EXPECT_EQ(m.Value("treewalk_interp_subcomputations_total"),
            batch.stats.subcomputations);
  EXPECT_EQ(m.Value("treewalk_interp_atp_calls_total"),
            batch.stats.atp_calls);
  EXPECT_EQ(m.Value("treewalk_interp_selector_evals_total", "compiled"),
            batch.stats.compiled_selector_evals);
  EXPECT_EQ(m.Value("treewalk_interp_selector_evals_total", "reference"),
            batch.stats.atp_calls - batch.stats.compiled_selector_evals);
  EXPECT_EQ(m.Value("treewalk_interp_store_updates_total"),
            batch.stats.store_updates);

  // Latency histograms saw every job; the running gauge drained.
  const MetricSample* latency = m.Find("treewalk_engine_job_latency_ms");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->histogram.count,
            static_cast<std::uint64_t>(batch.stats.jobs));
  const MetricSample* wait = m.Find("treewalk_engine_queue_wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->histogram.count,
            static_cast<std::uint64_t>(batch.stats.jobs));
  EXPECT_EQ(m.Value("treewalk_engine_jobs_running"), 0);
  EXPECT_EQ(m.Value("treewalk_engine_workers"), 4);
}

/// Replayed steps are flushed once per run beside the steps counter:
/// on a fresh registry, traced (untabled) and untraced (tabled) runs of
/// Example 3.2 add their RunStats::tabled_steps, and the steps counter
/// still counts every transition, replayed ones included.
TEST_F(ObservabilityTest, TabledStepsCounterMatchesRunStats) {
  Program p = std::move(Example32Program("a")).value();
  std::mt19937 rng(4);
  Tree t = Example32Tree(rng, 200, /*uniform=*/true);
  RunOptions traced;
  traced.record_trace = true;
  RunResult untabled = std::move(Interpreter(p, traced).Run(t)).value();
  RunResult tabled = std::move(Interpreter(p).Run(t)).value();
  ASSERT_EQ(untabled.stats.tabled_steps, 0);
  ASSERT_GT(tabled.stats.tabled_steps, 0);

  const MetricsSnapshot m = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(m.Value("treewalk_interp_tabled_steps_total"),
            tabled.stats.tabled_steps);
  EXPECT_EQ(m.Value("treewalk_interp_steps_total"),
            untabled.stats.steps + tabled.stats.steps);
}

/// RunStats::subcomputations counts the subcomputations an atp() firing
/// starts, one per selected node, tabled or not, and the registry
/// counter adds exactly those.
TEST_F(ObservabilityTest, SubcomputationsCountSelectedNodes) {
  ProgramBuilder b(ProgramClass::kTwRL);
  b.SetStates("q0", "qf");
  b.DeclareRegister("X", 1);
  b.OnLookAhead("#top", "q0", "true", "q1", "X", "desc(x, y) & leaf(y)",
                "sub");
  b.OnUpdate("*", "sub", "true", "ret", "X", "u = 1", {"u"});
  b.OnMove("*", "ret", "true", "qf", Move::kStay);
  b.OnMove("#top", "q1", "true", "qf", Move::kStay);
  Program p = std::move(b.Build()).value();
  const Tree t = FullTree(3, 2);
  const Tree delimited = Delimit(t).tree;
  const std::vector<NodeId> selected =
      std::move(SelectNodes(delimited, p.rules()[0].action.selector,
                            delimited.root()))
          .value();
  ASSERT_GT(selected.size(), 1u);

  RunOptions traced;
  traced.record_trace = true;
  RunResult untabled = std::move(Interpreter(p, traced).Run(t)).value();
  RunResult tabled = std::move(Interpreter(p).Run(t)).value();
  for (const RunResult* r : {&untabled, &tabled}) {
    EXPECT_TRUE(r->accepted);
    EXPECT_EQ(r->stats.atp_calls, 1);
    EXPECT_EQ(r->stats.subcomputations,
              static_cast<std::int64_t>(selected.size()));
  }

  const MetricsSnapshot m = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(m.Value("treewalk_interp_subcomputations_total"),
            untabled.stats.subcomputations + tabled.stats.subcomputations);
  EXPECT_EQ(m.Value("treewalk_interp_atp_calls_total"), 2);
}

TEST_F(ObservabilityTest, RetriesAndFailuresReconcile) {
  // One injected retryable failure: attempt 1 trips the engine/worker
  // failpoint, the retry succeeds on degradation rung 1.
  FailpointRegistry::Config config;
  config.code = StatusCode::kInternal;
  config.max_fires = 1;
  FailpointRegistry::Global().Enable("engine/worker", config);

  Program fast = std::move(HasLabelProgram("a")).value();
  Tree small = FullTree(2, 3);
  std::vector<BatchJob> jobs(1);
  jobs[0].program = &fast;
  jobs[0].tree = &small;
  jobs[0].retry.max_attempts = 2;
  jobs[0].retry.initial_backoff_ms = 0;

  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
  ASSERT_TRUE(batch.results[0].status.ok()) << batch.results[0].status;
  ASSERT_EQ(batch.stats.retries, 1);
  ASSERT_EQ(batch.stats.degraded_successes, 1);

  const MetricsSnapshot& m = batch.metrics;
  EXPECT_EQ(m.Value("treewalk_engine_jobs_total", "accepted"), 1);
  EXPECT_EQ(m.Value("treewalk_engine_attempts_total"), 2);
  EXPECT_EQ(m.Value("treewalk_engine_retries_total"), 1);
  EXPECT_EQ(m.Value("treewalk_engine_degraded_successes_total"), 1);
  // The failpoint fired before the interpreter ran, so only the
  // successful attempt counts as a run.
  EXPECT_EQ(m.Value("treewalk_interp_runs_total"), 1);
}

TEST_F(ObservabilityTest, FailedJobsCountWorkTheStatsOmit) {
  // A null-program job fails its precheck; a sibling succeeds.  The
  // jobs_total{failed} counter must agree with EngineStats.
  Program fast = std::move(HasLabelProgram("a")).value();
  Tree small = FullTree(2, 3);
  std::vector<BatchJob> jobs(2);
  jobs[0].program = nullptr;
  jobs[0].tree = &small;
  jobs[1].program = &fast;
  jobs[1].tree = &small;

  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(jobs)).value();
  EXPECT_EQ(batch.stats.failed, 1);
  EXPECT_EQ(batch.metrics.Value("treewalk_engine_jobs_total", "failed"), 1);
  // The failed job never started an attempt.
  EXPECT_EQ(batch.metrics.Value("treewalk_engine_attempts_total"), 1);
}

TEST_F(ObservabilityTest, BatchSpansNestJobAndAttempt) {
  Tracer& tracer = Tracer::Global();
  tracer.Enable();
  Workload w = SmallWorkload();
  w.jobs.resize(2);
  // Single-threaded so the jobs run on the calling thread and nest
  // under the batch span (span parentage is per-thread).
  BatchResult batch =
      std::move(BatchEngine({.num_threads = 1}).RunBatch(w.jobs)).value();
  tracer.Disable();
  ASSERT_EQ(batch.stats.failed, 0);

  std::vector<TraceEvent> events = tracer.Collect();
  const TraceEvent* batch_span = nullptr;
  int job_spans = 0, attempt_spans = 0, queue_waits = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "batch") batch_span = &e;
  }
  ASSERT_NE(batch_span, nullptr);
  for (const TraceEvent& e : events) {
    if (e.name == "job") {
      ++job_spans;
      EXPECT_EQ(e.parent_id, batch_span->id);
    }
    if (e.name == "attempt") ++attempt_spans;
    if (e.name == "queue-wait") ++queue_waits;
  }
  EXPECT_EQ(job_spans, 2);
  EXPECT_EQ(attempt_spans, 2);
  EXPECT_EQ(queue_waits, 2);
  // Attempts nest under their job.
  for (const TraceEvent& e : events) {
    if (e.name != "attempt") continue;
    bool parent_is_job = false;
    for (const TraceEvent& p : events) {
      if (p.id == e.parent_id && p.name == "job") parent_is_job = true;
    }
    EXPECT_TRUE(parent_is_job);
  }
}

#if defined(TREEWALK_TWQ_PATH) && defined(TREEWALK_SOURCE_DIR)

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs the real twq binary over examples/batch.manifest and checks the
/// CLI surface: exit code, ≥1 stderr progress line, a scrapable
/// Prometheus file, a JSON metrics file, and a Chrome trace file.
TEST_F(ObservabilityTest, TwqBatchExportsMetricsTraceAndProgress) {
  const std::string dir = ::testing::TempDir();
  const std::string prom = dir + "twq_metrics.prom";
  const std::string json = dir + "twq_metrics.json";
  const std::string trace = dir + "twq_trace.json";
  const std::string err = dir + "twq_stderr.txt";
  std::remove(prom.c_str());
  std::remove(json.c_str());
  std::remove(trace.c_str());

  const std::string cmd = std::string("cd ") + TREEWALK_SOURCE_DIR + " && " +
                          TREEWALK_TWQ_PATH +
                          " batch examples/batch.manifest --jobs 2"
                          " --metrics-out " + prom + " --trace-out " + trace +
                          " >/dev/null 2>" + err;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << ReadWholeFile(err);

  const std::string progress = ReadWholeFile(err);
  EXPECT_NE(progress.find("progress: "), std::string::npos) << progress;
  EXPECT_NE(progress.find("jobs done"), std::string::npos) << progress;

  const std::string exposition = ReadWholeFile(prom);
  EXPECT_NE(exposition.find("# TYPE treewalk_engine_jobs_total counter"),
            std::string::npos);
  EXPECT_NE(exposition.find("treewalk_engine_jobs_total{status=\"accepted\"}"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("treewalk_engine_job_latency_ms_bucket{le=\"+Inf\"}"),
      std::string::npos);

  const std::string chrome = ReadWholeFile(trace);
  ASSERT_FALSE(chrome.empty());
  EXPECT_EQ(chrome.front(), '[');
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"batch\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"job\""), std::string::npos);

  const std::string cmd_json = std::string("cd ") + TREEWALK_SOURCE_DIR +
                               " && " + TREEWALK_TWQ_PATH +
                               " batch examples/batch.manifest --quiet"
                               " --metrics-out " + json +
                               " >/dev/null 2>/dev/null";
  ASSERT_EQ(std::system(cmd_json.c_str()), 0);
  const std::string as_json = ReadWholeFile(json);
  EXPECT_NE(as_json.find("\"metrics\": ["), std::string::npos);
  EXPECT_NE(as_json.find("\"name\": \"treewalk_engine_jobs_total\""),
            std::string::npos);
}

#endif  // TREEWALK_TWQ_PATH && TREEWALK_SOURCE_DIR

}  // namespace
}  // namespace treewalk
