#ifndef TREEWALK_ENGINE_ENGINE_H_
#define TREEWALK_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/program.h"
#include "src/common/metrics.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

class BatchJournal;

/// Retry behavior for one job.  A failed attempt whose status is
/// retryable (kDeadlineExceeded, kResourceExhausted, kInternal) is rerun
/// up to `max_attempts` times total, sleeping a randomized ("full
/// jitter") backoff between attempts: retry k draws uniformly from
/// [0, min(initial_backoff_ms · 2^k, max_backoff_ms)], using a
/// deterministic per-job RNG seeded from EngineOptions::backoff_seed —
/// so simultaneous retry storms across jobs desynchronize instead of
/// thundering in lockstep.  The sleep polls the batch's cancel flag
/// every few milliseconds; cancellation during backoff does not hang
/// the worker.  With `degrade` set, each retry also steps
/// down a degradation ladder that trades evaluation features for
/// footprint, in order:
///
///   rung 0  as submitted
///   rung 1  compile_selectors off (no axis index / bitset matrices)
///   rung 2  + cache_selectors off (no per-run selector cache)
///   rung 3  + detect_cycles off, max_steps capped at degraded_max_steps
///
/// A success on rung > 0 is still an exact result — the toggled options
/// are all semantically invisible except the rung-3 cycle policy, where
/// a looping run reports kResourceExhausted (step cap) instead of
/// rejecting with kCycle.  The rung of every attempt is recorded in
/// JobResult::attempts.
struct RetryPolicy {
  /// Total attempts (1 = no retries).
  int max_attempts = 1;
  /// Upper bound of the first retry's jitter window; doubles each
  /// further retry up to `max_backoff_ms`.  0 disables backoff sleeps.
  std::int64_t initial_backoff_ms = 1;
  /// Cap on the exponential window — without one, a long retry ladder
  /// sleeps unboundedly (2^k growth) instead of retrying.
  std::int64_t max_backoff_ms = 1000;
  /// Walk the degradation ladder on retries (off = retry as submitted).
  bool degrade = true;
  /// Step cap applied at rung 3, replacing cycle detection as the
  /// termination guarantee.
  std::int64_t degraded_max_steps = 1 << 20;
};

/// One (program, document) evaluation request.  The engine delimits the
/// tree itself (once per distinct Tree pointer — jobs may share inputs).
/// `program` and `tree` are borrowed: they must outlive the RunBatch()
/// call and are accessed read-only (see docs/ENGINE.md for the full
/// thread-safety contract).  `options.cancel` and `options.governor`
/// are overwritten by the engine (the batch-wide flag and a per-attempt
/// governor built from `deadline_ms` / `memory_budget_bytes`).
struct BatchJob {
  const Program* program = nullptr;
  const Tree* tree = nullptr;
  RunOptions options;
  /// Per-attempt wall-clock deadline in milliseconds; 0 = none.  A trip
  /// fails the attempt with kDeadlineExceeded.
  std::int64_t deadline_ms = 0;
  /// Memory budget in bytes for the run's tracked structures; 0 =
  /// unlimited.  A trip fails the attempt with kResourceExhausted.
  std::int64_t memory_budget_bytes = 0;
  RetryPolicy retry;
  /// Stable key for write-ahead journaling (src/engine/manifest.h
  /// derives it from the job's file contents).  0 = unjournaled: the
  /// job is run but never recorded, even when RunBatch has a journal.
  std::uint64_t job_id = 0;
};

/// Outcome of one job.  `status` is non-OK when the run aborted (budget
/// exhausted, cancelled, precondition violated); `run` is meaningful
/// only when `status.ok()`.
struct JobResult {
  /// One entry per attempt, in order; the last entry's status equals
  /// `status`.  `rung` is the degradation-ladder rung the attempt ran
  /// at; `memory_tripped` records whether its memory budget rejected a
  /// charge.
  struct Attempt {
    int rung = 0;
    Status status;
    bool memory_tripped = false;
  };

  Status status;
  RunResult run;
  std::vector<Attempt> attempts;
};

/// Aggregate instrumentation over a batch, summed over jobs in job
/// order (deterministic regardless of thread count).  Counter
/// definitions are in docs/ENGINE.md.
struct EngineStats {
  std::int64_t jobs = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  /// Jobs with a non-OK status (includes cancelled).
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t steps = 0;
  std::int64_t subcomputations = 0;
  std::int64_t atp_calls = 0;
  std::int64_t selector_cache_hits = 0;
  std::int64_t selector_cache_misses = 0;
  std::int64_t compiled_selector_evals = 0;
  /// compiled_selector_evals split by matrix representation (the
  /// planner's pick).
  std::int64_t interval_selector_evals = 0;
  std::int64_t dense_selector_evals = 0;
  /// Cost-based planner strategy picks (one per distinct selector per
  /// run; all zero with compile_selectors off).
  std::int64_t planner_picks_reference = 0;
  std::int64_t planner_picks_dense = 0;
  std::int64_t planner_picks_interval = 0;
  std::int64_t store_updates = 0;
  /// Attempts that failed with kDeadlineExceeded.
  std::int64_t deadline_hits = 0;
  /// Attempts whose memory budget rejected a charge.
  std::int64_t memory_trips = 0;
  /// Re-run attempts beyond each job's first (sum over jobs).
  std::int64_t retries = 0;
  /// Jobs that ultimately succeeded on a degradation rung > 0.
  std::int64_t degraded_successes = 0;

  friend bool operator==(const EngineStats&, const EngineStats&) = default;
};

struct BatchResult {
  /// Index-aligned with the submitted jobs.
  std::vector<JobResult> results;
  EngineStats stats;
  /// Process-global registry snapshot taken as the batch returns
  /// (docs/OBSERVABILITY.md).  The engine-family counters are
  /// incremented by the exact rules that build `stats`, so on a
  /// fresh registry the two reconcile exactly; unlike `stats`, the
  /// snapshot also counts the work of *failed* attempts and carries
  /// latency histograms.  Empty when built with -DTREEWALK_METRICS=OFF.
  MetricsSnapshot metrics;
};

struct EngineOptions {
  /// Worker threads; 1 runs the batch inline on the calling thread.
  /// Results are identical for every value (see docs/ENGINE.md).
  int num_threads = 1;
  /// Seeds the per-job backoff-jitter RNG (see RetryPolicy).  Only
  /// sleep durations depend on it — results never do.
  std::uint64_t backoff_seed = 0;
};

/// Fixed-size thread-pool batch evaluator: N workers drain a shared work
/// queue of jobs, each running the deterministic interpreter on its own
/// per-job state.  Guarantees:
///
///   - Deterministic results: results[i] depends only on jobs[i], so the
///     result vector (verdicts, reject reasons, step counts, traces) is
///     byte-identical to serial execution regardless of num_threads.
///   - Shared inputs stay read-only: one Program or Tree may back many
///     jobs.  String constants of every job's formulas are pre-interned
///     in job order before workers start, so value handles do not depend
///     on scheduling (the one mutable corner of a Tree; docs/ENGINE.md).
///   - Cooperative cancellation: RequestCancel() makes running jobs
///     abort with kCancelled at the next transition and unstarted jobs
///     fail immediately; RunBatch still returns a fully populated,
///     index-aligned result vector.
/// Runs one job's full retry ladder — degradation rungs, jittered
/// backoff, per-attempt governor, the engine metric family — against an
/// already-delimited tree, on the calling thread.  This is the resident
/// daemon's execution path (src/server): the tree was delimited once at
/// corpus load, so per-request cost is the run itself, and many requests
/// may execute concurrently against one tree (interning is the only
/// mutation and is internally synchronized).  `job.tree` is ignored;
/// `delimited_tree` must be the Delimit() image.  `cancel` is polled
/// cooperatively (the server's drain flag).  Shares its attempt executor
/// with BatchEngine::RunBatch, so semantics cannot drift between the
/// two front ends.
JobResult RunResidentJob(const BatchJob& job, const Tree& delimited_tree,
                         const std::atomic<bool>& cancel,
                         std::uint64_t backoff_seed = 0);

class BatchEngine {
 public:
  explicit BatchEngine(EngineOptions options = {});

  /// Runs all jobs and blocks until every one finished (or was
  /// cancelled).  Errors on malformed jobs (null program/tree, empty
  /// tree) are reported per-job in JobResult::status, not as a batch
  /// error; the batch itself only fails on invalid EngineOptions.
  /// Clears any cancellation left over from a previous batch.
  ///
  /// With a non-null `journal`, every job whose `job_id` is non-zero
  /// streams a kJobStarted record per attempt and exactly one terminal
  /// kJobFinished record into it (src/engine/batch_journal.h) — except
  /// jobs cancelled before their first attempt, which stay unrecorded
  /// so a resume reruns them.  Journal I/O failures never fail jobs;
  /// check journal->first_error() after the batch.
  Result<BatchResult> RunBatch(const std::vector<BatchJob>& jobs,
                               BatchJournal* journal = nullptr);

  /// Requests cooperative cancellation of the in-flight batch.  Safe to
  /// call from any thread, including concurrently with RunBatch.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

 private:
  EngineOptions options_;
  std::atomic<bool> cancel_{false};
};

}  // namespace treewalk

#endif  // TREEWALK_ENGINE_ENGINE_H_
