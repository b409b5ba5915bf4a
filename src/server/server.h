#ifndef TREEWALK_SERVER_SERVER_H_
#define TREEWALK_SERVER_SERVER_H_

/// `twq serve` (docs/SERVER.md): a resident query daemon over a
/// preloaded corpus of trees.  The design goal is *overload safety*,
/// not raw throughput — every resource a client can consume is bounded
/// before it is consumed:
///
///   frames      length-validated before allocation (src/server/frame.h)
///   queue       at most ServerOptions::max_queue requests in flight;
///               excess is shed with a typed kOverloaded, never queued
///   memory      each admitted request reserves its per-request budget
///               against the server-wide budget; reservation failure is
///               kOverloaded (admission), budget trips inside the run
///               are kResourceExhausted (execution)
///   time        every request runs under a deadline (client budget
///               clamped to max_deadline_ms, else default_deadline_ms)
///   sockets     at most max_connections clients; slow readers/writers
///               are reaped after io_timeout_ms
///
/// Shutdown is a first-class path: BeginDrain() stops accepting,
/// in-flight requests get drain_deadline_ms to finish, stragglers are
/// cooperatively cancelled (kCancelled on the wire, counted `drained`),
/// and AwaitTermination() returns only when every thread is joined.
/// The accounting invariant — checked by tests/serve_chaos_test.cc down
/// to the last request — is
///
///   admitted == served_ok + served_error + drained
///
/// and every shed request is counted by reason.  Failpoint sites
/// server/{accept,read,write,dispatch} inject faults at each boundary.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/engine/engine.h"
#include "src/engine/input_cache.h"
#include "src/server/frame.h"

namespace treewalk {

struct ServerOptions {
  /// Listen address.  Loopback by default: the daemon speaks an
  /// unauthenticated protocol and is meant to sit behind a local
  /// front end.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  /// Worker threads executing admitted queries.
  int num_workers = 4;
  /// Admission bound: maximum requests admitted but not yet answered
  /// (queued + running).  The queue can never grow beyond it.
  int max_queue = 64;
  /// Maximum simultaneously open client connections; excess connections
  /// are sent a best-effort kOverloaded and closed at accept.
  int max_connections = 64;
  /// Server-wide memory high-water for admitted requests: each
  /// admission reserves request_memory_budget_bytes against it.
  /// 0 = unlimited.
  std::int64_t memory_budget_bytes = 0;
  /// Memory budget each query runs under (0 = unlimited).
  std::int64_t request_memory_budget_bytes = 64ll << 20;
  /// Deadline for requests that do not carry a client budget.
  std::int64_t default_deadline_ms = 1000;
  /// Clamp on client-supplied deadline budgets.
  std::int64_t max_deadline_ms = 10000;
  /// How long BeginDrain() lets in-flight requests finish before
  /// cancelling them cooperatively.
  std::int64_t drain_deadline_ms = 2000;
  /// Slow-client guard: a connection that keeps a frame read or write
  /// blocked longer than this is reaped.
  std::int64_t io_timeout_ms = 5000;
  /// Retry policy applied to every query.  The RetryPolicy default
  /// (max_attempts = 1) means no server-side retries: the client owns
  /// end-to-end retries, and a retry budget multiplied across a full
  /// queue would defeat the deadline math.
  RetryPolicy retry;
  /// Seeds backoff jitter when retry.max_attempts > 1.
  std::uint64_t backoff_seed = 0;
  /// Poison-request quarantine: a formula x tree pair whose governor
  /// trips (deadline / memory) this many times *consecutively* is shed
  /// with a typed kQuarantined instead of re-burning a worker —
  /// Gottlob-Koch-Schulz pathological queries stay pathological no
  /// matter how often a client resubmits them.  0 disables the
  /// quarantine.  A served success (or any non-governor verdict) for
  /// the pair resets its streak; a corpus reload clears the table.
  int max_consecutive_failures = 0;
};

/// Monotonic counters behind the `stats` wire request.  All atomics:
/// read coherently enough for the reconciliation invariant because
/// every counter is incremented exactly once per request, before the
/// response that makes the client's observation possible.
struct ServerCounters {
  std::atomic<std::int64_t> connections_accepted{0};
  std::atomic<std::int64_t> connections_rejected{0};
  std::atomic<std::int64_t> requests_admitted{0};
  std::atomic<std::int64_t> served_ok{0};
  std::atomic<std::int64_t> served_error{0};
  std::atomic<std::int64_t> drained{0};
  std::atomic<std::int64_t> shed_queue{0};
  std::atomic<std::int64_t> shed_memory{0};
  std::atomic<std::int64_t> shed_draining{0};
  std::atomic<std::int64_t> protocol_errors{0};
  std::atomic<std::int64_t> slow_clients_reaped{0};
  std::atomic<std::int64_t> pings{0};
  std::atomic<std::int64_t> stats_requests{0};
  std::atomic<std::int64_t> metrics_requests{0};
  std::atomic<std::int64_t> health_probes{0};
  std::atomic<std::int64_t> ready_probes{0};
  /// Queries shed with kQuarantined (counted served_error as well: the
  /// request was admitted and answered, just without burning a worker).
  std::atomic<std::int64_t> quarantined{0};
  /// Completed corpus generation swaps (SwapCorpus calls).
  std::atomic<std::int64_t> reloads{0};
  /// Cost-based planner strategy picks accumulated from served queries'
  /// RunStats (see src/logic/planner.h).
  std::atomic<std::int64_t> planner_picks_reference{0};
  std::atomic<std::int64_t> planner_picks_dense{0};
  std::atomic<std::int64_t> planner_picks_interval{0};
};

/// The daemon.  Lifecycle: construct → Start() → (serve) →
/// BeginDrain() → AwaitTermination().  All public methods are
/// thread-safe; BeginDrain() may be called from a signal-polling
/// driver loop at any time and is idempotent.
class QueryServer {
 public:
  /// `corpus` is the startup generation; queries resolve tree names
  /// through Lookup() only — every generation is preloaded before it is
  /// swapped in, so the hot path never does I/O.  SwapCorpus() replaces
  /// it atomically at reload.
  QueryServer(ServerOptions options,
              std::shared_ptr<ResidentTreeCache> corpus);
  /// Borrowed-corpus convenience for callers that own the cache for the
  /// server's whole lifetime (tests, benchmarks).  `corpus` must then
  /// outlive the server; SwapCorpus() still works and simply drops the
  /// non-owning reference.
  QueryServer(ServerOptions options, ResidentTreeCache* corpus);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the accept loop and worker pool.
  Status Start();

  /// The bound port (after Start(); meaningful with options.port == 0).
  int port() const { return port_; }

  /// Stops accepting, lets in-flight work finish within
  /// drain_deadline_ms, then cancels stragglers.  Idempotent.
  void BeginDrain();

  /// Blocks until every thread is joined.  Requires BeginDrain() to
  /// have been called (or calls it).  Safe to call once.
  void AwaitTermination();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Readiness as answered by the kReady probe: started, not draining,
  /// and holding a corpus generation with at least one tree.
  bool ready() const;

  /// The corpus generation new queries will pin (never null after
  /// construction).  In-flight queries may still be running on an
  /// earlier generation they pinned at dispatch.
  std::shared_ptr<ResidentTreeCache> corpus() const;

  /// Atomic live-reload swap: `next` becomes the generation every
  /// query dispatched from now on pins; queries already running keep
  /// their pinned generation until they answer, at which point the old
  /// cache (and its memory accounting) is released with the last pin.
  /// `build_ms` is the off-thread build latency, recorded in
  /// treewalk_server_reload_latency_ms.  The quarantine table is
  /// cleared — a new corpus deserves a fresh verdict.  Null `next` is
  /// ignored (a failed reload keeps the old generation serving).
  void SwapCorpus(std::shared_ptr<ResidentTreeCache> next, double build_ms);

  const ServerCounters& counters() const { return counters_; }

  /// The `stats` response body: server counters, gauges, and corpus
  /// cache occupancy, keys catalogued in docs/SERVER.md.
  StatsMap BuildStats() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// One admitted query waiting for / occupying a worker.
  struct PendingRequest {
    QueryRequest query;
    std::string response;  // complete encoded frame
    bool completed = false;
    std::mutex mu;
    std::condition_variable cv;
  };

  void AcceptLoop();
  void ConnectionLoop(Connection* conn);
  void WorkerLoop();

  /// Handles one well-framed request on the connection thread; returns
  /// the complete response frame.
  std::string HandleFrame(const Frame& frame);
  /// Admission control + dispatch for a query; returns the response.
  std::string DispatchQuery(QueryRequest query);
  /// Executes one admitted query on a worker.
  std::string ExecuteQuery(const QueryRequest& query);

  /// Reaps finished connection threads (accept loop housekeeping).
  void JoinFinishedConnections();

  /// FNV-1a fingerprint of a formula x tree pair (quarantine key).
  static std::uint64_t QuarantineKey(const QueryRequest& query);
  /// True when the pair's consecutive-governor-trip streak has crossed
  /// options_.max_consecutive_failures.
  bool IsQuarantined(std::uint64_t key);
  /// Folds one executed query's verdict into the streak table.
  void RecordQuarantineOutcome(std::uint64_t key, bool governor_tripped);

  ServerOptions options_;
  mutable std::mutex corpus_mu_;
  std::shared_ptr<ResidentTreeCache> corpus_;  // guarded by corpus_mu_
  ServerCounters counters_;

  /// Consecutive governor-trip streaks by formula x tree fingerprint,
  /// bounded: at kQuarantineTableCap entries the table is cleared (the
  /// cost of forgetting a streak is one more wasted attempt; the cost
  /// of an unbounded table is a memory leak an adversary controls).
  static constexpr std::size_t kQuarantineTableCap = 4096;
  std::mutex quarantine_mu_;
  std::unordered_map<std::uint64_t, int> quarantine_;

  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> draining_{false};
  std::atomic<bool> cancel_{false};        // polled by running queries
  std::atomic<bool> stop_workers_{false};
  std::atomic<int> open_connections_{0};
  std::atomic<int> inflight_{0};           // admitted, not yet answered
  std::atomic<std::int64_t> reserved_bytes_{0};
  std::atomic<std::uint64_t> next_request_id_{1};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest*> queue_;

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  mutable std::mutex lifecycle_mu_;
  bool started_ = false;
  bool terminated_ = false;
};

}  // namespace treewalk

#endif  // TREEWALK_SERVER_SERVER_H_
