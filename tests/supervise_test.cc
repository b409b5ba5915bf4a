// Kill-loop supervision harness (docs/SERVER.md, "Supervision"): the
// crash-only acceptance gate.  A real `twq serve` daemon runs under
// tools/twq_supervise.sh in a child process while a fleet of resilient
// QueryClients (src/client) drives live load, and this test SIGKILLs
// the daemon at random points, 25+ times, asserting after every cycle:
//
//   - the supervisor restarts the daemon and a kReady probe comes back
//     ok within a bounded window;
//   - the resilient fleet sees ZERO wrong answers — a restart may cost
//     retries, never a flipped verdict;
//   - error bursts are bounded: each worker's consecutive-failure
//     streak stays small because retries ride through the restart;
//   - the server's books stay coherent under live load
//     (admitted >= ok + error + drained, slack bounded by the
//     admission gate), and reconcile *exactly* once the fleet stops.
//
// A final SIGTERM to the supervisor must forward to the daemon, drain
// it (exit 75), and exit 75 itself.  Runs under TSan via the
// `threaded` label; fork/exec keeps the sanitizer runtimes out of the
// supervised processes themselves.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/client/client.h"
#include "tests/serve_test_util.h"

namespace treewalk {
namespace {

using serve_test::kAcceptAllProgram;
using serve_test::kScanProgram;

constexpr int kKillCycles = 25;
constexpr int kFleet = 4;

std::uint64_t NextRand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

/// Binds an ephemeral port, reads it back, releases it.  The usual
/// pick-a-free-port race is acceptable here: the daemon rebinds it
/// within milliseconds and nothing else in the test suite listens.
int PickFreePort() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  int port = getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                         &len) == 0
                 ? ntohs(addr.sin_port)
                 : -1;
  close(fd);
  return port;
}

struct FleetTally {
  std::atomic<std::int64_t> accepted{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<std::int64_t> wrong_answers{0};
  std::atomic<std::int64_t> failures{0};
  std::atomic<std::int64_t> max_failure_burst{0};
};

/// One resilient worker: alternates an accept-all query (oracle:
/// ACCEPT) with a needle scan (oracle: REJECT) until stopped, riding
/// restarts on the client's retry/backoff loop.
void FleetWorker(int port, int seed, const std::atomic<bool>& stop,
                 FleetTally& tally) {
  ClientOptions options;
  options.endpoint.port = port;
  options.retry.max_attempts = 12;
  options.retry.initial_backoff_ms = 5;
  options.retry.max_backoff_ms = 100;
  options.connect_timeout_ms = 300;
  options.io_timeout_ms = 2000;
  options.backoff_seed = 0xf1ee7ULL * static_cast<std::uint64_t>(seed + 1);
  QueryClient client(std::move(options));
  std::uint64_t rng = 0x12345ULL * static_cast<std::uint64_t>(seed + 7);
  std::int64_t burst = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const bool scan = (NextRand(rng) % 3) == 0;
    QueryOutcome outcome =
        client.Query("small.term", scan ? kScanProgram : kAcceptAllProgram);
    if (outcome.status.ok()) {
      burst = 0;
      if (outcome.result.accepted == scan) {
        // accept-all must accept, the needle scan must reject — a
        // flipped verdict across a crash/restart is the one thing this
        // harness exists to catch.
        tally.wrong_answers.fetch_add(1, std::memory_order_relaxed);
      } else if (outcome.result.accepted) {
        tally.accepted.fetch_add(1, std::memory_order_relaxed);
      } else {
        tally.rejected.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      tally.failures.fetch_add(1, std::memory_order_relaxed);
      ++burst;
      std::int64_t prev = tally.max_failure_burst.load();
      while (burst > prev &&
             !tally.max_failure_burst.compare_exchange_weak(prev, burst)) {
      }
      // Do not spin hot while the daemon is down mid-restart.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

class SuperviseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/twq_supervise_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    work_ = tmpl;
    ASSERT_EQ(mkdir((work_ + "/corpus").c_str(), 0755), 0);
    std::ofstream tree(work_ + "/corpus/small.term");
    tree << "a[x=1](b(c, d), e[x=2])";
    ASSERT_TRUE(tree.good());
    tree.close();
    pidfile_ = work_ + "/daemon.pid";
    log_ = work_ + "/incarnations.log";
  }

  void TearDown() override {
    if (supervisor_pid_ > 0) {
      kill(supervisor_pid_, SIGKILL);
      waitpid(supervisor_pid_, nullptr, 0);
    }
    pid_t daemon = ReadPidfile();
    if (daemon > 0) kill(daemon, SIGKILL);
    std::string cmd = "rm -rf '" + work_ + "'";
    ASSERT_EQ(system(cmd.c_str()), 0);
  }

  pid_t ReadPidfile() {
    std::ifstream in(pidfile_);
    long pid = 0;
    if (!(in >> pid)) return -1;
    return static_cast<pid_t>(pid);
  }

  /// fork/exec the shell supervisor around `twq serve` on `port`.
  void StartSupervisor(int port) {
    const std::string supervise =
        std::string(TREEWALK_SOURCE_DIR) + "/tools/twq_supervise.sh";
    const std::string port_str = std::to_string(port);
    const std::string corpus = work_ + "/corpus";
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: silence the daemon, point the supervisor's knobs at the
      // workspace, exec the script.  _exit on failure — no gtest here.
      std::string pidfile_env = "TWQ_SUPERVISE_PIDFILE=" + pidfile_;
      std::string log_env = "TWQ_SUPERVISE_LOG=" + log_;
      std::string backoff_env = "TWQ_SUPERVISE_BACKOFF_MS=20";
      char* envp[] = {pidfile_env.data(), log_env.data(), backoff_env.data(),
                      nullptr};
      char* argv[] = {const_cast<char*>("/bin/sh"),
                      const_cast<char*>(supervise.c_str()),
                      const_cast<char*>(TREEWALK_TWQ_PATH),
                      const_cast<char*>("serve"),
                      const_cast<char*>(corpus.c_str()),
                      const_cast<char*>("--port"),
                      const_cast<char*>(port_str.c_str()),
                      const_cast<char*>("--workers"),
                      const_cast<char*>("2"),
                      const_cast<char*>("--drain-ms"),
                      const_cast<char*>("2000"),
                      const_cast<char*>("--quiet"),
                      nullptr};
      int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        dup2(devnull, STDERR_FILENO);
      }
      execve("/bin/sh", argv, envp);
      _exit(127);
    }
    supervisor_pid_ = pid;
  }

  /// Polls a fresh ready probe until the daemon answers ok.  Fresh
  /// client each attempt: the previous incarnation's connection died
  /// with it.
  bool AwaitReady(int port, std::chrono::milliseconds budget) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      ClientOptions options;
      options.endpoint.port = port;
      options.connect_timeout_ms = 200;
      options.io_timeout_ms = 500;
      QueryClient probe(std::move(options));
      Result<bool> ready = probe.Ready();
      if (ready.ok() && *ready) return true;
      if (supervisor_pid_ > 0 &&
          waitpid(supervisor_pid_, nullptr, WNOHANG) != 0) {
        supervisor_pid_ = -1;  // supervisor itself died — unrecoverable
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  std::string work_;
  std::string pidfile_;
  std::string log_;
  pid_t supervisor_pid_ = -1;
};

TEST_F(SuperviseTest, KillLoopRestartsCleanlyWithZeroWrongAnswers) {
  const int port = PickFreePort();
  ASSERT_GT(port, 0);
  StartSupervisor(port);
  ASSERT_TRUE(AwaitReady(port, std::chrono::seconds(20)))
      << "daemon never became ready under the supervisor";

  std::atomic<bool> stop{false};
  FleetTally tally;
  std::vector<std::thread> fleet;
  // Stops and joins the fleet on every exit path.  An ASSERT_* below
  // returns from the test body; leaving joinable threads behind would
  // std::terminate the process before TearDown reaps the supervisor
  // and its daemon.
  struct FleetJoiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& fleet;
    ~FleetJoiner() {
      stop.store(true, std::memory_order_release);
      for (std::thread& t : fleet) {
        if (t.joinable()) t.join();
      }
    }
  } joiner{stop, fleet};
  fleet.reserve(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    fleet.emplace_back(FleetWorker, port, i, std::cref(stop),
                       std::ref(tally));
  }

  std::uint64_t rng = 0xdeadULL;
  int restarts_observed = 0;
  for (int cycle = 0; cycle < kKillCycles; ++cycle) {
    // Let the fleet run a random slice so the SIGKILL lands at varied
    // points: mid-query, mid-write, mid-accept, idle.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(10 + NextRand(rng) % 120));
    pid_t daemon = ReadPidfile();
    ASSERT_GT(daemon, 0) << "no pidfile before kill #" << cycle;
    ASSERT_EQ(kill(daemon, SIGKILL), 0) << "kill #" << cycle;
    ASSERT_TRUE(AwaitReady(port, std::chrono::seconds(30)))
        << "daemon not ready again after SIGKILL #" << cycle;
    ++restarts_observed;

    // Books under live load: never over-accounted, in-flight slack
    // bounded by the admission gate (exact reconciliation happens
    // after the fleet stops — a live snapshot legitimately has
    // admitted-but-unanswered requests).
    ClientOptions stats_options;
    stats_options.endpoint.port = port;
    stats_options.connect_timeout_ms = 500;
    QueryClient stats_client(std::move(stats_options));
    Result<StatsMap> stats = stats_client.Stats();
    if (stats.ok()) {
      const std::int64_t admitted = stats->Value("server.admitted");
      const std::int64_t accounted = stats->Value("server.served_ok") +
                                     stats->Value("server.served_error") +
                                     stats->Value("server.drained");
      EXPECT_LE(accounted, admitted) << "over-accounted after cycle " << cycle;
      EXPECT_LE(admitted - accounted, 64 + 64)
          << "in-flight slack beyond the admission gate after cycle "
          << cycle;
    }
  }
  EXPECT_EQ(restarts_observed, kKillCycles);

  // Quiesce the fleet, then the books must reconcile exactly on the
  // final incarnation.
  stop.store(true, std::memory_order_release);
  for (std::thread& t : fleet) t.join();
  {
    ClientOptions stats_options;
    stats_options.endpoint.port = port;
    QueryClient stats_client(std::move(stats_options));
    Result<StatsMap> stats = stats_client.Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->Value("server.admitted"),
              stats->Value("server.served_ok") +
                  stats->Value("server.served_error") +
                  stats->Value("server.drained"));
  }

  // The gates the harness exists for.
  EXPECT_EQ(tally.wrong_answers.load(), 0);
  EXPECT_GT(tally.accepted.load(), 0);
  EXPECT_GT(tally.rejected.load(), 0);
  // Bounded unavailability: a worker's worst consecutive-failure burst
  // stays far below what an unsupervised crash would cost.  Each
  // Query() already rides up to 12 attempts; 50 outcome-level failures
  // in a row would mean multi-second blackouts the supervisor is
  // supposed to prevent.
  EXPECT_LE(tally.max_failure_burst.load(), 50)
      << "unbounded error burst (failures=" << tally.failures.load() << ")";

  // Deliberate stop: SIGTERM forwards, the daemon drains (75), the
  // supervisor exits 75.
  ASSERT_EQ(kill(supervisor_pid_, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(supervisor_pid_, &status, 0), supervisor_pid_);
  supervisor_pid_ = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 75);

  // The incarnation log agrees: kKillCycles SIGKILL exits (137), one
  // drained exit 75.
  std::ifstream log(log_);
  int kills = 0, drains = 0, lines = 0;
  std::string line;
  while (std::getline(log, line)) {
    ++lines;
    if (line.find("exit 137") != std::string::npos) ++kills;
    if (line.find("exit 75") != std::string::npos) ++drains;
  }
  EXPECT_EQ(kills, kKillCycles);
  EXPECT_EQ(drains, 1);
  EXPECT_EQ(lines, kKillCycles + 1);
}

}  // namespace
}  // namespace treewalk
