// QueryServer (src/server/server.h) end to end over loopback sockets:
// query answers match the direct interpreter, every boundary condition
// comes back as a *typed* wire error (overload, draining, unknown tree,
// bad program, deadline), drain cancels in-flight work cooperatively,
// the books reconcile (admitted == ok + error + drained), and the
// SIGHUP/Install re-entrancy contract of src/engine/shutdown holds.
// The subprocess leg runs tools/serve_smoke.sh against the real twq
// binary and asserts the documented drain exit code 75, and checks that
// twq_loadgen rejects malformed numeric flags before it connects.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/engine/input_cache.h"
#include "src/engine/shutdown.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/generate.h"
#include "src/tree/term_io.h"
#include "tests/serve_test_util.h"

namespace treewalk {
namespace {

using serve_test::Connect;
using serve_test::Exchange;
using serve_test::kAcceptAllProgram;
using serve_test::kScanProgram;
using serve_test::QueryFrame;
using serve_test::ReadFrame;
using serve_test::WriteAll;

/// A server over a two-tree corpus ("small", "big"), torn down in
/// order.  Options default to generous limits; tests tighten the knob
/// they exercise.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Global().DisableAll();
    if (kMetricsEnabled) MetricsRegistry::Global().ResetForTest();
  }

  void TearDown() override {
    if (server_) {
      server_->BeginDrain();
      server_->AwaitTermination();
    }
    FailpointRegistry::Global().DisableAll();
  }

  void StartServer(ServerOptions options) {
    corpus_ = std::make_unique<ResidentTreeCache>(0);
    ASSERT_TRUE(corpus_
                    ->GetOrLoad("small",
                                [] { return ParseTerm("a(b(c), d[x=1])"); })
                    .ok());
    ASSERT_TRUE(corpus_
                    ->GetOrLoad("big",
                                []() -> Result<Tree> {
                                  // ~65k nodes: a full DFS holds a
                                  // worker for many milliseconds, which
                                  // the drain tests rely on.
                                  return Result<Tree>(FullTree(2, 15));
                                })
                    .ok());
    server_ = std::make_unique<QueryServer>(options, corpus_.get());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  /// Scoped client connection.
  struct Client {
    int fd = -1;
    explicit Client(int port) : fd(Connect(port)) {}
    ~Client() {
      if (fd >= 0) close(fd);
    }
  };

  ErrorMsg ExpectError(const std::string& request) {
    Client client(server_->port());
    EXPECT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    EXPECT_TRUE(Exchange(client.fd, request, type, body));
    EXPECT_EQ(type, MessageType::kError);
    Result<ErrorMsg> error = DecodeError(body);
    EXPECT_TRUE(error.ok());
    return error.ok() ? *error : ErrorMsg{};
  }

  StatsMap FetchStats() {
    Client client(server_->port());
    EXPECT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    EXPECT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kStats, ""), type,
                         body));
    EXPECT_EQ(type, MessageType::kStatsResult);
    Result<StatsMap> stats = DecodeStats(body);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? *stats : StatsMap{};
  }

  void ExpectBooksReconcile() {
    const ServerCounters& c = server_->counters();
    EXPECT_EQ(c.requests_admitted.load(),
              c.served_ok.load() + c.served_error.load() + c.drained.load());
  }

  std::unique_ptr<ResidentTreeCache> corpus_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServeTest, StartsAndDrainsWithoutTraffic) {
  StartServer({});
  server_->BeginDrain();
  EXPECT_TRUE(server_->draining());
  server_->AwaitTermination();
  server_.reset();
}

TEST_F(ServeTest, PingStatsAndMetricsAnswerOnOneConnection) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);

  MessageType type;
  std::string body;
  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type, body));
  EXPECT_EQ(type, MessageType::kPong);
  EXPECT_TRUE(body.empty());

  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kStats, ""), type, body));
  ASSERT_EQ(type, MessageType::kStatsResult);
  Result<StatsMap> stats = DecodeStats(body);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Value("server.pings"), 1);
  EXPECT_EQ(stats->Value("server.open_connections"), 1);
  EXPECT_EQ(stats->Value("corpus.resident_trees"), 2);
  EXPECT_GT(stats->Value("corpus.resident_bytes"), 0);
  EXPECT_EQ(stats->Value("server.draining"), 0);

  if (kMetricsEnabled) {
    ASSERT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kMetrics, ""),
                         type, body));
    EXPECT_EQ(type, MessageType::kMetricsResult);
    EXPECT_NE(body.find("treewalk_server_connections_total"),
              std::string::npos);
  }
  EXPECT_EQ(server_->counters().pings.load(), 1);
  EXPECT_EQ(server_->counters().stats_requests.load(), 1);
}

TEST_F(ServeTest, QueryVerdictsMatchTheDirectInterpreter) {
  StartServer({});
  std::shared_ptr<const ResidentTreeCache::Prepared> tree =
      corpus_->Lookup("small");
  ASSERT_NE(tree, nullptr);

  for (const char* text : {kAcceptAllProgram, kScanProgram}) {
    Program program = std::move(ParseProgramText(text)).value();
    RunResult direct =
        std::move(Interpreter(program).RunDelimited(tree->delimited)).value();

    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    MessageType type;
    std::string body;
    ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", text), type, body));
    ASSERT_EQ(type, MessageType::kQueryResult) << text;
    Result<QueryResultMsg> result = DecodeQueryResult(body);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->accepted, direct.accepted) << text;
    EXPECT_EQ(result->steps, direct.stats.steps) << text;
    EXPECT_EQ(result->atp_calls, direct.stats.atp_calls) << text;
    EXPECT_EQ(result->attempts, 1u);
  }
  EXPECT_EQ(server_->counters().served_ok.load(), 2);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, SequentialQueriesReuseOneConnection) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);
  for (int i = 0; i < 16; ++i) {
    MessageType type;
    std::string body;
    ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", kAcceptAllProgram),
                         type, body))
        << i;
    ASSERT_EQ(type, MessageType::kQueryResult) << i;
    EXPECT_TRUE(DecodeQueryResult(body)->accepted);
  }
  EXPECT_EQ(server_->counters().served_ok.load(), 16);
  EXPECT_EQ(server_->counters().connections_accepted.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, UnknownTreeIsTypedNotFound) {
  StartServer({});
  ErrorMsg error = ExpectError(QueryFrame("no-such-tree", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kNotFound);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, UnparsableProgramIsTypedInvalidRequest) {
  StartServer({});
  ErrorMsg error = ExpectError(QueryFrame("small", "class bogus\n"));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, TinyDeadlineIsTypedDeadlineExceeded) {
  ServerOptions options;
  options.max_deadline_ms = 10000;
  StartServer(options);
  // A full scan of the 65k-node tree cannot finish in 1 ms.
  ErrorMsg error = ExpectError(QueryFrame("big", kScanProgram, 1));
  EXPECT_EQ(error.code, WireError::kDeadlineExceeded);
  EXPECT_EQ(server_->counters().served_error.load(), 1);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, FullQueueShedsWithTypedOverloaded) {
  ServerOptions options;
  options.max_queue = 1;  // one slot: a slow scan fills the queue
  options.num_workers = 1;
  options.default_deadline_ms = 60000;
  options.max_deadline_ms = 60000;
  StartServer(options);

  std::thread slow([this] {
    Client client(server_->port());
    if (client.fd < 0) return;
    MessageType type;
    std::string body;
    (void)Exchange(client.fd, QueryFrame("big", kScanProgram), type, body);
  });
  while (server_->counters().requests_admitted.load() < 1) {
    std::this_thread::yield();
  }

  // The slot is taken: the next query must shed, typed, immediately.
  ErrorMsg error = ExpectError(QueryFrame("small", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kOverloaded);
  EXPECT_EQ(server_->counters().shed_queue.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 1);
  slow.join();
  ExpectBooksReconcile();
}

TEST_F(ServeTest, MemoryHighWaterShedsWithTypedOverloaded) {
  ServerOptions options;
  options.memory_budget_bytes = 1;  // below one request's reservation
  StartServer(options);
  ErrorMsg error = ExpectError(QueryFrame("small", kAcceptAllProgram));
  EXPECT_EQ(error.code, WireError::kOverloaded);
  EXPECT_EQ(server_->counters().shed_memory.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, MalformedFramesAreTypedAndCounted) {
  StartServer({});
  {
    // A zero length prefix poisons the stream: typed error, then close.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, std::string(4, '\0')));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    ASSERT_EQ(type, MessageType::kError);
    EXPECT_EQ(DecodeError(body)->code, WireError::kInvalidRequest);
    EXPECT_FALSE(ReadFrame(client.fd, type, body));  // server closed
  }
  {
    // An oversized prefix is rejected before any allocation.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, std::string(4, '\xff')));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    EXPECT_EQ(type, MessageType::kError);
  }
  {
    // A well-framed but undecodable payload is recoverable: typed
    // error, connection stays usable.
    Client client(server_->port());
    ASSERT_GE(client.fd, 0);
    ASSERT_TRUE(WriteAll(client.fd, EncodeFrame(MessageType::kQuery, "xx")));
    MessageType type;
    std::string body;
    ASSERT_TRUE(ReadFrame(client.fd, type, body));
    ASSERT_EQ(type, MessageType::kError);
    EXPECT_EQ(DecodeError(body)->code, WireError::kInvalidRequest);
    ASSERT_TRUE(Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type,
                         body));
    EXPECT_EQ(type, MessageType::kPong);
  }
  EXPECT_GE(server_->counters().protocol_errors.load(), 3);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
}

TEST_F(ServeTest, ResponseTypeSentAsRequestIsRejected) {
  StartServer({});
  ErrorMsg error = ExpectError(EncodeFrame(MessageType::kPong, ""));
  EXPECT_EQ(error.code, WireError::kInvalidRequest);
  EXPECT_NE(error.message.find("sent as a request"), std::string::npos);
}

TEST_F(ServeTest, DrainingShedsNewQueriesWithTypedDraining) {
  StartServer({});
  Client client(server_->port());
  ASSERT_GE(client.fd, 0);
  // Exchange a ping first: connect() returning only proves the kernel
  // backlog took us, and a drain stops the accept loop — an
  // unaccepted connection would never be served.
  MessageType type;
  std::string body;
  ASSERT_TRUE(
      Exchange(client.fd, EncodeFrame(MessageType::kPing, ""), type, body));
  ASSERT_EQ(type, MessageType::kPong);
  server_->BeginDrain();
  ASSERT_TRUE(Exchange(client.fd, QueryFrame("small", kAcceptAllProgram), type,
                       body));
  ASSERT_EQ(type, MessageType::kError);
  EXPECT_EQ(DecodeError(body)->code, WireError::kDraining);
  EXPECT_EQ(server_->counters().shed_draining.load(), 1);
  EXPECT_EQ(server_->counters().requests_admitted.load(), 0);
  ExpectBooksReconcile();
}

TEST_F(ServeTest, DrainCancelsInFlightScansAndBooksReconcile) {
  ServerOptions options;
  options.num_workers = 1;  // serialize: most of the fleet stays queued
  options.drain_deadline_ms = 10;
  options.default_deadline_ms = 60000;
  options.max_deadline_ms = 60000;
  StartServer(options);

  constexpr int kFleet = 8;
  std::atomic<int> cancelled{0}, finished{0}, lost{0};
  std::vector<std::thread> fleet;
  fleet.reserve(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    fleet.emplace_back([this, &cancelled, &finished, &lost] {
      Client client(server_->port());
      if (client.fd < 0) {
        lost.fetch_add(1);
        return;
      }
      MessageType type;
      std::string body;
      if (!Exchange(client.fd, QueryFrame("big", kScanProgram), type, body)) {
        // The drain shut the socket before the response got out; the
        // server books the request anyway.
        lost.fetch_add(1);
        return;
      }
      if (type == MessageType::kError &&
          DecodeError(body)->code == WireError::kCancelled) {
        cancelled.fetch_add(1);
      } else {
        finished.fetch_add(1);
      }
    });
  }

  // Wait until the whole fleet is admitted, then pull the plug.
  while (server_->counters().requests_admitted.load() < kFleet) {
    std::this_thread::yield();
  }
  server_->BeginDrain();
  server_->AwaitTermination();
  for (std::thread& t : fleet) t.join();

  const ServerCounters& c = server_->counters();
  EXPECT_EQ(c.requests_admitted.load(), kFleet);
  EXPECT_EQ(c.requests_admitted.load(),
            c.served_ok.load() + c.served_error.load() + c.drained.load());
  // One worker over eight multi-millisecond scans and a 10 ms grace:
  // stragglers must exist, so the cancel path must have fired.
  EXPECT_GT(c.drained.load(), 0);
  // Client-observed outcomes are a subset of the server's books (a
  // response can be lost to the final socket shutdown, never invented).
  EXPECT_EQ(finished.load() + cancelled.load() + lost.load(), kFleet);
  EXPECT_LE(cancelled.load(), c.drained.load());
  EXPECT_LE(finished.load(), c.served_ok.load() + c.served_error.load());
  server_.reset();
}

TEST_F(ServeTest, BeginDrainIsIdempotentAndStopsAccepting) {
  StartServer({});
  server_->BeginDrain();
  server_->BeginDrain();  // second call is a no-op
  server_->AwaitTermination();
  // The listener is gone: a fresh connect must fail (allow for the
  // kernel to finish tearing the socket down).
  int fd = Connect(server_->port());
  if (fd >= 0) {
    // Connected to a dead-but-lingering socket: any read must EOF.
    char byte;
    EXPECT_LE(recv(fd, &byte, 1, 0), 0);
    close(fd);
  }
  server_.reset();
}

// --- src/engine/shutdown: SIGHUP latching and re-entrant install ----------

TEST(GracefulShutdownTest, SighupLatchesReloadWithoutTerminating) {
  GracefulShutdown::ResetForTest();
  GracefulShutdown::Install();
  GracefulShutdown::Install();  // second user of the same process

  ASSERT_EQ(raise(SIGHUP), 0);
  EXPECT_EQ(GracefulShutdown::reload_requests(), 1);
  EXPECT_FALSE(GracefulShutdown::requested());

  // One user uninstalls; the remaining install keeps handlers live.
  GracefulShutdown::Uninstall();
  ASSERT_EQ(raise(SIGHUP), 0);
  EXPECT_EQ(GracefulShutdown::reload_requests(), 2);
  EXPECT_FALSE(GracefulShutdown::requested());

  GracefulShutdown::Uninstall();
  GracefulShutdown::Uninstall();  // over-uninstall must be a safe no-op
  GracefulShutdown::ResetForTest();
}

TEST(GracefulShutdownTest, FirstTermLatchesForAPollingDriver) {
  GracefulShutdown::ResetForTest();
  GracefulShutdown::Install();
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(GracefulShutdown::requested());
  EXPECT_EQ(GracefulShutdown::signal_number(), SIGTERM);
  GracefulShutdown::Uninstall();
  GracefulShutdown::ResetForTest();
}

// --- subprocess end-to-end: the real twq binary drains with exit 75 -------

#if defined(TREEWALK_TWQ_PATH) && defined(TREEWALK_LOADGEN_PATH)
TEST(ServeSmokeTest, DaemonServesLoadAndExits75OnSigterm) {
  std::string command = std::string("sh ") + TREEWALK_SOURCE_DIR +
                        "/tools/serve_smoke.sh " + TREEWALK_TWQ_PATH + " " +
                        TREEWALK_LOADGEN_PATH + " 800 > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0);
}

/// Every numeric flag of twq_loadgen, malformed or out of range, is a
/// usage error (exit 1, the flag named) before any connection is made:
/// the listener below sees no connection.  Only values rejected while
/// parsing are tried, so no load and no thread fleet is ever started.
TEST(LoadgenFlags, MalformedAndOutOfRangeValuesExitOneBeforeConnecting) {
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(listen(listener, 16), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::string base = std::string(TREEWALK_LOADGEN_PATH) + " --port " +
                           std::to_string(ntohs(addr.sin_port)) +
                           " --tree t --duration-ms 100 --quiet";
  const std::string out = ::testing::TempDir() + "loadgen_out." +
                          std::to_string(::getpid()) + ".txt";
  for (const std::string bad :
       {"--port abc", "--port 0", "--port 70000", "--connections abc",
        "--connections 0", "--connections 100000", "--duration-ms abc",
        "--duration-ms -5", "--duration-ms 99999999999999999999", "--rate abc",
        "--rate -1", "--rate nan", "--rate 1e12", "--rate 5x",
        "--deadline-ms soon", "--io-timeout-ms 1.5", "--retries -1",
        "--total-deadline-ms x", "--breaker-threshold 2x",
        "--breaker-cooldown-ms abc", "--hedge-delay-ms abc"}) {
    const std::string flag = bad.substr(0, bad.find(' '));
    const std::string command = base + " " + bad + " > " + out + " 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 1) << command;
    std::ifstream in(out);
    const std::string output((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
    EXPECT_NE(output.find(flag + " wants"), std::string::npos)
        << command << "\n" << output;
  }
  ASSERT_EQ(fcntl(listener, F_SETFL, O_NONBLOCK), 0);
  EXPECT_LT(accept(listener, nullptr, nullptr), 0);
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
  close(listener);
  std::remove(out.c_str());
}
#endif

}  // namespace
}  // namespace treewalk
