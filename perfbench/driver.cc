// perfbench_driver: the compiled half of the treewalk benchmark
// (perfbench/README.md).  run.py owns the workloads and the processes;
// this binary does the two jobs that need the library:
//
//   load    closed-loop load against a running `twq serve` through the
//           public client library (src/client), checking every verdict
//           against the plan's ground truth, plus the daemon's own view
//           of the timed window (kStats and kMetrics, diffed).  One
//           untimed pass over every pair precedes the window.
//   replay  the same requests replayed in-process by calling each
//           layer's public functions, with a span of the library's
//           tracer (src/common/trace.h) around every call.  Writes the
//           spans as Chrome trace JSON and reduces them to per-layer
//           numbers.
//
// Usage:
//   perfbench_driver load --plan F --port P --threads N --seconds S --out F
//   perfbench_driver replay --plan F --corpus DIR --requests K
//                           --trace-out F --out F
//
// The plan file (written by run.py) has one directive per line:
//   program <name> <path.twp>
//   tree <name> <term|twsnap>          a file of the corpus directory
//   pair <program> <tree> <0|1>          expected verdict
//   seq <pair index> <pair index> ...   request order
// Results go to --out as one flat JSON object of numbers.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/text_format.h"
#include "src/client/client.h"
#include "src/common/governor.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/engine/engine.h"
#include "src/logic/compile.h"
#include "src/logic/planner.h"
#include "src/server/frame.h"
#include "src/server/server.h"
#include "src/tree/axis_index.h"
#include "src/tree/delimited.h"
#include "src/tree/snapshot.h"
#include "src/tree/term_io.h"
#include "src/tree/tree_stats.h"

namespace tw = treewalk;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// ---------------------------------------------------------------- plan

struct Pair {
  std::string program;
  std::string tree;
  bool expected = false;
};

struct TreeFile {
  std::string name;
  bool snapshot = false;
};

struct Plan {
  std::map<std::string, std::string> program_text;
  std::vector<TreeFile> trees;
  std::vector<Pair> pairs;
  std::vector<std::size_t> sequence;
};

Plan LoadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read plan '" + path + "'");
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "program") {
      std::string name, file;
      ls >> name >> file;
      if (!ReadFile(file, plan.program_text[name])) {
        Die("cannot read program '" + file + "'");
      }
    } else if (kind == "tree") {
      TreeFile t;
      std::string format;
      ls >> t.name >> format;
      t.snapshot = format == "twsnap";
      plan.trees.push_back(t);
    } else if (kind == "pair") {
      Pair p;
      int expected = 0;
      ls >> p.program >> p.tree >> expected;
      p.expected = expected != 0;
      if (plan.program_text.count(p.program) == 0) {
        Die("pair names unknown program '" + p.program + "'");
      }
      plan.pairs.push_back(p);
    } else if (kind == "seq") {
      std::size_t i;
      while (ls >> i) {
        if (i >= plan.pairs.size()) Die("seq index out of range");
        plan.sequence.push_back(i);
      }
    }
  }
  if (plan.pairs.empty() || plan.sequence.empty()) Die("plan has no requests");
  return plan;
}

// ------------------------------------------------------------- output

class JsonOut {
 public:
  void Set(const std::string& key, double value) { values_[key] = value; }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{";
    bool first = true;
    for (const auto& [k, v] : values_) {
      out << (first ? "" : ",") << "\n  \"" << k << "\": ";
      if (std::isfinite(v)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out << buf;
      } else {
        out << "null";
      }
      first = false;
    }
    out << "\n}\n";
    if (!out) Die("cannot write '" + path + "'");
  }

 private:
  std::map<std::string, double> values_;
};

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// -------------------------------------------------------- daemon view

/// One raw request/response exchange: the client library has no
/// kMetrics call, so the exposition is fetched over a plain socket with
/// the library's frame codec.
std::string FetchMetricsText(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    Die("cannot connect for kMetrics");
  }
  const std::string request = tw::EncodeFrame(tw::MessageType::kMetrics, "");
  if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(request.size())) {
    Die("kMetrics send failed");
  }
  auto read_exact = [&](char* buf, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd, buf + got, n - got, 0);
      if (r <= 0) Die("kMetrics read failed");
      got += static_cast<std::size_t>(r);
    }
  };
  unsigned char prefix[4];
  read_exact(reinterpret_cast<char*>(prefix), 4);
  auto length = tw::DecodeFrameLength(prefix);
  if (!length.ok()) Die("kMetrics: " + length.status().ToString());
  std::string payload(*length, '\0');
  read_exact(payload.data(), payload.size());
  ::close(fd);
  auto frame = tw::DecodeFramePayload(payload);
  if (!frame.ok() || frame->type != tw::MessageType::kMetricsResult) {
    Die("kMetrics: unexpected response");
  }
  return std::string(frame->body);
}

/// Prometheus text as series -> value ("name{labels}" keys verbatim).
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

/// Histogram `name` over the window between two expositions: per-bucket
/// counts (finite bounds, then overflow), sum and count.
struct WindowHistogram {
  std::vector<double> bounds;
  std::vector<double> counts;
  double overflow = 0;
  double sum = 0;
  double count = 0;

  /// Same estimate as the library's HistogramSnapshot::Quantile:
  /// linear interpolation inside the bucket holding the q-th
  /// observation, +Inf clamped to the largest finite bound.
  double Quantile(double q) const {
    if (count <= 0) return 0;
    double rank = std::max(1.0, std::ceil(q * count));
    double seen = 0;
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      if (seen + counts[b] >= rank) {
        double lo = b == 0 ? 0.0 : bounds[b - 1];
        double frac = counts[b] == 0 ? 1.0 : (rank - seen) / counts[b];
        return lo + (bounds[b] - lo) * frac;
      }
      seen += counts[b];
    }
    return bounds.empty() ? 0 : bounds.back();
  }
  double Mean() const { return count > 0 ? sum / count : 0; }
};

WindowHistogram DiffHistogram(const std::map<std::string, double>& before,
                              const std::map<std::string, double>& after,
                              const std::string& name) {
  auto delta = [&](const std::string& key) {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  WindowHistogram h;
  const std::string prefix = name + "_bucket{le=\"";
  std::vector<std::pair<double, double>> cumulative;  // (bound, delta)
  double inf_cumulative = 0;
  for (const auto& [key, value] : after) {
    (void)value;
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    std::string le = key.substr(prefix.size());
    le = le.substr(0, le.find('"'));
    if (le == "+Inf") {
      inf_cumulative = delta(key);
    } else {
      cumulative.emplace_back(std::strtod(le.c_str(), nullptr), delta(key));
    }
  }
  std::sort(cumulative.begin(), cumulative.end());
  double prev = 0;
  for (const auto& [bound, cum] : cumulative) {
    h.bounds.push_back(bound);
    h.counts.push_back(cum - prev);
    prev = cum;
  }
  h.overflow = inf_cumulative - prev;
  h.sum = delta(name + "_sum");
  h.count = delta(name + "_count");
  return h;
}

// ----------------------------------------------------------------- load

struct ThreadTally {
  std::vector<double> latencies_ms;  // OK responses only
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  std::int64_t errors = 0;
  std::int64_t wrong = 0;
  std::int64_t attempts = 0;
};

tw::ClientOptions MakeClientOptions(int port) {
  tw::ClientOptions options;
  options.endpoint.port = port;
  options.io_timeout_ms = 30000;
  return options;
}

void RunQuery(tw::QueryClient& client, const Plan& plan, std::size_t pair,
              ThreadTally& tally) {
  const Pair& p = plan.pairs[pair];
  const auto start = Clock::now();
  tw::QueryOutcome outcome =
      client.Query(p.tree, plan.program_text.at(p.program));
  const double ms = MicrosBetween(start, Clock::now()) / 1000.0;
  ++tally.attempted;
  tally.attempts += outcome.attempts;
  if (!outcome.status.ok()) {
    ++tally.errors;
    std::fprintf(stderr, "perfbench_driver: %s on %s: %s\n",
                 p.program.c_str(), p.tree.c_str(),
                 outcome.status.ToString().c_str());
    return;
  }
  ++tally.ok;
  tally.latencies_ms.push_back(ms);
  if (outcome.result.accepted != p.expected) {
    ++tally.wrong;
    std::fprintf(stderr, "perfbench_driver: wrong verdict for %s on %s\n",
                 p.program.c_str(), p.tree.c_str());
  }
}

/// kStats on a fresh connection: the daemon reaps connections idle
/// past its io timeout, which a long window would outlast.
tw::StatsMap FetchStats(int port) {
  tw::QueryClient admin(MakeClientOptions(port));
  auto stats = admin.Stats();
  if (!stats.ok()) Die("kStats: " + stats.status().ToString());
  return std::move(stats).value();
}

int CmdLoad(const Plan& plan, int port, int threads, double seconds,
            const std::string& out_path) {
  std::vector<std::unique_ptr<tw::QueryClient>> clients;
  for (int t = 0; t < threads; ++t) {
    clients.push_back(
        std::make_unique<tw::QueryClient>(MakeClientOptions(port)));
    tw::Status connected = clients.back()->Connect();
    if (!connected.ok()) Die("connect: " + connected.ToString());
  }

  // Warm-up: every distinct pair once, untimed, so lazy daemon set-up
  // and first-touch page faults stay out of the window.
  {
    std::atomic<std::size_t> next{0};
    std::vector<ThreadTally> warm(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t]() {
        for (std::size_t i; (i = next.fetch_add(1)) < plan.pairs.size();) {
          RunQuery(*clients[t], plan, i, warm[t]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
  }

  const tw::StatsMap stats_before = FetchStats(port);
  const auto metrics_before = ParseExposition(FetchMetricsText(port));

  std::atomic<std::size_t> next{0};
  std::vector<ThreadTally> tallies(threads);
  std::vector<std::thread> pool;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      while (Clock::now() < deadline) {
        std::size_t i = next.fetch_add(1);
        RunQuery(*clients[t], plan, plan.sequence[i % plan.sequence.size()],
                 tallies[t]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const double wall_s = MicrosBetween(start, Clock::now()) / 1e6;

  const tw::StatsMap stats_after = FetchStats(port);
  const auto metrics_after = ParseExposition(FetchMetricsText(port));

  ThreadTally all;
  for (const ThreadTally& t : tallies) {
    all.latencies_ms.insert(all.latencies_ms.end(), t.latencies_ms.begin(),
                            t.latencies_ms.end());
    all.attempted += t.attempted;
    all.ok += t.ok;
    all.errors += t.errors;
    all.wrong += t.wrong;
    all.attempts += t.attempts;
  }
  auto stat_delta = [&](const char* key) {
    return static_cast<double>(stats_after.Value(key) -
                               stats_before.Value(key));
  };
  const WindowHistogram in_daemon = DiffHistogram(
      metrics_before, metrics_after, "treewalk_server_request_latency_ms");
  const WindowHistogram job = DiffHistogram(metrics_before, metrics_after,
                                            "treewalk_engine_job_latency_ms");
  double governor_peak = 0;
  for (const auto& [key, value] : metrics_after) {
    if (key.rfind("treewalk_governor_memory_peak_bytes{", 0) == 0) {
      governor_peak += value;
    }
  }

  JsonOut out;
  out.Set("attempted", static_cast<double>(all.attempted));
  out.Set("ok", static_cast<double>(all.ok));
  out.Set("errors", static_cast<double>(all.errors));
  out.Set("wrong", static_cast<double>(all.wrong));
  out.Set("wall_s", wall_s);
  out.Set("qps", static_cast<double>(all.ok) / wall_s);
  out.Set("latency_p50_ms", Percentile(all.latencies_ms, 0.50));
  out.Set("latency_p95_ms", Percentile(all.latencies_ms, 0.95));
  out.Set("attempts_per_query",
          all.attempted > 0 ? static_cast<double>(all.attempts) /
                                  static_cast<double>(all.attempted)
                            : 0);
  // The client's latencies in the daemon's buckets, so the two p50s
  // subtract under one estimator.
  WindowHistogram client;
  client.bounds = tw::LatencyBucketsMs();
  client.counts.assign(client.bounds.size(), 0);
  for (double ms : all.latencies_ms) {
    auto b = std::lower_bound(client.bounds.begin(), client.bounds.end(), ms);
    if (b == client.bounds.end()) {
      ++client.overflow;
    } else {
      ++client.counts[static_cast<std::size_t>(b - client.bounds.begin())];
    }
    client.sum += ms;
    ++client.count;
  }
  out.Set("client_bucket_p50_ms", client.Quantile(0.5));
  out.Set("client_mean_ms", client.Mean());
  out.Set("in_daemon_p50_ms", in_daemon.Quantile(0.5));
  out.Set("in_daemon_mean_ms", in_daemon.Mean());
  out.Set("job_p50_ms", job.Quantile(0.5));
  out.Set("job_ms_sum", job.sum);
  out.Set("shed", stat_delta("server.shed_queue") +
                      stat_delta("server.shed_memory") +
                      stat_delta("server.shed_draining"));
  out.Set("served_error", stat_delta("server.served_error"));
  out.Set("books_ok",
          stats_after.Value("server.admitted") ==
                  stats_after.Value("server.served_ok") +
                      stats_after.Value("server.served_error") +
                      stats_after.Value("server.drained")
              ? 1
              : 0);
  out.Set("resident_bytes",
          static_cast<double>(stats_after.Value("corpus.resident_bytes")));
  out.Set("governor_peak_bytes", governor_peak);
  out.Write(out_path);
  return 0;
}

// --------------------------------------------------------------- replay

/// The daemon's per-request job settings (ServerOptions defaults, which
/// `twq serve` keeps unless flagged; run.py passes none of those flags).
tw::BatchJob DaemonJob(const tw::Program& program) {
  const tw::ServerOptions server;
  tw::BatchJob job;
  job.program = &program;
  job.deadline_ms = server.default_deadline_ms;
  job.memory_budget_bytes = server.request_memory_budget_bytes;
  job.retry = server.retry;
  return job;
}

/// Distinct atp() selectors of a program, as the interpreter
/// canonicalizes them (by printed form).
std::vector<const tw::Formula*> DistinctSelectors(const tw::Program& program) {
  std::vector<const tw::Formula*> out;
  std::set<std::string> seen;
  for (const tw::Rule& rule : program.rules()) {
    if (rule.action.kind != tw::Action::Kind::kLookAhead) continue;
    if (seen.insert(rule.action.selector.ToString()).second) {
      out.push_back(&rule.action.selector);
    }
  }
  return out;
}

/// Span args naming the replayed request a span belongs to.
std::string RequestArgs(std::int64_t k) {
  return "\"request\":" + std::to_string(k);
}

/// Per-request results of one replayed request.
struct ReplayedRequest {
  double request_us = 0;  // wall time of the whole request
  std::size_t request_bytes = 0;
  bool ok = false;
  bool accepted = false;
};

/// Wire decode, program parse, the resident job and result encode: the
/// daemon's per-request path, one public call per span.  The spans are
/// recorded only while the global tracer is enabled.
ReplayedRequest ReplayRequest(std::int64_t k, const std::string& tree_name,
                              const std::string& program_text,
                              const tw::Tree& delimited,
                              const std::atomic<bool>& cancel) {
  ReplayedRequest r;
  const std::string args = RequestArgs(k);
  const auto start = Clock::now();
  {
    tw::ScopedSpan root("request", args);
    std::string request_frame;
    {
      tw::ScopedSpan s("frame.encode_request", args);
      tw::QueryRequest q;
      q.tree_name = tree_name;
      q.program_text = program_text;
      request_frame = tw::EncodeFrame(tw::MessageType::kQuery,
                                      tw::EncodeQueryRequest(q));
    }
    r.request_bytes = request_frame.size();
    tw::QueryRequest decoded;
    {
      tw::ScopedSpan s("frame.decode_request", args);
      auto length = tw::DecodeFrameLength(
          reinterpret_cast<const unsigned char*>(request_frame.data()));
      auto frame = tw::DecodeFramePayload(
          std::string_view(request_frame).substr(4, *length));
      auto q = tw::DecodeQueryRequest(frame->body);
      if (!q.ok()) Die("replay: request decode failed");
      decoded = std::move(q).value();
    }
    std::optional<tw::Program> program;
    {
      tw::ScopedSpan s("automata.parse", args);
      auto parsed = tw::ParseProgramText(decoded.program_text);
      if (!parsed.ok()) Die("replay: " + parsed.status().ToString());
      program.emplace(std::move(parsed).value());
    }
    tw::JobResult result;
    {
      tw::ScopedSpan s("engine.job", args);
      result = tw::RunResidentJob(DaemonJob(*program), delimited, cancel);
    }
    std::string result_frame;
    {
      tw::ScopedSpan s("frame.encode_result", args);
      tw::QueryResultMsg msg;
      msg.accepted = result.run.accepted;
      msg.attempts = static_cast<std::uint32_t>(result.attempts.size());
      msg.steps = result.run.stats.steps;
      msg.atp_calls = result.run.stats.atp_calls;
      result_frame = tw::EncodeFrame(tw::MessageType::kQueryResult,
                                     tw::EncodeQueryResult(msg));
    }
    {
      tw::ScopedSpan s("frame.decode_result", args);
      auto frame = tw::DecodeFramePayload(
          std::string_view(result_frame).substr(4));
      auto msg = tw::DecodeQueryResult(frame->body);
      if (!msg.ok()) Die("replay: result decode failed");
      r.accepted = msg->accepted;
    }
    r.ok = result.status.ok();
  }
  r.request_us = MicrosBetween(start, Clock::now());
  return r;
}

struct SplitTotals {
  double steps = 0, atp_calls = 0, subcomputations = 0;
  double cache_hits = 0, cache_lookups = 0;
  double store_updates = 0, max_store_tuples = 0;
  double compiled_bytes = 0;
  double picks_reference = 0, picks_dense = 0, picks_interval = 0;
};

/// Splits the job's run: the interpreter run under the daemon's options,
/// then the run's set-up redone call by call — tree stats, one plan per
/// distinct selector, the axis index and each planned compile.
void ReplaySplit(std::int64_t k, const tw::Program& program,
                 const tw::Tree& delimited, const std::atomic<bool>& cancel,
                 SplitTotals& totals) {
  const std::string args = RequestArgs(k);
  tw::ScopedSpan root("split", args);
  const tw::BatchJob job = DaemonJob(program);
  {
    tw::ScopedSpan s("automata.run", args);
    tw::ResourceGovernor governor;
    governor.set_deadline_after(std::chrono::milliseconds(job.deadline_ms));
    governor.set_memory_budget(job.memory_budget_bytes);
    tw::RunOptions options = job.options;
    options.cancel = &cancel;
    options.governor = &governor;
    auto run = tw::Interpreter(program, options).RunDelimited(delimited);
    if (!run.ok()) Die("replay: run failed: " + run.status().ToString());
    const tw::RunStats& st = run->stats;
    totals.steps += static_cast<double>(st.steps);
    totals.atp_calls += static_cast<double>(st.atp_calls);
    totals.subcomputations += static_cast<double>(st.subcomputations);
    totals.cache_hits += static_cast<double>(st.selector_cache_hits);
    totals.cache_lookups += static_cast<double>(st.selector_cache_hits +
                                                st.selector_cache_misses);
    totals.store_updates += static_cast<double>(st.store_updates);
    totals.max_store_tuples += static_cast<double>(st.max_store_tuples);
    totals.picks_reference += static_cast<double>(st.planner_picks_reference);
    totals.picks_dense += static_cast<double>(st.planner_picks_dense);
    totals.picks_interval += static_cast<double>(st.planner_picks_interval);
  }
  const std::vector<const tw::Formula*> selectors = DistinctSelectors(program);
  if (selectors.empty()) return;
  tw::ScopedSpan prepare("logic.prepare", args);
  tw::TreeStats scratch;
  const tw::TreeStats* stats = nullptr;
  {
    tw::ScopedSpan s("tree.stats", args);
    stats = tw::GetOrComputeTreeStats(delimited, scratch);
  }
  std::vector<tw::SelectorPlan> plans;
  {
    tw::ScopedSpan s("logic.plan", args);
    for (const tw::Formula* f : selectors) {
      plans.push_back(tw::PlanSelector(*stats, *f));
    }
  }
  {
    tw::ScopedSpan s("logic.compile", args);
    std::optional<tw::AxisIndex> index;
    for (std::size_t i = 0; i < selectors.size(); ++i) {
      if (plans[i].strategy == tw::PlanStrategy::kReference) continue;
      if (!index.has_value()) index.emplace(delimited);
      auto compiled = tw::CompileSelector(*index, *selectors[i], "x", "y",
                                          plans[i].repr);
      if (compiled.ok()) {
        totals.compiled_bytes +=
            static_cast<double>(compiled->RetainedBytes());
      }
    }
  }
}

int CmdReplay(const Plan& plan, const std::string& corpus_dir,
              std::size_t requests, const std::string& trace_path,
              const std::string& out_path) {
  tw::Tracer& tracer = tw::Tracer::Global();
  tracer.Enable();
  const std::atomic<bool> cancel{false};

  // Corpus load, as `twq serve` / `twq batch` load their inputs.
  std::map<std::string, tw::Tree> delimited;
  int terms = 0, snapshots = 0;
  for (const TreeFile& t : plan.trees) {
    tw::ScopedSpan load("load");
    const std::string path = corpus_dir + "/" + t.name;
    tw::Result<tw::Tree> loaded = tw::NotFound(path);
    if (t.snapshot) {
      tw::ScopedSpan s("tree.snapshot_load");
      loaded = tw::LoadTreeSnapshot(path);
      ++snapshots;
    } else {
      tw::ScopedSpan s("tree.parse_term");
      std::string text;
      if (!ReadFile(path, text)) Die("cannot read '" + path + "'");
      loaded = tw::ParseTerm(text);
      ++terms;
    }
    if (!loaded.ok()) Die(t.name + ": " + loaded.status().ToString());
    tw::ScopedSpan s("tree.delimit");
    delimited.emplace(t.name, tw::Delimit(*loaded).tree);
  }

  // Parsed programs for the split pass (parse cost is measured inside
  // the request replay, not here).
  std::map<std::string, tw::Program> programs;
  for (const auto& [name, text] : plan.program_text) {
    auto parsed = tw::ParseProgramText(text);
    if (!parsed.ok()) Die(name + ": " + parsed.status().ToString());
    programs.emplace(name, std::move(parsed).value());
  }

  // The measured pass (each request followed by its split) comes after
  // a warm-up pass, which keeps first-touch costs out of it; the warm-up
  // spans stay in the trace file but not in the numbers.
  requests = std::min(requests, plan.sequence.size());
  std::int64_t wrong = 0;
  double request_bytes = 0;
  SplitTotals split;
  auto replay = [&](std::size_t k) {
    const Pair& p = plan.pairs[plan.sequence[k]];
    const ReplayedRequest r =
        ReplayRequest(static_cast<std::int64_t>(k), p.tree,
                      plan.program_text.at(p.program), delimited.at(p.tree),
                      cancel);
    if (!r.ok || r.accepted != p.expected) ++wrong;
    return r;
  };
  const std::uint64_t warm_from = tracer.NowMicros();
  for (std::size_t k = 0; k < requests; ++k) replay(k);
  const std::uint64_t measured_from = tracer.NowMicros();
  double traced_us = 0;
  for (std::size_t k = 0; k < requests; ++k) {
    const ReplayedRequest r = replay(k);
    traced_us += r.request_us;
    request_bytes += static_cast<double>(r.request_bytes);
    const Pair& p = plan.pairs[plan.sequence[k]];
    ReplaySplit(static_cast<std::int64_t>(k), programs.at(p.program),
                delimited.at(p.tree), cancel, split);
  }
  tracer.Disable();
  if (tracer.dropped() != 0) Die("replay: the tracer dropped spans");

  // Per-name totals over the load and the measured pass, and per request
  // the share of its span that no direct child span covers.
  const std::vector<tw::TraceEvent> events = tracer.Collect();
  std::map<std::uint64_t, std::uint64_t> children_us;  // span id -> sum
  std::map<std::string, double> layer_us;              // span name -> sum
  for (const tw::TraceEvent& e : events) {
    if (e.ts_us >= warm_from && e.ts_us < measured_from) continue;
    layer_us[e.name] += static_cast<double>(e.dur_us);
    children_us[e.parent_id] += e.dur_us;
  }
  double unattributed_share = 0;
  for (const tw::TraceEvent& e : events) {
    if (e.ts_us < measured_from || e.name != "request" || e.dur_us == 0) {
      continue;
    }
    unattributed_share +=
        static_cast<double>(e.dur_us - std::min(e.dur_us, children_us[e.id])) /
        static_cast<double>(e.dur_us);
  }
  std::ofstream trace(trace_path);
  trace << tracer.ChromeTraceJson();
  if (!trace) Die("cannot write '" + trace_path + "'");

  // Tracing overhead: each request once with the tracer on and once
  // off, alternating which goes first so that neither side always runs
  // on warm caches or in the same phase of a noisy host.  Enable()
  // drops the recorded spans, so this runs after they are written.
  double on_us = 0, off_us = 0;
  for (std::size_t k = 0; k < requests; ++k) {
    for (int side = 0; side < 2; ++side) {
      const bool on = (side + k) % 2 == 0;
      if (on) tracer.Enable();
      (on ? on_us : off_us) += replay(k).request_us;
      tracer.Disable();
    }
  }

  const double n = static_cast<double>(requests);
  auto mean = [&](const char* name) { return layer_us[name] / n; };
  const double run_us = mean("automata.run");
  const double prepare_us = mean("logic.prepare");
  const double walk_us = run_us - prepare_us;
  JsonOut out;
  out.Set("requests", n);
  out.Set("wrong", static_cast<double>(wrong));
  out.Set("request_us", traced_us / n);
  out.Set("frame.codec_us",
          mean("frame.encode_request") + mean("frame.decode_request") +
              mean("frame.encode_result") + mean("frame.decode_result"));
  out.Set("frame.request_bytes", request_bytes / n);
  out.Set("automata.parse_us", mean("automata.parse"));
  out.Set("engine.job_us", mean("engine.job"));
  out.Set("engine.job_overhead_us", mean("engine.job") - run_us);
  out.Set("automata.run_us", run_us);
  out.Set("automata.walk_us", walk_us);
  out.Set("logic.prepare_us", prepare_us);
  out.Set("tree.stats_us", mean("tree.stats"));
  out.Set("logic.plan_us", mean("logic.plan"));
  out.Set("logic.compile_us", mean("logic.compile"));
  out.Set("automata.steps", split.steps / n);
  out.Set("automata.ns_per_step",
          split.steps > 0 ? walk_us * 1000.0 / (split.steps / n) : 0);
  out.Set("automata.atp_calls", split.atp_calls / n);
  out.Set("automata.subcomputations", split.subcomputations / n);
  out.Set("automata.selector_cache_hit_ratio",
          split.cache_lookups > 0 ? split.cache_hits / split.cache_lookups
                                  : 0);
  out.Set("relstore.store_updates", split.store_updates / n);
  out.Set("relstore.max_store_tuples", split.max_store_tuples / n);
  out.Set("logic.compiled_bytes", split.compiled_bytes / n);
  out.Set("logic.picks.reference", split.picks_reference);
  out.Set("logic.picks.dense", split.picks_dense);
  out.Set("logic.picks.interval", split.picks_interval);
  out.Set("tree.parse_term_us",
          terms > 0 ? layer_us["tree.parse_term"] / terms : 0);
  out.Set("tree.snapshot_load_us",
          snapshots > 0 ? layer_us["tree.snapshot_load"] / snapshots : 0);
  out.Set("tree.delimit_us",
          layer_us["tree.delimit"] / static_cast<double>(plan.trees.size()));
  out.Set("trace.unattributed_share", unattributed_share / n);
  out.Set("trace.overhead_share", off_us > 0 ? on_us / off_us - 1.0 : 0);
  out.Write(out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Die("usage: perfbench_driver <load|replay> --plan F ... (see driver.cc)");
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      Die("unexpected argument '" + arg + "'");
    }
  }
  auto flag = [&](const char* name) {
    auto it = flags.find(name);
    if (it == flags.end()) Die(std::string("missing --") + name);
    return it->second;
  };
  const Plan plan = LoadPlan(flag("plan"));
  if (mode == "load") {
    return CmdLoad(plan, std::atoi(flag("port").c_str()),
                   std::atoi(flag("threads").c_str()),
                   std::atof(flag("seconds").c_str()), flag("out"));
  }
  if (mode == "replay") {
    return CmdReplay(plan, flag("corpus"),
                     static_cast<std::size_t>(std::atoll(flag("requests").c_str())),
                     flag("trace-out"), flag("out"));
  }
  Die("unknown mode '" + mode + "'");
}
