// Golden record of the one-step semantics (Definition 3.1) as every
// executor observes it.  Each library program runs on seeded random
// trees at three sizes through the direct interpreter and the
// configuration-graph evaluator (Thm 7.1(2)); the split-string programs
// run through the two-party protocol (Lemma 4.5); the xTM library runs
// through RunXtm, RunXtmAlternating and the LOGSPACE pebble simulation
// (Thm 7.1(1)).  Every observable — verdict, reject reason, step and
// atp counts, store high-water marks, a hash of the trace, config
// counts, dialogue fingerprints, error codes and messages — is printed
// one line per case and held byte-for-byte against
// tests/golden/step_semantics.txt.  A refactor of rule dispatch, moves
// or guard lookup must leave the file unchanged.
//
// On a mismatch the actual record is written to the test's temp
// directory (the path is printed) so an intended change can be reviewed
// with diff and copied over the golden file.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/automata/interpreter.h"
#include "src/automata/library.h"
#include "src/protocol/protocol.h"
#include "src/simulation/config_graph.h"
#include "src/simulation/logspace_sim.h"
#include "src/tree/generate.h"
#include "src/xtm/library.h"
#include "src/xtm/run.h"

namespace treewalk {
namespace {

constexpr DataValue kHash = -1;
constexpr int kSizes[] = {6, 24, 96};
constexpr int kSeedsPerSize = 2;
constexpr std::int64_t kMaxSteps = 20'000;

std::uint64_t Fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

std::string Error(const Status& status) {
  return std::string("error ") + StatusCodeName(status.code()) + " " +
         status.message();
}

struct NamedTree {
  std::string name;
  Tree tree;
};

/// The tree pool for one (size, seed): a generic attributed tree, the
/// two Example 3.2 shapes, an AND/OR circuit, and a copy of the generic
/// tree with unique IDs for the exponential counter.
std::vector<NamedTree> TreePool(int size, int seed) {
  std::vector<NamedTree> pool;
  const std::string suffix =
      "/n" + std::to_string(size) + "/s" + std::to_string(seed);
  std::mt19937 rng(static_cast<std::uint32_t>(1000 * size + seed));

  RandomTreeOptions generic;
  generic.num_nodes = size;
  generic.max_children = 3;
  generic.labels = {"a", "b", "c"};
  generic.attributes = {"a", "v"};
  generic.value_range = 3;
  pool.push_back({"random" + suffix, RandomTree(rng, generic)});
  pool.push_back({"ex32-uniform" + suffix, Example32Tree(rng, size, true)});
  pool.push_back({"ex32-poisoned" + suffix, Example32Tree(rng, size, false)});

  RandomTreeOptions circuit;
  circuit.num_nodes = size;
  circuit.max_children = 3;
  circuit.labels = {"and", "or", "lit"};
  circuit.attributes = {"v"};
  circuit.value_range = 2;
  pool.push_back({"circuit" + suffix, RandomTree(rng, circuit)});

  if (size <= kSizes[0]) {
    Tree ids = pool.front().tree;
    AssignUniqueIds(ids);
    pool.push_back({"ids" + suffix, std::move(ids)});
  }
  return pool;
}

struct NamedProgram {
  std::string name;
  Program program;
};

std::vector<NamedProgram> Programs() {
  std::vector<NamedProgram> programs;
  auto add = [&](std::string name, Result<Program> p) {
    EXPECT_TRUE(p.ok()) << name << ": " << p.status();
    if (p.ok()) programs.push_back({std::move(name), std::move(p).value()});
  };
  add("Example32", Example32Program());
  add("HasLabel(c)", HasLabelProgram("c"));
  add("Parity(a)", ParityProgram("a"));
  add("AllLeavesLabel(b)", AllLeavesLabelProgram("b"));
  add("RootValueAtSomeLeaf", RootValueAtSomeLeafProgram());
  add("SetEquality", SetEqualityProgram(kHash));
  add("SetEqualityViaLookahead", SetEqualityViaLookaheadProgram(kHash));
  add("AllLabelValuesEqualRoot(b)", AllLabelValuesEqualRootProgram("b"));
  add("BooleanCircuit", BooleanCircuitProgram());
  add("ExponentialCounter", ExponentialCounterProgram());
  return programs;
}

std::string InterpreterLine(const Program& program, const Tree& tree) {
  RunOptions options;
  options.max_steps = kMaxSteps;
  options.record_trace = true;
  options.max_trace_entries = static_cast<std::size_t>(kMaxSteps);
  Result<RunResult> r = Interpreter(program, options).Run(tree);
  if (!r.ok()) return Error(r.status());
  std::ostringstream out;
  out << "accepted=" << r->accepted
      << " reason=" << RejectReasonName(r->reason)
      << " steps=" << r->stats.steps << " atp=" << r->stats.atp_calls
      << " updates=" << r->stats.store_updates
      << " max_tuples=" << r->stats.max_store_tuples
      << " trace=" << r->trace.size() << ":" << Hex(Fnv1a(r->trace));
  return out.str();
}

std::string ConfigGraphLine(const Program& program, const Tree& tree) {
  RunOptions options;
  options.max_steps = kMaxSteps;
  Result<ConfigGraphResult> r = EvaluateViaConfigGraph(program, tree, options);
  if (!r.ok()) return Error(r.status());
  std::ostringstream out;
  out << "accepted=" << r->accepted << " configs=" << r->configs
      << " memoized=" << r->memoized_calls << " steps=" << r->steps;
  return out.str();
}

std::string ProtocolLine(const Program& program,
                         const std::vector<DataValue>& f,
                         const std::vector<DataValue>& g) {
  ProtocolOptions options;
  options.max_steps = kMaxSteps;
  Result<ProtocolResult> r = RunSplitProtocol(program, f, g, kHash, options);
  if (!r.ok()) return Error(r.status());
  std::ostringstream out;
  out << "accepted=" << r->accepted << " steps=" << r->steps
      << " dialogue=" << Hex(r->dialogue_fingerprint)
      << " messages=" << r->transcript.size();
  return out.str();
}

std::string XtmLine(const Result<XtmResult>& r) {
  if (!r.ok()) return Error(r.status());
  std::ostringstream out;
  out << "accepted=" << r->accepted << " steps=" << r->steps
      << " space=" << r->space << " configs=" << r->configs;
  return out.str();
}

std::string LogspaceLine(const Result<LogspaceSimResult>& r) {
  if (!r.ok()) return Error(r.status());
  std::ostringstream out;
  out << "accepted=" << r->accepted << " tm_steps=" << r->tm_steps
      << " walk_steps=" << r->walk_steps << " cells=" << r->tape_cells;
  return out.str();
}

std::string Values(const std::vector<DataValue>& values) {
  std::string s;
  for (DataValue v : values) s += (s.empty() ? "" : ",") + std::to_string(v);
  return "[" + s + "]";
}

/// The whole golden record, one case per line.
std::string Record() {
  std::ostringstream out;
  const std::vector<NamedProgram> programs = Programs();

  for (int size : kSizes) {
    for (int seed = 1; seed <= kSeedsPerSize; ++seed) {
      for (const NamedTree& t : TreePool(size, seed)) {
        for (const NamedProgram& p : programs) {
          out << "interp " << p.name << " " << t.name << " "
              << InterpreterLine(p.program, t.tree) << "\n";
          out << "graph " << p.name << " " << t.name << " "
              << ConfigGraphLine(p.program, t.tree) << "\n";
        }
      }
    }
  }

  // Split strings f#g: value ranges small enough that f and g share
  // values, lengths growing with the size tier.
  const int kHalfLengths[] = {2, 5, 12};
  for (int max_len : kHalfLengths) {
    std::mt19937 rng(static_cast<std::uint32_t>(77 + max_len));
    std::uniform_int_distribution<int> len(0, max_len);
    std::uniform_int_distribution<int> value(1, 4);
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<DataValue> f(static_cast<std::size_t>(len(rng)));
      std::vector<DataValue> g(static_cast<std::size_t>(len(rng)));
      for (DataValue& v : f) v = value(rng);
      for (DataValue& v : g) v = value(rng);
      const std::string split = Values(f) + "#" + Values(g);
      for (const NamedProgram& p : programs) {
        out << "protocol " << p.name << " " << split << " "
            << ProtocolLine(p.program, f, g) << "\n";
      }
    }
  }

  struct NamedXtm {
    std::string name;
    Xtm machine;
  };
  const std::vector<NamedXtm> machines = {
      {"XtmParity(a)", XtmParity("a")},
      {"XtmCountMod4(a)", XtmCountMod4("a")},
      {"XtmDyck(a,b)", XtmDyck("a", "b")},
      {"XtmBooleanCircuit", XtmBooleanCircuit()},
  };
  XtmOptions xtm_options;
  xtm_options.max_steps = kMaxSteps;
  xtm_options.max_configs = static_cast<std::size_t>(kMaxSteps);
  for (int size : kSizes) {
    for (int seed = 1; seed <= kSeedsPerSize; ++seed) {
      for (const NamedTree& t : TreePool(size, seed)) {
        for (const NamedXtm& m : machines) {
          const std::string id = m.name + " " + t.name + " ";
          const Xtm& x = m.machine;
          out << "xtm " << id << XtmLine(RunXtm(x, t.tree, xtm_options))
              << "\n";
          out << "xtm-alt " << id
              << XtmLine(RunXtmAlternating(x, t.tree, xtm_options)) << "\n";
          out << "logspace " << id
              << LogspaceLine(RunLogspaceSimulation(x, t.tree, xtm_options))
              << "\n";
        }
      }
    }
  }
  return out.str();
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(StepGolden, EveryExecutorMatchesTheGoldenRecord) {
  const std::string golden = ReadWholeFile(
      std::string(TREEWALK_SOURCE_DIR) + "/tests/golden/step_semantics.txt");
  const std::string actual = Record();
  if (actual != golden) {
    const std::string path = ::testing::TempDir() + "step_semantics.actual.txt";
    std::ofstream(path) << actual;
    // Report the first differing line rather than two multi-kilobyte
    // strings.
    std::istringstream a(actual), g(golden);
    std::string la, lg;
    int line = 1;
    while (std::getline(a, la) && std::getline(g, lg) && la == lg) ++line;
    FAIL() << "step semantics drifted at line " << line << "\n  golden: "
           << lg << "\n  actual: " << la << "\nfull record written to "
           << path;
  }
}

}  // namespace
}  // namespace treewalk
