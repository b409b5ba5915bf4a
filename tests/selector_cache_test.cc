// Persistent compiled-selector cache (src/logic/selector_cache.h):
// three-way oracle over random formula x tree instances, stale/corrupt
// degradation, and fault injection.  The load-bearing property: a
// selector that came back from disk — answering for a tree that came
// back from a snapshot — is indistinguishable from one compiled fresh,
// which is itself held to the node-at-a-time reference evaluator.

#include "src/logic/selector_cache.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/atomic_file.h"
#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/metrics.h"
#include "src/logic/compile.h"
#include "src/logic/formula.h"
#include "src/logic/parser.h"
#include "src/logic/tree_eval.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/snapshot.h"
#include "src/tree/tree.h"

namespace treewalk {
namespace {

std::string TempCacheDir(const char* tag) {
  std::string dir = testing::TempDir() + "/selcache_" + tag + "_" +
                    std::to_string(::getpid());
  (void)::mkdir(dir.c_str(), 0777);
  return dir;
}

Formula Parse(const char* text) {
  return std::move(ParseFormula(text)).value();
}

std::int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().FindOrCreateCounter(name, "")->value();
}

/// Random FO selectors in the compilable two-variable fragment, same
/// distribution as compiled_eval_test.cc's property suite.
class SelectorGen {
 public:
  explicit SelectorGen(std::mt19937& rng) : rng_(rng) {}

  Formula Gen(int depth, std::vector<std::string> scope) {
    if (depth <= 0) return Atom(scope);
    switch (rng_() % 8) {
      case 0:
        return Atom(scope);
      case 1:
        return Formula::Not(Gen(depth - 1, scope));
      case 2:
        return Formula::And(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 3:
        return Formula::Or(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 4:
        return Formula::Implies(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 5: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Exists(v, Gen(depth - 1, scope));
      }
      case 6: {
        std::string v = FreshVar(scope);
        scope.push_back(v);
        return Formula::Forall(v, Gen(depth - 1, scope));
      }
      default:
        return Formula::Iff(Atom(scope), Gen(depth - 1, scope));
    }
  }

 private:
  const std::string& Var(const std::vector<std::string>& scope) {
    return scope[rng_() % scope.size()];
  }

  std::string FreshVar(const std::vector<std::string>& scope) {
    if (rng_() % 4 == 0) return Var(scope);
    return std::string("q") + std::to_string(rng_() % 3);
  }

  Formula Atom(const std::vector<std::string>& scope) {
    switch (rng_() % 12) {
      case 0:
        return Formula::Edge(Var(scope), Var(scope));
      case 1:
        return Formula::Sibling(Var(scope), Var(scope));
      case 2:
        return Formula::Descendant(Var(scope), Var(scope));
      case 3:
        return Formula::Succ(Var(scope), Var(scope));
      case 4:
        return Formula::VarEq(Var(scope), Var(scope));
      case 5:
        return Formula::Label(Var(scope), rng_() % 2 ? "a" : "b");
      case 6:
        return Formula::Root(Var(scope));
      case 7:
        return Formula::Leaf(Var(scope));
      case 8:
        return Formula::First(Var(scope));
      case 9:
        return Formula::Last(Var(scope));
      case 10:
        return Formula::Eq(Term::AttrOf("a", Var(scope)),
                           Term::Int(static_cast<DataValue>(rng_() % 4)));
      default:
        return Formula::Eq(Term::AttrOf(rng_() % 2 ? "a" : "b", Var(scope)),
                           Term::AttrOf("a", Var(scope)));
    }
  }

  std::mt19937& rng_;
};

// --- The three-way oracle. -------------------------------------------
//
// For each random (formula, tree): (1) compile fresh against the parsed
// tree, store to disk; (2) reload the tree from its snapshot image and
// the selector from the cache (a real hit, asserted via metrics); (3)
// at every origin, fresh == cached-on-mapped-tree == the reference
// node-at-a-time evaluator.  >1000 compiled instances, both dense and
// interval representations.
TEST(SelectorCacheOracle, MappedTreePlusCachedSelectorMatchesReference) {
  const std::string dir = TempCacheDir("oracle");
  SelectorDiskCache cache(dir);
  std::mt19937 rng(20260809);
  SelectorGen gen(rng);
  RandomTreeOptions options;
  options.attributes = {"a", "b"};
  options.value_range = 4;

  const std::int64_t hits_before =
      CounterValue("treewalk_selector_cache_hits_total");
  int instances = 0;
  int attempts = 0;
  while (instances < 1100 && attempts < 8000) {
    ++attempts;
    options.num_nodes = 1 + static_cast<int>(rng() % 14);
    Tree tree = RandomTree(rng, options);
    Formula formula = gen.Gen(1 + static_cast<int>(rng() % 3), {"x", "y"});
    const AxisRepr repr =
        rng() % 2 ? AxisRepr::kDense : AxisRepr::kInterval;

    AxisIndex index(tree);
    auto fresh = CompileSelector(index, formula, "x", "y", repr);
    if (!fresh.ok()) continue;  // outside the compilable fragment
    ++instances;

    SelectorCacheKey key;
    key.formula_hash = StableFormulaHash(formula, "x", "y");
    key.tree_hash = TreeContentHash(tree);
    key.repr = repr;
    ASSERT_TRUE(cache.Store(key, *fresh).ok());

    auto mapped = TreeFromSnapshotImage(
        std::make_shared<const std::string>(EncodeTreeSnapshot(tree)));
    ASSERT_TRUE(mapped.ok());
    AxisIndex mapped_index(*mapped);
    auto cached = CompileSelectorCached(mapped_index, formula, "x", "y",
                                        repr, &cache, key.tree_hash);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    EXPECT_EQ(cached->repr(), fresh->repr());
    EXPECT_EQ(cached->RetainedBytes(), fresh->RetainedBytes())
        << formula.ToString();

    for (NodeId origin = 0; origin < static_cast<NodeId>(tree.size());
         ++origin) {
      const std::vector<NodeId> a = fresh->SelectFrom(origin);
      const std::vector<NodeId> b = cached->SelectFrom(origin);
      auto reference = SelectNodes(*mapped, formula, origin);
      ASSERT_TRUE(reference.ok());
      EXPECT_EQ(a, b) << formula.ToString() << " at " << origin;
      EXPECT_EQ(b, *reference) << formula.ToString() << " at " << origin;
    }
  }
  EXPECT_GE(instances, 1000);
  // Every instance's CompileSelectorCached must have been a disk hit.
  EXPECT_EQ(CounterValue("treewalk_selector_cache_hits_total"),
            hits_before + instances);
}

TEST(SelectorCacheRoundTrip, EncodeDecodeIsExact) {
  Tree tree;
  {
    std::mt19937 rng(7);
    RandomTreeOptions options;
    options.num_nodes = 200;
    options.attributes = {"a"};
    tree = RandomTree(rng, options);
  }
  AxisIndex index(tree);
  for (AxisRepr repr : {AxisRepr::kDense, AxisRepr::kInterval}) {
    auto fresh = CompileSelector(
        index, Parse("exists z (E(x, z) & E(z, y))"), "x", "y", repr);
    ASSERT_TRUE(fresh.ok());
    SelectorCacheKey key{1, 2, repr};
    const std::string image = EncodeSelectorCacheEntry(key, *fresh);
    auto decoded = DecodeSelectorCacheEntry(image, &key);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->tree_size(), fresh->tree_size());
    EXPECT_EQ(decoded->repr(), fresh->repr());
    EXPECT_EQ(decoded->RetainedBytes(), fresh->RetainedBytes());
    for (NodeId u = 0; u < static_cast<NodeId>(tree.size()); u += 17) {
      EXPECT_EQ(decoded->SelectFrom(u), fresh->SelectFrom(u));
    }
    // Deterministic bytes: same selector, same entry image.
    EXPECT_EQ(EncodeSelectorCacheEntry(key, *fresh), image);
  }
}

TEST(SelectorCacheValidation, TruncationAndBitFlipsNeverDecodeWrong) {
  Tree tree;
  {
    std::mt19937 rng(11);
    RandomTreeOptions options;
    options.num_nodes = 40;
    tree = RandomTree(rng, options);
  }
  AxisIndex index(tree);
  auto fresh = CompileSelector(index, Parse("desc(x, y)"), "x", "y",
                               AxisRepr::kInterval);
  ASSERT_TRUE(fresh.ok());
  SelectorCacheKey key{3, 4, AxisRepr::kInterval};
  const std::string image = EncodeSelectorCacheEntry(key, *fresh);

  for (std::size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(
        DecodeSelectorCacheEntry(image.substr(0, len), &key).ok())
        << "truncation to " << len;
  }
  const std::vector<NodeId> want = fresh->SelectFrom(0);
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    auto decoded = DecodeSelectorCacheEntry(corrupt, &key);
    if (decoded.ok()) {
      // Only bytes outside both CRC windows could survive; answers
      // must still be right.
      EXPECT_EQ(decoded->SelectFrom(0), want) << "byte " << i;
    }
  }
}

TEST(SelectorCacheValidation, ReprOutsideDenseAndIntervalIsRejected) {
  // Entries persist AxisRepr's raw value (kInterval = 1, kDense = 2).
  // A correctly sealed entry naming any other value never decodes.
  std::mt19937 rng(13);
  Tree tree = RandomTree(rng, RandomTreeOptions{});
  AxisIndex index(tree);
  auto fresh = CompileSelector(index, Parse("desc(x, y)"), "x", "y",
                               AxisRepr::kDense);
  ASSERT_TRUE(fresh.ok());
  SelectorCacheKey key{5, 6, AxisRepr::kDense};
  const std::string image = EncodeSelectorCacheEntry(key, *fresh);
  ASSERT_EQ(static_cast<unsigned char>(image[12]), 2u);  // repr, LE u32
  ASSERT_TRUE(DecodeSelectorCacheEntry(image, nullptr).ok());
  for (char raw : {'\0', '\3'}) {
    std::string resealed = image.substr(0, image.size() - 4);
    resealed[12] = raw;
    const std::uint32_t crc = Crc32c(resealed);
    for (int shift = 0; shift < 32; shift += 8) {
      resealed.push_back(static_cast<char>((crc >> shift) & 0xff));
    }
    auto decoded = DecodeSelectorCacheEntry(resealed, nullptr);
    ASSERT_FALSE(decoded.ok()) << "raw repr " << static_cast<int>(raw);
    EXPECT_NE(decoded.status().message().find("repr"), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST(SelectorCacheStale, MismatchedKeyIsRejectedAndFallsBack) {
  const std::string dir = TempCacheDir("stale");
  SelectorDiskCache cache(dir);
  Tree tree;
  {
    std::mt19937 rng(13);
    RandomTreeOptions options;
    options.num_nodes = 20;
    tree = RandomTree(rng, options);
  }
  AxisIndex index(tree);
  Formula phi = Parse("E(x, y)");
  auto fresh = CompileSelector(index, phi, "x", "y", AxisRepr::kDense);
  ASSERT_TRUE(fresh.ok());

  SelectorCacheKey key;
  key.formula_hash = StableFormulaHash(phi, "x", "y");
  key.tree_hash = TreeContentHash(tree);
  key.repr = AxisRepr::kDense;
  ASSERT_TRUE(cache.Store(key, *fresh).ok());

  // Simulate a stale entry: the tree changed, the file did not.  The
  // entry for the old hash sits at a different path, so a lookup under
  // the new hash misses; a *forged* path collision (copy the old entry
  // onto the new key's path) is caught by the key embedded in the
  // entry.
  SelectorCacheKey new_key = key;
  new_key.tree_hash ^= 0xDEADBEEF;
  auto miss = cache.Load(new_key);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);

  auto stale_bytes = ReadFileBytes(cache.EntryPath(key));
  ASSERT_TRUE(stale_bytes.ok());
  ASSERT_TRUE(WriteFileAtomic(cache.EntryPath(new_key), *stale_bytes).ok());
  auto forged = cache.Load(new_key);
  ASSERT_FALSE(forged.ok());
  EXPECT_NE(forged.status().code(), StatusCode::kNotFound);

  // CompileSelectorCached degrades to a fresh compile and counts it.
  const std::int64_t fallbacks_before =
      CounterValue("treewalk_selector_cache_fallbacks_total");
  auto compiled = CompileSelectorCached(index, phi, "x", "y",
                                        AxisRepr::kDense, &cache,
                                        new_key.tree_hash);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->SelectFrom(0), fresh->SelectFrom(0));
  EXPECT_EQ(CounterValue("treewalk_selector_cache_fallbacks_total"),
            fallbacks_before + 1);
}

TEST(SelectorCacheFailpoints, LoadAndStoreFaultsDegradeGracefully) {
  const std::string dir = TempCacheDir("fp");
  SelectorDiskCache cache(dir);
  Tree tree;
  {
    std::mt19937 rng(17);
    RandomTreeOptions options;
    options.num_nodes = 16;
    tree = RandomTree(rng, options);
  }
  AxisIndex index(tree);
  Formula phi = Parse("desc(x, y)");
  auto fresh = CompileSelector(index, phi, "x", "y", AxisRepr::kDense);
  ASSERT_TRUE(fresh.ok());
  const std::uint64_t tree_hash = TreeContentHash(tree);

  // Store fault: the compile still succeeds, nothing is persisted.
  FailpointRegistry::Config fault;
  fault.code = StatusCode::kInternal;
  fault.message = "injected";
  FailpointRegistry::Global().Enable("selector_cache/store", fault);
  auto first = CompileSelectorCached(index, phi, "x", "y",
                                     AxisRepr::kDense, &cache, tree_hash);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->SelectFrom(0), fresh->SelectFrom(0));

  // Second call stores for real; third hits.
  auto second = CompileSelectorCached(index, phi, "x", "y",
                                      AxisRepr::kDense, &cache, tree_hash);
  ASSERT_TRUE(second.ok());

  // Load fault counts as a fallback, not a crash, and the answer is
  // still correct.
  FailpointRegistry::Global().Enable("selector_cache/load", fault);
  const std::int64_t fallbacks_before =
      CounterValue("treewalk_selector_cache_fallbacks_total");
  auto third = CompileSelectorCached(index, phi, "x", "y",
                                     AxisRepr::kDense, &cache, tree_hash);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->SelectFrom(0), fresh->SelectFrom(0));
  EXPECT_EQ(CounterValue("treewalk_selector_cache_fallbacks_total"),
            fallbacks_before + 1);
  FailpointRegistry::Global().DisableAll();

  // With faults gone the entry from `second` serves a real hit.
  const std::int64_t hits_before =
      CounterValue("treewalk_selector_cache_hits_total");
  auto fourth = CompileSelectorCached(index, phi, "x", "y",
                                      AxisRepr::kDense, &cache, tree_hash);
  ASSERT_TRUE(fourth.ok());
  EXPECT_EQ(CounterValue("treewalk_selector_cache_hits_total"),
            hits_before + 1);
  EXPECT_EQ(fourth->SelectFrom(0), fresh->SelectFrom(0));
}

TEST(StableFormulaHashTest, SeparatesFormulasAndVariableRoles) {
  Formula a = Parse("E(x, y)");
  Formula b = Parse("desc(x, y)");
  EXPECT_NE(StableFormulaHash(a, "x", "y"), StableFormulaHash(b, "x", "y"));
  EXPECT_NE(StableFormulaHash(a, "x", "y"), StableFormulaHash(a, "y", "x"));
  EXPECT_EQ(StableFormulaHash(a, "x", "y"),
            StableFormulaHash(Parse("E(x, y)"), "x", "y"));
}

}  // namespace
}  // namespace treewalk
