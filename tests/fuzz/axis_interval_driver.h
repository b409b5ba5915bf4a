#ifndef TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_
#define TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_

// Shared body of the axis-interval differential fuzzer: decode any byte
// string into a valid tree (TreeFromBytes), build the axis index, and
// cross-check every interval-encoded axis against its dense oracle
// (tests/dense_model.h) plus the pre/post-order numbering invariant,
// the interval And/Or merges against their dense twins, and one
// compiled selector against direct navigation.  Driven by fuzz_axis_interval.cc under
// libFuzzer and replayed over the seed corpus by fuzz_corpus_test.cc in
// tier-1 builds.  Returns true iff every cross-check agrees; the tree
// decode itself can never fail, so any false is a found bug.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/logic/compile.h"
#include "src/logic/parser.h"
#include "src/tree/axis_index.h"
#include "src/tree/generate.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"
#include "tests/dense_model.h"

namespace treewalk {

inline bool AxisIntervalAgrees(const std::uint8_t* data, std::size_t size,
                               int max_nodes = 512) {
  const Tree t = TreeFromBytes(data, size, max_nodes);
  const NodeId n = static_cast<NodeId>(t.size());
  AxisIndex index(t);

  // Every interval axis must densify to exactly its NodeMatrix oracle.
  const auto agrees = [](Result<const IntervalMatrix*> intervals,
                         const NodeMatrix& dense) {
    return intervals.ok() && ToDense(*intervals.value()) == dense;
  };
  const NodeMatrix dense_edge = DenseEdge(t);
  const NodeMatrix dense_desc = DenseDescendant(t);
  if (!agrees(index.TryEdgeIntervals(), dense_edge)) return false;
  if (!agrees(index.TryDescendantIntervals(), dense_desc)) return false;
  if (!agrees(index.TrySiblingIntervals(), DenseSibling(t))) return false;
  if (!agrees(index.TrySuccIntervals(), DenseSucc(t))) return false;
  if (!agrees(index.TryIdentityIntervals(), DenseIdentity(t))) return false;

  // Pre/post-order numbering: desc(u, v) <=> u < v and rank[v] < rank[u].
  const std::vector<NodeId>& rank = index.PostorderRanks();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if ((u < v && rank[v] < rank[u]) != t.IsStrictAncestor(u, v)) {
        return false;
      }
    }
  }

  // And/Or against a column broadcast of each label, the shapes
  // Example 3.2's selector compiles to: desc ∧ lab(y) narrows a single
  // span's clip window, E ∧ lab(y) intersects a multi-span row with the
  // long label row, and E ∨ ¬lab(y) subtracts the one from the other.
  Result<const IntervalMatrix*> desc = index.TryDescendantIntervals();
  Result<const IntervalMatrix*> edge = index.TryEdgeIntervals();
  if (!desc.ok() || !edge.ok()) return false;
  const auto merge_agrees = [](Result<IntervalMatrix> merged,
                               const NodeMatrix& dense) {
    return merged.ok() && ToDense(*merged) == dense;
  };
  for (const char* label : {"a", "b", "c"}) {
    const NodeSet& labelled = index.LabelSet(label);
    Result<IntervalMatrix> broadcast =
        IntervalMatrix::ColBroadcast(labelled, nullptr);
    if (!broadcast.ok()) return false;
    NodeMatrix dense_broadcast(t.size());
    for (NodeId u = 0; u < n; ++u) dense_broadcast.RowUnion(u, labelled);

    NodeMatrix desc_and = dense_desc;
    desc_and.Intersect(dense_broadcast);
    NodeMatrix edge_and = dense_edge;
    edge_and.Intersect(dense_broadcast);
    NodeMatrix edge_or_not = dense_broadcast;
    edge_or_not.Complement();
    edge_or_not.Union(dense_edge);
    if (!merge_agrees(IntervalMatrix::And(*desc.value(), *broadcast, nullptr),
                      desc_and) ||
        !merge_agrees(IntervalMatrix::And(*edge.value(), *broadcast, nullptr),
                      edge_and) ||
        !merge_agrees(IntervalMatrix::Or(*edge.value(),
                                         IntervalMatrix::Not(*broadcast),
                                         nullptr),
                      edge_or_not)) {
      return false;
    }
  }

  // One compiled selector through the guarded join, against direct
  // navigation.
  Result<Formula> phi = ParseFormula("exists z (E(x, z) & E(z, y))");
  if (!phi.ok()) return false;
  Result<CompiledSelector> interval = CompileSelector(index, *phi, "x", "y");
  if (!interval.ok()) return false;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> grandchildren;
    for (NodeId c = t.FirstChild(u); c != kNoNode; c = t.NextSibling(c)) {
      for (NodeId g = t.FirstChild(c); g != kNoNode; g = t.NextSibling(g)) {
        grandchildren.push_back(g);
      }
    }
    std::sort(grandchildren.begin(), grandchildren.end());
    if (interval.value().SelectFrom(u) != grandchildren) return false;
  }
  return true;
}

}  // namespace treewalk

#endif  // TREEWALK_TESTS_FUZZ_AXIS_INTERVAL_DRIVER_H_
