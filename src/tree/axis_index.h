#ifndef TREEWALK_TREE_AXIS_INDEX_H_
#define TREEWALK_TREE_AXIS_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/common/data_value.h"
#include "src/common/governor.h"
#include "src/common/result.h"
#include "src/tree/tree.h"

namespace treewalk {

class IntervalMatrix;  // src/tree/interval_matrix.h

/// How axis relations and compiled-selector matrices are represented.
/// The cost-based planner (src/logic/planner.h) picks one per selector.
///
///   - kDense: n-by-n bitset NodeMatrix rows (O(n^2) bytes, O(1) bit
///     tests, word-parallel row algebra) — unbeatable at small n.
///   - kInterval: pre-order span lists per row (O(n) bytes for every
///     tau axis, range algebra) — the only representation that reaches
///     the million-node target.
///
/// The values are persisted in compiled-selector cache entries
/// (src/logic/selector_cache.h); 0 is deliberately not a repr.
enum class AxisRepr {
  kInterval = 1,
  kDense = 2,
};

/// Dense bitset over Dom(t): one bit per NodeId, packed 64 per word.
/// Because nodes are stored in document order, iterating set bits from
/// word 0 upward yields nodes in document order for free.
class NodeSet {
 public:
  NodeSet() = default;
  /// All-zero set over a domain of `n` nodes.
  explicit NodeSet(std::size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  static NodeSet Full(std::size_t n) {
    NodeSet s(n);
    for (auto& w : s.words_) w = ~std::uint64_t{0};
    s.MaskTail();
    return s;
  }

  /// Domain size (number of addressable bits), not the popcount.
  std::size_t size() const { return n_; }
  std::size_t num_words() const { return words_.size(); }

  bool test(NodeId u) const {
    return (words_[static_cast<std::size_t>(u) >> 6] >>
            (static_cast<std::size_t>(u) & 63)) &
           1;
  }
  void set(NodeId u) {
    words_[static_cast<std::size_t>(u) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(u) & 63);
  }
  /// Sets every bit in [begin, end).
  void SetRange(NodeId begin, NodeId end);

  bool any() const;
  bool all() const;
  std::size_t count() const;

  void Union(const NodeSet& o);
  void Intersect(const NodeSet& o);
  /// Flips all bits (complement relative to Dom(t)).
  void Complement();

  /// Set bits in ascending NodeId order = document order.
  std::vector<NodeId> ToVector() const;

  const std::uint64_t* words() const { return words_.data(); }
  std::uint64_t* words() { return words_.data(); }

  friend bool operator==(const NodeSet&, const NodeSet&) = default;

 private:
  void MaskTail();

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Dense n-by-n bit matrix over Dom(t) x Dom(t): row u is the bitset
/// {v : R(u, v)} of a binary relation R.  Rows are word-aligned, so
/// row-wise set algebra runs 64 node pairs per instruction.
class NodeMatrix {
 public:
  NodeMatrix() = default;
  explicit NodeMatrix(std::size_t n)
      : n_(n), words_per_row_((n + 63) / 64),
        words_(n * ((n + 63) / 64), 0) {}

  std::size_t size() const { return n_; }
  std::size_t words_per_row() const { return words_per_row_; }

  std::uint64_t* Row(NodeId u) {
    return words_.data() + static_cast<std::size_t>(u) * words_per_row_;
  }
  const std::uint64_t* Row(NodeId u) const {
    return words_.data() + static_cast<std::size_t>(u) * words_per_row_;
  }

  bool test(NodeId u, NodeId v) const {
    return (Row(u)[static_cast<std::size_t>(v) >> 6] >>
            (static_cast<std::size_t>(v) & 63)) &
           1;
  }
  void set(NodeId u, NodeId v) {
    Row(u)[static_cast<std::size_t>(v) >> 6] |=
        std::uint64_t{1} << (static_cast<std::size_t>(v) & 63);
  }
  /// Sets row u's bits in [begin, end).
  void SetRowRange(NodeId u, NodeId begin, NodeId end);
  /// ORs `s` into row u.
  void RowUnion(NodeId u, const NodeSet& s);

  void Union(const NodeMatrix& o);
  void Intersect(const NodeMatrix& o);
  /// Flips every bit (complement relative to Dom(t) x Dom(t)).
  void Complement();

  NodeMatrix Transposed() const;

  /// Row copied out as a NodeSet.
  NodeSet RowSet(NodeId u) const;
  /// Set of rows with at least one bit: {u : exists v R(u, v)}.
  NodeSet AnyPerRow() const;
  /// Set of full rows: {u : forall v R(u, v)}.
  NodeSet AllPerRow() const;

  friend bool operator==(const NodeMatrix&, const NodeMatrix&) = default;

 private:
  void MaskTails();

  std::size_t n_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Per-tree index of the tau_{Sigma,A} vocabulary as set-valued views,
/// computed once and shared by every compiled formula over one tree
/// (src/logic/compile.h).  The scalar navigation arrays (parent,
/// first/last child, successor, document-order rank = NodeId) stay on
/// the Tree itself; the index adds what set-at-a-time evaluation needs:
///
///   - unary predicate bitsets: root(x), leaf(x), first(x), last(x);
///   - label -> node-set and attribute-value -> node-set maps;
///   - memoized axis relation matrices: E (child), desc (strict
///     descendant, a contiguous pre-order range per row), sib (later
///     siblings, children-of-parent masked to ids > u), succ.
///
/// Construction is O(n) plus O(|Sigma| + #distinct-values) bitsets;
/// each matrix is materialized on first use and cached.  Not
/// thread-safe: use one AxisIndex per run (the interpreter owns one per
/// Runner).  The tree must outlive the index.
class AxisIndex {
 public:
  /// With a governor, every materialization (base bitsets, relation
  /// matrices, attribute-value indexes) is charged against its memory
  /// budget under MemoryCategory::kAxisIndex *before* allocating, and
  /// the Try* accessors surface kResourceExhausted instead of growing
  /// without bound.  Without one (the default) behavior is unchanged.
  explicit AxisIndex(const Tree& tree, ResourceGovernor* governor = nullptr);
  ~AxisIndex();  // out of line: interval slots hold an incomplete type here

  const Tree& tree() const { return *tree_; }
  std::size_t size() const { return n_; }
  ResourceGovernor* governor() const { return governor_; }
  /// Non-OK when already the construction-time bitsets blew the budget;
  /// check after constructing with a governor.
  const Status& status() const { return status_; }

  const NodeSet& Empty() const { return empty_; }
  const NodeSet& Full() const { return full_; }
  const NodeSet& Roots() const { return roots_; }
  const NodeSet& Leaves() const { return leaves_; }
  const NodeSet& FirstChildren() const { return first_children_; }
  const NodeSet& LastChildren() const { return last_children_; }

  /// Nodes labeled `name`; the empty set when no node carries it (the
  /// lab(x, sigma) semantics: an unknown label is false everywhere).
  const NodeSet& LabelSet(std::string_view name) const;

  /// Nodes whose attribute `a` has value `v` (empty set when none).
  /// `a` must be a valid attribute id of the tree.
  const NodeSet& AttrValueSet(AttrId a, DataValue v) const;
  /// Distinct values of attribute `a`, ascending.
  const std::vector<DataValue>& AttrValues(AttrId a) const;

  /// E(u, v): v is a child of u.
  const NodeMatrix& EdgeMatrix() const;
  /// desc(u, v): v is a strict descendant of u.
  const NodeMatrix& DescendantMatrix() const;
  /// sib(u, v): same parent, u before v.
  const NodeMatrix& SiblingMatrix() const;
  /// succ(u, v): v is the right sibling of u.
  const NodeMatrix& SuccMatrix() const;
  /// u = v.
  const NodeMatrix& IdentityMatrix() const;

  /// Governed variants of the lazy accessors: charge the governor's
  /// memory budget before materializing (a cached matrix re-charges
  /// nothing) and fail with kResourceExhausted instead of allocating
  /// past the budget.  The compiler (src/logic/compile.cc) uses these;
  /// the reference accessors above stay for ungoverned callers.
  Result<const NodeMatrix*> TryEdgeMatrix() const;
  Result<const NodeMatrix*> TryDescendantMatrix() const;
  Result<const NodeMatrix*> TrySiblingMatrix() const;
  Result<const NodeMatrix*> TrySuccMatrix() const;
  Result<const NodeMatrix*> TryIdentityMatrix() const;
  Result<const NodeSet*> TryAttrValueSet(AttrId a, DataValue v) const;
  Result<const std::vector<DataValue>*> TryAttrValues(AttrId a) const;

  /// Bytes a dense n-by-n NodeMatrix over this domain occupies; what
  /// the Try* accessors charge per materialized relation.
  std::int64_t MatrixBytes() const;

  /// Interval-encoded axis relations: the same five relations as the
  /// Try*Matrix accessors, as O(n)-byte IntervalMatrix objects.  The
  /// pre-order arena makes every one span-sparse — desc(u) is the
  /// single range (u, SubtreeEnd(u)), succ(u) one point, sib(u) a
  /// suffix window onto one shared child-run list per family.  Each is
  /// materialized on first use with an *exact* pre-charge (a span-count
  /// prepass, not the dense MatrixBytes worst case) under
  /// MemoryCategory::kAxisIndex, and cached.
  Result<const IntervalMatrix*> TryEdgeIntervals() const;
  Result<const IntervalMatrix*> TryDescendantIntervals() const;
  Result<const IntervalMatrix*> TrySiblingIntervals() const;
  Result<const IntervalMatrix*> TrySuccIntervals() const;
  Result<const IntervalMatrix*> TryIdentityIntervals() const;

  /// rank[u] = position of u in post-order (pre-order rank is the
  /// NodeId itself).  desc(u, v) iff u < v and rank[v] < rank[u]: the
  /// interval-numbering invariant the metamorphic suite checks.
  /// Lazy, cached, charged under kAxisIndex.
  Result<const std::vector<NodeId>*> TryPostorderRanks() const;
  /// Ungoverned variant (materializes unconditionally).
  const std::vector<NodeId>& PostorderRanks() const;

 private:
  struct AttrIndex {
    std::map<DataValue, NodeSet> sets;
    std::vector<DataValue> values;
  };
  const AttrIndex& AttrIndexFor(AttrId a) const;
  Status EnsureAttrIndex(AttrId a) const;
  /// Charges + materializes `slot` via `fill`; OK and cached on reuse.
  Status EnsureMatrix(std::optional<NodeMatrix>& slot,
                      void (AxisIndex::*fill)(NodeMatrix&) const) const;
  void FillEdge(NodeMatrix& m) const;
  void FillDescendant(NodeMatrix& m) const;
  void FillSibling(NodeMatrix& m) const;
  void FillSucc(NodeMatrix& m) const;
  void FillIdentity(NodeMatrix& m) const;

  /// Charges exactly (prepassed span count) + builds `slot` via
  /// `build`; OK and cached on reuse.
  Status EnsureIntervals(std::unique_ptr<IntervalMatrix>& slot,
                         Result<IntervalMatrix> (AxisIndex::*build)()
                             const) const;
  Result<IntervalMatrix> BuildEdgeIntervals() const;
  Result<IntervalMatrix> BuildDescendantIntervals() const;
  Result<IntervalMatrix> BuildSiblingIntervals() const;
  Result<IntervalMatrix> BuildSuccIntervals() const;
  Result<IntervalMatrix> BuildIdentityIntervals() const;

  const Tree* tree_;
  std::size_t n_;
  ResourceGovernor* governor_ = nullptr;
  Status status_;
  NodeSet empty_, full_, roots_, leaves_, first_children_, last_children_;
  std::vector<NodeSet> label_sets_;  // indexed by Symbol
  mutable std::vector<std::optional<AttrIndex>> attr_index_;
  mutable std::optional<NodeMatrix> edge_, desc_, sib_, succ_, identity_;
  mutable std::unique_ptr<IntervalMatrix> iedge_, idesc_, isib_, isucc_,
      iidentity_;
  mutable std::optional<std::vector<NodeId>> post_ranks_;
};

}  // namespace treewalk

#endif  // TREEWALK_TREE_AXIS_INDEX_H_
