#ifndef TREEWALK_TESTS_DENSE_MODEL_H_
#define TREEWALK_TESTS_DENSE_MODEL_H_

// Slow twin for interval-encoded relations (src/tree/interval_matrix.h):
// a plain n-by-n bit matrix, the five tau axes filled by direct loops
// over the tree's navigation arrays, and a densifier for IntervalMatrix.
// Tests and the axis fuzz driver compare interval rows against it; no
// product code uses it.

#include <cstddef>
#include <vector>

#include "src/tree/axis_index.h"
#include "src/tree/interval_matrix.h"
#include "src/tree/tree.h"

namespace treewalk {

/// {(u, v) : R(u, v)} as one bit per pair.
class NodeMatrix {
 public:
  explicit NodeMatrix(std::size_t n) : n_(n), bits_(n * n, false) {}

  std::size_t size() const { return n_; }

  bool test(NodeId u, NodeId v) const { return bits_[At(u, v)]; }
  void set(NodeId u, NodeId v, bool value = true) { bits_[At(u, v)] = value; }
  /// Sets row u's bits in [begin, end).
  void SetRowRange(NodeId u, NodeId begin, NodeId end) {
    for (NodeId v = begin; v < end; ++v) set(u, v);
  }
  /// ORs `s` into row u.
  void RowUnion(NodeId u, const NodeSet& s) {
    for (NodeId v : s.ToVector()) set(u, v);
  }

  void Union(const NodeMatrix& o) {
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      bits_[i] = bits_[i] || o.bits_[i];
    }
  }
  void Intersect(const NodeMatrix& o) {
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      bits_[i] = bits_[i] && o.bits_[i];
    }
  }
  void Complement() { bits_.flip(); }

  friend bool operator==(const NodeMatrix&, const NodeMatrix&) = default;

 private:
  std::size_t At(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + static_cast<std::size_t>(v);
  }

  std::size_t n_;
  std::vector<bool> bits_;
};

/// E(u, v): v is a child of u.
inline NodeMatrix DenseEdge(const Tree& t) {
  NodeMatrix m(t.size());
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    if (t.Parent(v) != kNoNode) m.set(t.Parent(v), v);
  }
  return m;
}

/// desc(u, v): v is a strict descendant of u.
inline NodeMatrix DenseDescendant(const Tree& t) {
  NodeMatrix m(t.size());
  for (NodeId v = 0; v < static_cast<NodeId>(t.size()); ++v) {
    for (NodeId a = t.Parent(v); a != kNoNode; a = t.Parent(a)) m.set(a, v);
  }
  return m;
}

/// sib(u, v): same parent, u before v.
inline NodeMatrix DenseSibling(const Tree& t) {
  NodeMatrix m(t.size());
  for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
    for (NodeId v = t.NextSibling(u); v != kNoNode; v = t.NextSibling(v)) {
      m.set(u, v);
    }
  }
  return m;
}

/// succ(u, v): v is the right sibling of u.
inline NodeMatrix DenseSucc(const Tree& t) {
  NodeMatrix m(t.size());
  for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) {
    if (t.NextSibling(u) != kNoNode) m.set(u, t.NextSibling(u));
  }
  return m;
}

/// u = v.
inline NodeMatrix DenseIdentity(const Tree& t) {
  NodeMatrix m(t.size());
  for (NodeId u = 0; u < static_cast<NodeId>(t.size()); ++u) m.set(u, u);
  return m;
}

/// The O(n^2) object the interval representation avoids.
inline NodeMatrix ToDense(const IntervalMatrix& im) {
  NodeMatrix m(im.size());
  for (NodeId u = 0; u < static_cast<NodeId>(im.size()); ++u) {
    for (const NodeSpan& s : im.RowSpans(u)) m.SetRowRange(u, s.begin, s.end);
  }
  return m;
}

}  // namespace treewalk

#endif  // TREEWALK_TESTS_DENSE_MODEL_H_
