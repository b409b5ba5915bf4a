#ifndef TREEWALK_RELSTORE_RELATION_H_
#define TREEWALK_RELSTORE_RELATION_H_

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/data_value.h"

namespace treewalk {

/// A tuple of data values.
using Tuple = std::vector<DataValue>;

/// A finite relation over the data domain D: a sorted, duplicate-free set
/// of equal-arity tuples.  This is the content of one register of a
/// tw^r / tw^{r,l} automaton (Section 3).
///
/// Arity-0 relations are booleans: either empty (false) or containing the
/// single empty tuple (true).
///
/// The tuples are laid end to end in one buffer, so copying a relation
/// is one allocation, and assigning into an existing relation, Clear(),
/// Append() and an in-place UnionWith() reuse its capacity.
class Relation {
 public:
  /// Empty relation of the given arity.
  explicit Relation(int arity = 1) : arity_(arity) {}

  /// Builds from tuples (deduplicated and sorted).  All tuples must have
  /// length `arity`.
  Relation(int arity, std::vector<Tuple> tuples);

  int arity() const { return arity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The tuples in sorted order, copied out.
  std::vector<Tuple> tuples() const;

  /// Membership test; `t` must have the right arity.
  bool Contains(const Tuple& t) const;

  /// Inserts a tuple (keeps sortedness); returns true if new.
  bool Insert(const Tuple& t);

  /// Appends `t`, which must sort after every tuple present: the
  /// no-search insert for tuples produced in order.
  void Append(std::span<const DataValue> t);

  /// Empties the relation and sets its arity, keeping the buffer.
  void Reset(int arity);

  /// Set union with a relation of the same arity, merged in place.
  void UnionWith(const Relation& other);

  /// All values occurring in some tuple, sorted, unique.
  std::vector<DataValue> Values() const;
  /// Appends every value of every tuple to `out`, in tuple order and
  /// with repeats.
  void AppendValues(std::vector<DataValue>& out) const {
    out.insert(out.end(), values_.begin(), values_.end());
  }

  /// A singleton unary relation {v}; convenience for tw^l registers.
  static Relation Singleton(DataValue v);

  /// Order-sensitive 64-bit content hash (tuples are kept sorted, so
  /// equal relations hash equally).  A fast discriminator for cache
  /// keys; not collision-free.
  std::uint64_t Fingerprint() const;

  /// "{(v1, ..., vk)}".
  std::string ToString() const;

  friend bool operator==(const Relation&, const Relation&) = default;
  /// Lexicographic on (arity, tuple list); usable as a map key.
  friend std::strong_ordering operator<=>(const Relation& a,
                                          const Relation& b);

 private:
  /// Tuple `i` (0 <= i < size()) in sorted order, viewed in place.
  std::span<const DataValue> Row(std::size_t i) const {
    return {values_.data() + i * static_cast<std::size_t>(arity_),
            static_cast<std::size_t>(arity_)};
  }
  /// Index of the first tuple not less than `t`.
  std::size_t LowerBound(std::span<const DataValue> t) const;

  int arity_;
  std::size_t size_ = 0;
  /// size_ tuples of arity_ values each, sorted, unique.
  std::vector<DataValue> values_;
};

}  // namespace treewalk

#endif  // TREEWALK_RELSTORE_RELATION_H_
