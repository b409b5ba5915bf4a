#ifndef TREEWALK_RELSTORE_STORE_H_
#define TREEWALK_RELSTORE_STORE_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/relstore/relation.h"

namespace treewalk {

/// The relational storage of a tw^r / tw^{r,l} automaton (Section 3): a
/// fixed list of named relations X_1, ..., X_k with declared arities.
/// The schema (names and arities) is immutable after construction;
/// contents are mutable.  Copies share the list of names.
class Store {
 public:
  Store() = default;

  /// Declares the relations; names must be unique.
  static Result<Store> Create(
      const std::vector<std::pair<std::string, int>>& schema);

  std::size_t num_relations() const { return relations_.size(); }

  /// Index of a relation name, or -1.
  int IndexOf(const std::string& name) const;
  /// Arity of a relation name, or -1 if unknown (shape matches the
  /// callback ValidateStoreFormula expects).
  int ArityOf(const std::string& name) const;

  const std::string& NameAt(std::size_t index) const {
    return (*names_)[index];
  }
  const Relation& At(std::size_t index) const { return relations_[index]; }
  Relation& At(std::size_t index) { return relations_[index]; }

  const Relation* Find(const std::string& name) const;
  Relation* Find(const std::string& name);

  /// Replaces relation `index`; arity must match the schema.
  Status Replace(std::size_t index, Relation relation);
  /// Replace() by copy-assignment, reusing the slot's buffer.
  Status Assign(std::size_t index, const Relation& relation);

  /// All values occurring in any relation, sorted, unique (the store part
  /// of the active domain).
  std::vector<DataValue> ActiveDomain() const;
  /// Appends every value of every relation to `out`, unsorted and with
  /// repeats.
  void AppendValues(std::vector<DataValue>& out) const;

  /// Total number of tuples across relations (a size measure for the
  /// PSPACE accounting of Theorem 7.1(3)).
  std::size_t TotalTuples() const;

  /// 64-bit content hash over all relations (schema excluded — one
  /// store's fingerprints are only compared with its own).  A fast
  /// discriminator for cache keys; not collision-free.
  std::uint64_t Fingerprint() const;

  /// Deterministic comparison for memoization of configurations: by
  /// names, then contents.
  friend bool operator==(const Store& a, const Store& b);
  friend std::strong_ordering operator<=>(const Store& a, const Store& b);

  std::string ToString() const;

 private:
  /// Relation names by index; null for the empty default store.
  std::shared_ptr<const std::vector<std::string>> names_;
  std::vector<Relation> relations_;
};

}  // namespace treewalk

#endif  // TREEWALK_RELSTORE_STORE_H_
