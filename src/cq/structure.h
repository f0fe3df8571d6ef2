// Relational structures / database instances (Section 2.1): one finite
// relation (set of integer tuples) per vocabulary symbol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cq/query.h"
#include "cq/vocabulary.h"

namespace bagcq::cq {

class Structure {
 public:
  using Tuple = std::vector<int>;

  explicit Structure(Vocabulary vocab);

  const Vocabulary& vocab() const { return vocab_; }

  /// Inserts a tuple into relation r (set semantics; duplicates dropped).
  void AddTuple(int relation, Tuple t);
  /// Inserts many tuples into relation r with one sort and one merge, where
  /// AddTuple per tuple shifts the sorted vector.
  void AddTuples(int relation, std::vector<Tuple> tuples);
  const std::vector<Tuple>& tuples(int relation) const {
    return relations_[relation];
  }
  bool Contains(int relation, const Tuple& t) const;

  /// All values appearing anywhere (the active domain), sorted.
  std::vector<int> ActiveDomain() const;
  /// Total tuple count across relations.
  int64_t TotalTuples() const;

  std::string ToString() const;

 private:
  Vocabulary vocab_;
  std::vector<std::vector<Tuple>> relations_;  // sorted, unique
};

/// The canonical structure of a Boolean query (Section 2.2): domain =
/// variable ids, one tuple per atom. Q1 ⪯ Q2 iff canonical(Q1) ⪯
/// canonical(Q2) in the domination order.
Structure CanonicalStructure(const ConjunctiveQuery& q);

/// The inverse: a Boolean query whose atoms are the structure's tuples and
/// whose variables are the domain elements.
ConjunctiveQuery StructureToQuery(const Structure& a);

}  // namespace bagcq::cq
