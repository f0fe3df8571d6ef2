// Witness construction (Fact 3.2, Theorem 3.4, Lemma 4.8/E.1): turn a
// *normal* entropic counterexample of the containment inequality into an
// explicit database D with |hom(Q1,D)| > |hom(Q2,D)|.
//
// Pipeline: normal h = Σ c_W h_W  →  scale c to integers with violation gap
// > log2 |hom(Q2,Q1)| (Lemma 4.8)  →  P = ⊗_W P_W^{levels} (a normal
// relation, Definition 3.3, realized as a domain product of step relations)
// →  D = Π_Q1(P) with variable-annotated values (proof of Theorem 4.4)  →
// verify the counts with cq::CountHomomorphisms (junction-tree DP).
//
// Two certificates are produced: the *symbolic* one (exact big-integer
// comparison |P| > Σ_φ 2^{E_φ(h)}, which is how the proof bounds
// |hom(Q2,D)|) and — when sizes permit — the *explicit* verified counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/containment_inequality.h"
#include "cq/structure.h"
#include "entropy/relation.h"
#include "entropy/set_function.h"
#include "util/status.h"

namespace bagcq::core {

struct WitnessOptions {
  /// Refuse to materialize relations/databases beyond this many tuples.
  int64_t max_tuples = 100'000;
  /// Count homomorphisms to double-check.
  bool verify_counts = true;
};

struct Witness {
  /// The normal V-relation P over vars(Q1).
  entropy::Relation relation{0};
  /// The induced database Π_Q1(P) (annotated values, original vocabulary).
  cq::Structure database{cq::Vocabulary()};
  /// Scaled step-function multiplicities: W -> levels (= 2^{k·c_W}).
  std::map<util::VarSet, int64_t> factor_levels;
  /// Symbolic certificate: |P| = 2^lhs_log2 > Σ_φ 2^{branch exponent}.
  int64_t lhs_log2 = 0;
  bool symbolic_certificate_holds = false;
  /// Explicit verification (when performed): the two counts.
  bool counts_verified = false;
  int64_t hom_q1 = -1;
  int64_t hom_q2 = -1;

  std::string ToString(const cq::ConjunctiveQuery& q1) const;
};

/// Builds a witness from a violating normal function h = Σ_W c_W·h_W, given
/// by its weights (`MaxIIResult::decomposition`) or densely, decomposed by
/// Möbius inversion; only the perfbench stage replay and tests use the dense
/// form. Every W ⊊ vars(Q1), every c_W > 0 and max branch < 0 are
/// CHECK-verified. Returns ResourceExhausted if the witness exceeds limits.
util::Result<Witness> BuildWitnessFromNormal(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const ContainmentInequality& inequality,
    const std::map<util::VarSet, util::Rational>& coeffs,
    const WitnessOptions& options = {});
util::Result<Witness> BuildWitnessFromNormal(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const ContainmentInequality& inequality,
    const entropy::SetFunction& normal_h, const WitnessOptions& options = {});

/// The induced database Π_Q1(P) of Eq. (4). With `annotate` (the default,
/// and what the Theorem 4.4 proof requires), every value is tagged by its
/// variable, encoded as var_id * stride + raw_value; without it the plain
/// projections are used (as in Example 3.5's illustration).
cq::Structure InduceDatabase(const cq::ConjunctiveQuery& q1,
                             const entropy::Relation& p, bool annotate = true);

}  // namespace bagcq::core
