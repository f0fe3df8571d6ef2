// Fraction-free exact simplex over a machine-word escalation ladder.
//
// LadderSimplex produces bit-identical results to SimplexSolver<Rational>
// (same statuses, objectives, values, duals, Farkas certificates, bases, and
// — under Bland's rule — the same pivot sequence), but runs the tableau in
// integer arithmetic on a single flat strided block instead of a
// vector-of-Rational matrix:
//
//   * Integer-preserving pivoting (fraction-free / Bareiss, the integer
//     pivoting of Edmonds and of Avis's lrs): the tableau is an integer
//     matrix M plus one positive denominator d, real entry = M[i][j]/d. A
//     pivot on (r, c) with piv = M[r][c] > 0 updates every other row i as
//     M'[i][j] = (piv*M[i][j] - M[i][c]*M[r][j]) / d — the division is
//     exact (entries are subdeterminants of the integer input) — leaves the
//     pivot row untouched, and sets d' = piv.
//
//   * A three-tier arithmetic ladder. The tableau starts in the narrowest
//     tier that holds the input and every multiply/add is overflow-checked
//     (__builtin_*_overflow); the first operation that would overflow
//     promotes the whole tableau losslessly to the next tier and resumes
//     mid-pivot. Promotion is never speculative and never reversed within a
//     solve. Tiers: kWord (int64), kWide (__int128 where available),
//     kBig (util::BigInt — never overflows).
//
//   * Lossless Rational conversion only at the boundary: Solution values /
//     objective / duals / farkas / warm-start basis export are built as
//     Rational(M, d) (plus the integerization scales below), so VerifyDuals
//     and VerifyFarkas consume exactly what the Rational reference produces.
//
// Non-integer input is integerized: constraint row i is scaled by t_i (the
// lcm of its coefficient/rhs denominators), the objective by L, and the
// phase-I cost of row i's artificial is lcm(t)/t_i — a uniform positive
// rescaling of the reference phase-I objective, which is what keeps Bland's
// pivot sequence (signs and cross-multiplied ratio tests are invariant under
// positive row/column scalings) identical to the reference simplex. Integer
// input takes a fast path with t_i = L = 1 and no BigInt staging at all.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/simplex.h"
#include "util/bigint.h"

namespace bagcq::lp {

#if defined(__SIZEOF_INT128__)
using LadderWide = __int128;
inline constexpr bool kHasWideTier = true;
#else
// No 128-bit integer on this toolchain: the middle rung folds away and the
// word tier promotes straight to BigInt.
using LadderWide = int64_t;
inline constexpr bool kHasWideTier = false;
#endif

/// Which rung of the arithmetic ladder a tableau is currently on.
enum class LadderTier : uint8_t {
  kWord,  // overflow-checked int64
  kWide,  // 128-bit (__int128)
  kBig,   // util::BigInt
};

const char* LadderTierToString(LadderTier tier);

/// Persistent arena for LadderSimplex. One tier's flat block is live at a
/// time — (m+1) rows of (ncols+1) entries plus the trailing denominator cell
/// — and all three keep their capacity across solves, so repeated solves of
/// equal-shaped programs (warm slots, Engine batches) do zero allocation.
struct LadderWorkspace {
  // Column/row metadata; same meanings as SimplexWorkspace.
  std::vector<int> col_of_var;
  std::vector<int> neg_col_of_var;
  std::vector<int> basis;
  std::vector<int> row_sign;
  std::vector<int> identity_col;
  std::vector<int> slack_col_of_row;
  std::vector<int> art_col_of_row;
  std::vector<BasisEntry> col_entry;
  // Integerization state: t_i per row, the objective scale L, lcm(t), and
  // the integer (scaled) phase-II / current-phase cost vectors.
  std::vector<util::BigInt> row_scale;
  util::BigInt cost_scale;
  util::BigInt art_scale;
  std::vector<util::BigInt> structural_cost;
  std::vector<util::BigInt> phase_cost;
  // The tiered arenas.
  std::vector<int64_t> w64;
  std::vector<LadderWide> wwide;
  std::vector<util::BigInt> wbig;

  /// Releases all held memory (capacity included).
  void Release();
  /// Bytes of arena capacity currently retained across all tiers.
  size_t RetainedBytes() const;
};

/// Drop-in exact solver with the SimplexSolver<Rational> contract (see
/// simplex.h for Solve/SolveFrom semantics — warm starts, pivot caps, and
/// certificate conventions are identical). Solutions additionally report
/// word_pivots / wide_pivots / bigint_promotions.
class LadderSimplex {
 public:
  explicit LadderSimplex(SolverOptions options = {}) : options_(options) {}

  Solution<util::Rational> Solve(const LpProblem& problem);
  Solution<util::Rational> SolveFrom(const LpProblem& problem,
                                     const std::vector<BasisEntry>& basis);

  /// Drops the persistent arena. Subsequent solves start cold.
  void Reset() { workspace_.Release(); }

  const LadderWorkspace& workspace() const { return workspace_; }

 private:
  SolverOptions options_;
  LadderWorkspace workspace_;
};

}  // namespace bagcq::lp
