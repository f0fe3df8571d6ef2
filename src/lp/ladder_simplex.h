// Fraction-free exact simplex over a machine-word escalation ladder.
//
// LadderSimplex produces bit-identical results to the reference
// SimplexSolver (same statuses, objectives, values, duals, Farkas
// certificates, bases, and — under Bland's rule — the same pivot sequence),
// but runs the tableau in integer arithmetic on a single flat strided block
// instead of a vector-of-Rational matrix:
//
//   * Row-scaled integer pivoting: every row is an integer row over its own
//     positive scale, real entry = M[i][j] / s_i. A constraint row's scale
//     is its entry in its basic column; the cost row's is the trailing cell
//     of the block. A pivot on (r, c) with piv = M[r][c] > 0 leaves the
//     pivot row as it is (its scale becomes piv) and every row with
//     M[i][c] = 0 untouched; any other row becomes a*row_i - b*row_r, with
//     g = gcd(piv, M[i][c]), a = piv/g and b = M[i][c]/g, and its scale is
//     multiplied by a. Bland's choices read only signs and the ratios
//     rhs_i / M[i][enter], in which a row's scale cancels, so they are the
//     reference's. A row with a = 1 changes only in the pivot row's
//     nonzero columns, so it computes only those. Each updated row is then
//     made primitive (the gcd of its entries, scale included, is 1): the
//     gcd of its scale and its entry in the leaving column bounds the
//     row's common factor, and the row is scanned and divided only when
//     that gcd exceeds 1. These are the only gcds the pivot loop runs,
//     besides the one that gives a and b when piv > 1. A primitive row
//     divides the row of the shared-denominator (Bareiss) tableau that
//     represents the same rational row, so no entry or product is larger
//     than there, and the word tier overflows no earlier.
//
//   * A two-tier arithmetic ladder, one tier per run: kWord (int64) and
//     kBig (util::BigInt, which never overflows). A solve runs in the word
//     tier when its input fits IntegerProgram::kMaxBits, else in BigInt.
//     In the word tier every multiply/subtract is overflow-checked
//     (__builtin_*_overflow); the first that would overflow abandons the
//     run, which starts over in BigInt from the same program and hint and,
//     by exact arithmetic and Bland's rule, returns the same result. Ratio
//     tests compare cross-products exactly in either tier (through __int128
//     in the word tier), so they never overflow. A run's tier is a template
//     parameter (Ops64 or OpsBig in ladder_simplex.cc).
//
//   * Lossless Rational conversion only at the boundary: Solution values
//     are built as Rational(rhs_i, s_i), and objective / duals / farkas
//     over the cost row's scale (plus the integerization scales below), so
//     VerifyDuals and VerifyFarkas consume exactly what the Rational
//     reference produces.
//
// Both input forms follow the lp_problem.h contract (nonnegative variables,
// minimize), so program column j is tableau column j. Non-integer input is
// integerized: constraint row i is scaled by t_i (the lcm of its
// coefficient/rhs denominators), the objective by L, and the phase-I cost of
// row i's artificial is lcm(t)/t_i — a uniform positive rescaling of the
// reference phase-I objective, which is what keeps Bland's pivot sequence
// (signs and cross-multiplied ratio tests are invariant under positive
// row/column scalings) identical to the reference simplex. An LpProblem is
// staged in BigInt and narrowed to the word tier when it fits. An
// IntegerProgram (lp_problem.h) needs none of that: t_i = L = 1, and its
// sparse columns are scattered straight into the zeroed int64 arena.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/lp_problem.h"
#include "util/bigint.h"

namespace bagcq::lp {

/// The rung of the arithmetic ladder a run works in.
enum class LadderTier : uint8_t {
  kWord,  // overflow-checked int64
  kBig,   // util::BigInt
};

const char* LadderTierToString(LadderTier tier);

/// Persistent arena for LadderSimplex. One tier's flat block is live at a
/// time — (m+1) rows of (ncols+1) entries plus the trailing cell, the cost
/// row's scale — and both keep their capacity across solves, so a
/// session's repeated solves of equal-shaped programs (the keyed warm slots
/// of one lp::Solver) do zero allocation.
struct LadderWorkspace {
  // Row and column metadata (see LadderTableau::BuildLayout).
  std::vector<int> basis;
  std::vector<int> row_sign;
  std::vector<int> identity_col;
  std::vector<int> slack_col_of_row;
  std::vector<int> art_col_of_row;
  std::vector<BasisEntry> col_entry;
  // Integerization state of an LpProblem: t_i per row, the objective
  // scale L, lcm(t), and the integer (scaled) phase-II / current-phase cost
  // vectors. An IntegerProgram has every scale 1 and int64 costs, so its
  // current-phase costs are int_phase_cost and the rest is unused.
  std::vector<util::BigInt> row_scale;
  util::BigInt cost_scale;
  util::BigInt art_scale;
  std::vector<util::BigInt> structural_cost;
  std::vector<util::BigInt> phase_cost;
  std::vector<int64_t> int_phase_cost;
  // The nonzero columns of the pivot row, listed when a pivot first
  // updates a row with a = 1.
  std::vector<int> pivot_support;
  // The tiered arenas.
  std::vector<int64_t> w64;
  std::vector<util::BigInt> wbig;

  /// Releases all held memory (capacity included).
  void Release();
  /// Bytes of arena capacity currently retained across both tiers.
  size_t RetainedBytes() const;
};

/// Drop-in exact solver with the SimplexSolver contract (see simplex.h for
/// Solve/SolveFrom semantics — warm starts, pivot caps, and certificate
/// conventions are identical). Solutions additionally report word_pivots
/// and bigint_promotions.
class LadderSimplex {
 public:
  explicit LadderSimplex(SolverOptions options = {}) : options_(options) {}

  Solution Solve(const LpProblem& problem);
  Solution SolveFrom(const LpProblem& problem,
                     const std::vector<BasisEntry>& basis);
  /// Integer input fills the word-tier arena directly (no integerization,
  /// no staging); results are those of the equivalent LpProblem.
  Solution Solve(const IntegerProgram& program);
  Solution SolveFrom(const IntegerProgram& program,
                     const std::vector<BasisEntry>& basis);

  /// Drops the persistent arena. Subsequent solves start cold.
  void Reset() { workspace_.Release(); }

  const LadderWorkspace& workspace() const { return workspace_; }

 private:
  SolverOptions options_;
  LadderWorkspace workspace_;
};

}  // namespace bagcq::lp
