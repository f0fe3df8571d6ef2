// Fraction-free exact simplex over a machine-word escalation ladder.
//
// LadderSimplex produces bit-identical results to the reference
// SimplexSolver (same statuses, objectives, values, duals, Farkas
// certificates, bases, and — under Bland's rule — the same pivot sequence),
// but runs the tableau in integer arithmetic, in revised form, on one small
// flat block instead of a vector-of-Rational matrix:
//
//   * Row-scaled integer pivoting: every row is an integer row over its own
//     positive scale, real entry = M[i][j] / s_i, kept primitive (the gcd
//     of its entries, the cost row's scale included, is 1). A constraint
//     row's scale is its entry in its basic column. A pivot on (r, c) with
//     piv = M[r][c] > 0 leaves the pivot row as it is (its scale becomes
//     piv) and every row with M[i][c] = 0 untouched; any other row becomes
//     a*row_i - b*row_r, with g = gcd(piv, M[i][c]), a = piv/g and
//     b = M[i][c]/g, and its scale is multiplied by a. Bland's choices read
//     only signs and the ratios rhs_i / M[i][enter], in which a row's scale
//     cancels, so they are the reference's. Each updated row is then made
//     primitive: the gcd of its scale and its entry in the leaving column,
//     -b times the pivot row's old scale, bounds the row's common factor,
//     and the row is scanned and divided only when that gcd exceeds 1. A
//     primitive row divides the row of the shared-denominator (Bareiss)
//     tableau that represents the same rational row, so no entry or product
//     is larger than there.
//
//   * Revised form: every constraint row stores only its entries in the m
//     identity columns (row q's is its slack when that has coefficient +1,
//     else its artificial), its rhs and its scale; the cost row stores its
//     multipliers y_q = C[id(q)] - s*c_id(q) in place of its identity
//     entries (they are those entries in phase II, where identity columns
//     cost 0), its rhs and its scale s: (m+1) rows of m+2 cells. Every other
//     entry is computed when a step reads it (the entering column, pricing,
//     the pivot-out of basic artificials) from the program's sparse initial
//     column a_j, row signs applied: M[i][j] = sum_q U[i][q] * a_qj, with
//     U[i][q] row i's stored entry in row q's identity column, and
//     C[j] = s*c_j + sum_q y_q * a_qj. A pivot, a negation and a reduction
//     are row operations, so they act on the stored cells as on whole rows.
//     Each computed value is the integer the full tableau would hold in that
//     cell; every entry is an integer combination of the stored cells, and
//     they of the entries, so the stored cells have the gcd of the whole row
//     and a primitive reduction over them divides by what it would over the
//     whole row.
//
//   * A two-tier arithmetic ladder, one tier per run: word (int64) and big
//     (util::BigInt, which never overflows). A solve runs in the word tier
//     when its input fits IntegerProgram::kMaxBits, else in BigInt. In the
//     word tier every multiply/subtract of a stored cell is overflow-checked
//     (__builtin_*_overflow), and a computed entry is accumulated exactly
//     (in checked __int128, else in BigInt) and abandons the run only when
//     its own value leaves int64. The first overflow abandons the run, which
//     starts over in BigInt from the same program and hint and, by exact
//     arithmetic and Bland's rule, returns the same result. Ratio tests
//     compare cross-products exactly in either tier (through __int128 in the
//     word tier), so they never overflow. A run's tier is a template
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
// integerized once into sparse BigInt columns, narrowed to int64 for the
// word tier when every datum fits. An IntegerProgram (lp_problem.h) needs
// none of that: t_i = L = 1, and its sparse columns are read in place.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/lp_problem.h"
#include "util/bigint.h"

namespace bagcq::lp {

/// One tier's storage in a LadderWorkspace, in that tier's integers
/// (int64 for the word tier, util::BigInt for the big one).
template <typename T>
struct LadderArena {
  struct Entry {
    int row;
    T value;
  };
  /// The stored block: (m+1) rows, the m constraint rows and then the cost
  /// row, of m+2 cells each: a constraint row's entries in the m identity
  /// columns (cell q for row q's), or the cost row's multipliers y_q; then
  /// the row's rhs (cell m) and its scale (cell m+1).
  std::vector<T> block;
  /// An LpProblem's integerized structural columns, row signs applied;
  /// column j's entries end at LadderWorkspace::column_end[j]. The big
  /// tier's are the integerization itself, the word tier's their narrowing.
  std::vector<Entry> entries;
  /// The current phase's integer cost of every column (all 0 before the
  /// first phase starts).
  std::vector<T> cost;
  /// The column a step reads: its entry in each constraint row, then the
  /// cost row's.
  std::vector<T> column;

  /// Bytes of vector capacity held.
  size_t RetainedBytes() const {
    return block.capacity() * sizeof(T) + entries.capacity() * sizeof(Entry) +
           cost.capacity() * sizeof(T) + column.capacity() * sizeof(T);
  }
};

/// Persistent storage for LadderSimplex. One tier's arena is live at a
/// time, and every vector keeps its capacity across solves, so a session's
/// repeated solves of equal-shaped programs (the keyed warm slots of one
/// lp::Solver) do zero allocation.
struct LadderWorkspace {
  // Row and column metadata (see LadderTableau::BuildLayout).
  std::vector<int> basis;
  std::vector<int> row_sign;
  std::vector<int> identity_col;
  std::vector<int> slack_col_of_row;
  std::vector<int> art_col_of_row;
  std::vector<BasisEntry> col_entry;
  // Integerization state of an LpProblem: t_i per row, the objective
  // scale L, lcm(t), the integer phase-II costs, the integer right-hand
  // sides (row signs applied), and where each structural column's entries
  // end in LadderArena::entries. An IntegerProgram uses none of it.
  std::vector<util::BigInt> row_scale;
  util::BigInt cost_scale;
  util::BigInt art_scale;
  std::vector<util::BigInt> structural_cost;
  std::vector<util::BigInt> rhs;
  std::vector<size_t> column_end;
  // The nonzero stored cells of the pivot row, listed when a pivot first
  // updates a row with a = 1.
  std::vector<int> pivot_support;
  // The tiered arenas.
  LadderArena<int64_t> w64;
  LadderArena<util::BigInt> wbig;

  /// Releases all held memory (capacity included).
  void Release();
  /// Bytes of vector capacity retained by every vector above.
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
  /// Integer input is read in place (no integerization, no staging);
  /// results are those of the equivalent LpProblem.
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
