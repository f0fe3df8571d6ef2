#include "lp/ladder_simplex.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/rational.h"

namespace bagcq::lp {

namespace {

using util::BigInt;
using util::Rational;

// |v| as an unsigned magnitude: well defined for the most negative value.
uint64_t Magnitude(int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

// acc += x*y, exactly. True when a 128-bit accumulator overflowed (its
// value is then lost); a BigInt one never does. Two int64 factors always
// fit a 128-bit product, so only the add is checked.
bool MulAdd(__int128* acc, int64_t x, int64_t y) {
  return __builtin_add_overflow(*acc, static_cast<__int128>(x) * y, acc);
}
bool MulAdd(BigInt* acc, const BigInt& x, const BigInt& y) {
  *acc += x * y;
  return false;
}

// Per-tier arithmetic. Every Mul/Sub reports whether the operation would
// overflow the tier (the run is then abandoned); ExactDiv asserts in debug
// builds that the division has no remainder (every division the tableau
// makes is by a common factor). Gcd(a, b) is gcd(a, |b|) for a > 0, so it
// never exceeds a and always fits the tier. CompareProducts returns the
// sign of a*b - c*d, the cross-multiplied ratio test, exactly. A computed
// entry is summed in an Acc, and Narrow(acc, &out) returns whether its
// value fits the tier. kName is the tier's row in the ladder diagram of
// docs/architecture.md.
struct Ops64 {
  static constexpr const char* kName = "word";
  using T = int64_t;
  using Acc = __int128;
  static bool Mul(const T& a, const T& b, T* out) {
    return __builtin_mul_overflow(a, b, out);
  }
  static bool Sub(const T& a, const T& b, T* out) {
    return __builtin_sub_overflow(a, b, out);
  }
  static bool IsZero(const T& v) { return v == 0; }
  static int Sign(const T& v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }
  static T Gcd(const T& a, const T& b) {
    return static_cast<T>(std::gcd(static_cast<uint64_t>(a), Magnitude(b)));
  }
  static T ExactDiv(const T& a, const T& b) {
    BAGCQ_DCHECK(a % b == 0);
    return a / b;
  }
  // Divisibility by, and exact division by, a fixed g > 0 without a
  // hardware divide per cell (Granlund and Montgomery, PLDI 1994): with
  // g = 2^k * q, q odd, and qinv the inverse of q modulo 2^64, g divides x
  // iff the low k bits of |x| are 0 and (|x| >> k) * qinv mod 2^64 is at
  // most (2^64 - 1) / q, and then that product is |x| / g.
  class Divisor {
   public:
    explicit Divisor(T g)
        : shift_(__builtin_ctzll(static_cast<uint64_t>(g))),
          odd_(static_cast<uint64_t>(g) >> shift_),
          inverse_(odd_),
          limit_(~uint64_t{0} / odd_) {
      for (int bits = 3; bits < 64; bits *= 2) inverse_ *= 2 - odd_ * inverse_;
    }
    bool Divides(const T& x) const {
      const uint64_t m = Magnitude(x);
      return (m & ((uint64_t{1} << shift_) - 1)) == 0 &&
             (m >> shift_) * inverse_ <= limit_;
    }
    T Divide(const T& x) const {
      BAGCQ_DCHECK(Divides(x));
      const T q = static_cast<T>((Magnitude(x) >> shift_) * inverse_);
      return x < 0 ? -q : q;
    }

   private:
    int shift_;
    uint64_t odd_;
    uint64_t inverse_;
    uint64_t limit_;
  };
  static T Narrow(const BigInt& v) { return v.ToInt64(); }
  static bool Narrow(const Acc& v, T* out) {
    if (v != static_cast<T>(v)) return false;
    *out = static_cast<T>(v);
    return true;
  }
  static bool Narrow(const BigInt& v, T* out) {
    if (!v.FitsInt64()) return false;
    *out = v.ToInt64();
    return true;
  }
  static BigInt ToBig(const T& v) { return BigInt(v); }
  static LadderArena<T>& ArenaOf(LadderWorkspace& ws) { return ws.w64; }
  static int CompareProducts(const T& a, const T& b, const T& c, const T& d) {
    // Two int64 factors always fit a 128-bit product: exact, never overflows.
    const __int128 x = static_cast<__int128>(a) * b;
    const __int128 y = static_cast<__int128>(c) * d;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
};

struct OpsBig {
  static constexpr const char* kName = "big";
  using T = BigInt;
  using Acc = BigInt;
  static bool Mul(const T& a, const T& b, T* out) {
    *out = a * b;
    return false;
  }
  static bool Sub(const T& a, const T& b, T* out) {
    *out = a - b;
    return false;
  }
  static bool IsZero(const T& v) { return v.is_zero(); }
  static int Sign(const T& v) { return v.sign(); }
  static T Gcd(const T& a, const T& b) { return BigInt::Gcd(a, b); }
  static T ExactDiv(const T& a, const T& b) {
    T q, r;
    BigInt::DivMod(a, b, &q, &r);
    BAGCQ_DCHECK(r.is_zero());
    return q;
  }
  // Divisibility by, and exact division by, a fixed g > 0.
  class Divisor {
   public:
    explicit Divisor(T g) : g_(std::move(g)) {}
    bool Divides(const T& x) const { return (x % g_).is_zero(); }
    T Divide(const T& x) const { return ExactDiv(x, g_); }

   private:
    T g_;
  };
  static const T& Narrow(const BigInt& v) { return v; }
  static bool Narrow(const BigInt& v, T* out) {
    *out = v;
    return true;
  }
  static BigInt ToBig(const T& v) { return v; }
  static LadderArena<T>& ArenaOf(LadderWorkspace& ws) { return ws.wbig; }
  static int CompareProducts(const T& a, const T& b, const T& c, const T& d) {
    const T x = a * b;
    const T y = c * d;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
};

// The row-scaled integer tableau + driver, in revised form. Mirrors the
// reference Tableau in simplex.cc decision for decision — same column
// layout, same Bland selection, same warm-install and artificial-pivot-out
// flow — so that the two exact simplexes emit identical results (see the
// header for why the pivot sequences coincide). Storage is the tier's
// LadderArena: rows 0..m-1 of the block are the constraint rows, each
// storing U[i][q], its entry in row q's identity column, for q < m, then
// its rhs and its scale (real entry = M[i][j] / scale_i); row m is the
// cost row, storing y_q = C[id(q)] - s*c_id(q) in place of its identity
// entries, then its rhs and its scale s. Every row is kept primitive. Any
// other entry is computed from the program's initial column when a step
// reads it (Entry); a step that reads a whole column loads it into the
// arena's `column` once (LoadColumn).
//
// A run (RunIn) works in one tier, given by its Ops, from the filled arena
// to the extracted Solution. Every step that can overflow the tier (a
// pivot, a row negation, a cost-row rebuild, a computed entry whose value
// leaves the tier) returns false when it did, and the run then returns
// nullopt, leaving its arena half updated; Run starts over in BigInt.
class LadderTableau {
 public:
  LadderTableau(const LpProblem& problem, const SolverOptions& options,
                LadderWorkspace& workspace)
      : lp_(&problem), options_(options), ws_(workspace) {}
  LadderTableau(const IntegerProgram& program, const SolverOptions& options,
                LadderWorkspace& workspace)
      : ip_(&program), options_(options), ws_(workspace) {}

  // The whole solve in the word tier when the program's data fit it, else
  // in BigInt. A word run that overflows is rerun from the start in BigInt,
  // on a BigInt arena filled from the same program, with the same hint.
  // Exact arithmetic and Bland's rule fix every choice, and a primitive
  // integer row over a positive scale is unique for its rational row, so
  // the rerun returns what the word run would have, pivot count included.
  Solution Run(const std::vector<BasisEntry>* hint) {
    BuildLayout();
    int64_t promotions = 0;
    if (ip_ != nullptr || IntegerizeLp()) {
      Fill<Ops64>();
      if (std::optional<Solution> out = RunIn<Ops64>(hint)) {
        out->word_pivots = tableau_pivots_;
        return *std::move(out);
      }
      BuildLayout();
      promotions = 1;
    }
    Fill<OpsBig>();
    Solution out = *RunIn<OpsBig>(hint);
    out.bigint_promotions = promotions;
    return out;
  }

 private:
  // ---- driver (the reference Tableau::Run flow) ---------------------------

  template <typename Ops>
  std::optional<Solution> RunIn(const std::vector<BasisEntry>* hint) {
    Solution out;
    out.warm_started = hint != nullptr && HintMaps(*hint);
    if (out.warm_started && !Install<Ops>(*hint, &out.pivots)) {
      return std::nullopt;
    }
    if (out.pivots > options_.max_pivots) {
      out.status = SolveStatus::kPivotLimit;
      return out;
    }

    const bool need_phase_one = out.warm_started
                                    ? InstalledBasisNeedsPhaseOne<Ops>()
                                    : num_artificials_ > 0;
    if (need_phase_one) {
      if (!SetPhaseCosts<Ops>(/*phase_one=*/true)) return std::nullopt;
      const std::optional<SolveStatus> status =
          Iterate<Ops>(/*phase_one=*/true, &out.pivots);
      if (!status.has_value()) return std::nullopt;
      BAGCQ_CHECK(*status != SolveStatus::kUnbounded)
          << "phase I cannot be unbounded";
      if (*status == SolveStatus::kPivotLimit) {
        out.status = SolveStatus::kPivotLimit;
        return out;
      }
      // Phase-I objective is -C[rhs]/d, d the cost row's scale (> 0):
      // positive iff the cost row's rhs is negative.
      if (Ops::Sign(Row<Ops>(m_)[m_]) < 0) {
        out.status = SolveStatus::kInfeasible;
        out.farkas = ExtractRowMultipliers<Ops>(/*phase_one=*/true);
        out.basis = ExtractBasis();
        return out;
      }
      if (!PivotOutBasicArtificials<Ops>()) return std::nullopt;
    } else if (out.warm_started && num_artificials_ > 0) {
      if (!PivotOutBasicArtificials<Ops>()) return std::nullopt;
    }

    if (!SetPhaseCosts<Ops>(/*phase_one=*/false)) return std::nullopt;
    const std::optional<SolveStatus> status =
        Iterate<Ops>(/*phase_one=*/false, &out.pivots);
    if (!status.has_value()) return std::nullopt;
    if (*status == SolveStatus::kUnbounded ||
        *status == SolveStatus::kPivotLimit) {
      out.status = *status;
      return out;
    }

    out.status = SolveStatus::kOptimal;
    // Objective = -C[rhs] / (d * L), d the cost row's scale, undoing the
    // objective integerization scale (L = 1 for integer input).
    const auto* crow = Row<Ops>(m_);
    const BigInt d = Ops::ToBig(crow[m_ + 1]);
    out.objective = Rational(-Ops::ToBig(crow[m_]),
                             ip_ != nullptr ? d : d * ws_.cost_scale);
    out.values = ExtractPrimal<Ops>();
    out.duals = ExtractRowMultipliers<Ops>(/*phase_one=*/false);
    out.basis = ExtractBasis();
    return out;
  }

  // ---- build --------------------------------------------------------------

  // The input program, whichever form it came in.
  int NumVariables() const {
    return ip_ != nullptr ? ip_->num_columns() : lp_->num_variables();
  }
  Sense RowSense(int i) const {
    return ip_ != nullptr ? ip_->sense(i) : lp_->constraints()[i].sense;
  }
  bool RhsNegative(int i) const {
    return ip_ != nullptr ? ip_->rhs(i) < 0
                          : lp_->constraints()[i].rhs.sign() < 0;
  }
  int SlackCoeff(int i) const {
    return (RowSense(i) == Sense::kLessEqual ? 1 : -1) * ws_.row_sign[i];
  }

  // Column layout, row signs, and basis bookkeeping — everything that does
  // not depend on the arithmetic tier. Program column j is tableau column
  // j; unlike the reference tableau, slack and artificial columns are laid
  // out up front (artificials contiguous at the end, so "is artificial" is
  // a range check), in the same order the reference's AddColumn calls
  // produce. Row i's identity column is its slack when that has
  // coefficient +1, else its artificial.
  void BuildLayout() {
    n_ = NumVariables();
    m_ = ip_ != nullptr ? ip_->num_rows() : lp_->num_constraints();

    ws_.row_sign.assign(m_, 1);
    ws_.identity_col.assign(m_, -1);
    ws_.slack_col_of_row.assign(m_, -1);
    ws_.art_col_of_row.assign(m_, -1);
    ws_.basis.assign(m_, -1);
    int num_cols = n_;
    for (int i = 0; i < m_; ++i) {
      if (RhsNegative(i)) ws_.row_sign[i] = -1;
      // An inequality has a slack; a row has an artificial unless its slack
      // has coefficient +1.
      const bool slack = RowSense(i) != Sense::kEqual;
      num_cols += slack + (!slack || SlackCoeff(i) != 1);
    }
    ws_.col_entry.clear();
    ws_.col_entry.reserve(num_cols);
    for (int j = 0; j < n_; ++j) {
      ws_.col_entry.push_back({BasisKind::kStructural, j});
    }
    int col = n_;
    for (int i = 0; i < m_; ++i) {
      if (RowSense(i) == Sense::kEqual) continue;
      ws_.slack_col_of_row[i] = col;
      ws_.col_entry.push_back({BasisKind::kSlack, i});
      if (SlackCoeff(i) == 1) {
        ws_.identity_col[i] = col;
        ws_.basis[i] = col;
      }
      ++col;
    }
    art_begin_ = col;
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] >= 0) continue;
      ws_.art_col_of_row[i] = col;
      ws_.col_entry.push_back({BasisKind::kArtificial, i});
      ws_.identity_col[i] = col;
      ws_.basis[i] = col;
      ++col;
    }
    ncols_ = col;
    num_artificials_ = ncols_ - art_begin_;
    width_ = static_cast<size_t>(m_) + 2;
  }

  static Rational CoeffAt(const Constraint& row, int j) {
    return j < static_cast<int>(row.coeffs.size()) ? row.coeffs[j] : Rational();
  }

  // An LpProblem's integerization, once per solve: row i scaled by t_i,
  // the lcm of its denominators, and the objective by L, into sparse BigInt
  // columns (the big arena's `entries`) and right-hand sides, row signs
  // applied. Returns whether every datum fits IntegerProgram::kMaxBits.
  bool IntegerizeLp() {
    const LpProblem& problem = *lp_;
    ws_.row_scale.assign(m_, BigInt(1));
    for (int i = 0; i < m_; ++i) {
      const Constraint& row = problem.constraints()[i];
      BigInt t(1);
      for (int j = 0; j < n_; ++j) t = BigInt::Lcm(t, CoeffAt(row, j).den());
      t = BigInt::Lcm(t, row.rhs.den());
      ws_.row_scale[i] = std::move(t);
    }
    ws_.cost_scale = BigInt(1);
    for (int j = 0; j < n_; ++j) {
      ws_.cost_scale =
          BigInt::Lcm(ws_.cost_scale, problem.objective_coeff(j).den());
    }
    ws_.art_scale = BigInt(1);
    for (int i = 0; i < m_; ++i) {
      ws_.art_scale = BigInt::Lcm(ws_.art_scale, ws_.row_scale[i]);
    }

    size_t max_bits = 0;
    auto track = [&max_bits](const BigInt& v) {
      max_bits = std::max(max_bits, v.BitLength());
    };
    // t_i * v, row sign applied.
    auto scaled = [this](const Rational& v, int i) {
      BigInt out = (ws_.row_scale[i] / v.den()) * v.num();
      return ws_.row_sign[i] < 0 ? -out : out;
    };

    ws_.structural_cost.assign(n_, BigInt());
    for (int j = 0; j < n_; ++j) {
      const Rational c = problem.objective_coeff(j);
      ws_.structural_cost[j] = (ws_.cost_scale / c.den()) * c.num();
      track(ws_.structural_cost[j]);
    }
    // Phase-I artificial costs lcm(t)/t_i participate in the tier choice too.
    for (int i = 0; i < m_; ++i) {
      if (ws_.art_col_of_row[i] >= 0) track(ws_.art_scale / ws_.row_scale[i]);
    }
    ws_.rhs.resize(m_);
    for (int i = 0; i < m_; ++i) {
      ws_.rhs[i] = scaled(problem.constraints()[i].rhs, i);
      track(ws_.rhs[i]);
    }
    std::vector<LadderArena<BigInt>::Entry>& entries = ws_.wbig.entries;
    entries.clear();
    ws_.column_end.resize(n_);
    for (int j = 0; j < n_; ++j) {
      for (int i = 0; i < m_; ++i) {
        const Rational c = CoeffAt(problem.constraints()[i], j);
        if (c.is_zero()) continue;
        entries.push_back({i, scaled(c, i)});
        track(entries.back().value);
      }
      ws_.column_end[j] = entries.size();
    }
    return max_bits <= IntegerProgram::kMaxBits;
  }

  // The tier's initial block: each constraint row holds 1 in its own
  // identity column, its signed (integerized) rhs and scale 1; the cost row
  // is zero over scale 1, and so is every phase cost until a phase starts.
  // A word run narrows an LpProblem's columns into its arena.
  template <typename Ops>
  void Fill() {
    using T = typename Ops::T;
    LadderArena<T>& arena = Ops::ArenaOf(ws_);
    arena.block.assign((static_cast<size_t>(m_) + 1) * width_, T{});
    for (int i = 0; i < m_; ++i) {
      T* ri = Row<Ops>(i);
      ri[i] = T(1);
      ri[m_] = ip_ != nullptr ? T(ip_->rhs(i) * ws_.row_sign[i])
                              : Ops::Narrow(ws_.rhs[i]);
      ri[m_ + 1] = T(1);
    }
    Row<Ops>(m_)[m_ + 1] = T(1);
    arena.cost.assign(ncols_, T{});
    arena.column.resize(static_cast<size_t>(m_) + 1);
    if constexpr (std::is_same_v<Ops, Ops64>) {
      if (lp_ != nullptr) {
        arena.entries.clear();
        for (const LadderArena<BigInt>::Entry& e : ws_.wbig.entries) {
          arena.entries.push_back({e.row, e.value.ToInt64()});
        }
      }
    }
  }

  // ---- stored and computed cells ------------------------------------------

  // Row i of the stored block (ws_ is a reference, so const steps read
  // the arena through it too).
  template <typename Ops>
  typename Ops::T* Row(int i) const {
    return Ops::ArenaOf(ws_).block.data() + i * width_;
  }

  // Calls f(q, a) for every nonzero a = a_qj of column j of the initial
  // tableau, row signs applied: the program's entries for a structural
  // column (an IntegerProgram's read in place), else the single +1 of an
  // identity column or -1 of a surplus.
  template <typename Ops, typename F>
  void ForEachTerm(int j, F&& f) const {
    if (j >= n_) {
      const int q = ws_.col_entry[j].index;
      f(q, int64_t{ws_.identity_col[q] == j ? 1 : -1});
    } else if (ip_ != nullptr) {
      for (const IntegerProgram::Entry& e : ip_->column(j)) {
        f(e.row, e.value * ws_.row_sign[e.row]);
      }
    } else {
      const auto& entries = Ops::ArenaOf(ws_).entries;
      for (size_t k = j == 0 ? 0 : ws_.column_end[j - 1];
           k < ws_.column_end[j]; ++k) {
        f(entries[k].row, entries[k].value);
      }
    }
  }

  // Row i's entry in column j, summed exactly in Acc: M[i][j] =
  // sum_q U[i][q] * a_qj for a constraint row, and C[j] = s*c_j +
  // sum_q y_q * a_qj for the cost row. False when a 128-bit Acc
  // overflowed.
  template <typename Ops, typename Acc>
  bool EntryIn(int i, int j, Acc* out) const {
    const auto* ri = Row<Ops>(i);
    bool overflow = false;
    Acc acc{};
    if (i == m_) {
      overflow |= MulAdd(&acc, ri[m_ + 1], Ops::ArenaOf(ws_).cost[j]);
    }
    ForEachTerm<Ops>(j, [&](int q, const auto& a) {
      overflow |= MulAdd(&acc, ri[q], a);
    });
    *out = std::move(acc);
    return !overflow;
  }

  // Row i's entry in column j in the tier's integers; false when its value
  // leaves the tier (the full tableau could not hold it there either).
  template <typename Ops>
  bool Entry(int i, int j, typename Ops::T* out) const {
    typename Ops::Acc acc;
    if (EntryIn<Ops>(i, j, &acc)) return Ops::Narrow(acc, out);
    return ExactEntry<Ops>(i, j, out);
  }

  // Entry redone in BigInt, for a 128-bit sum that overflowed.
  template <typename Ops>
  bool ExactEntry(int i, int j, typename Ops::T* out) const {
    BigInt exact;
    EntryIn<Ops>(i, j, &exact);
    return Ops::Narrow(exact, out);
  }

  // Loads column j, cost row included, into the arena's `column`; false
  // when an entry leaves the tier. In the word tier a column of at most
  // kShortColumn terms takes a loop without overflow checks: each product
  // of a stored int64 and a term below 2^62 is below 2^125, so four of
  // them sum below 2^127 in __int128.
  static constexpr int kShortColumn = 4;
  template <typename Ops>
  bool LoadColumn(int j) {
    auto* column = Ops::ArenaOf(ws_).column.data();
    if constexpr (std::is_same_v<Ops, Ops64>) {
      int rows[kShortColumn];
      int64_t coeffs[kShortColumn];
      int terms = 0;
      ForEachTerm<Ops>(j, [&](int q, int64_t a) {
        if (terms < kShortColumn) {
          rows[terms] = q;
          coeffs[terms] = a;
        }
        ++terms;
      });
      if (terms <= kShortColumn) {
        for (int i = 0; i < m_; ++i) {
          const int64_t* ri = Row<Ops>(i);
          __int128 acc = 0;
          for (int t = 0; t < terms; ++t) {
            acc += static_cast<__int128>(ri[rows[t]]) * coeffs[t];
          }
          if (!Ops::Narrow(acc, &column[i])) return false;
        }
        return Entry<Ops>(m_, j, &column[m_]);
      }
    }
    for (int i = 0; i <= m_; ++i) {
      if (!Entry<Ops>(i, j, &column[i])) return false;
    }
    return true;
  }

  // ---- pivoting -----------------------------------------------------------

  // One pivot on (r, c), cost row included, with column c loaded. The pivot
  // row is left as it is; its scale becomes piv = M[r][c] > 0. A row with
  // M[i][c] = 0 is untouched (a zero cost row stays zero, which is what
  // makes install-time pivots safe). Any other row becomes
  // a*row_i - b*row_r with g = gcd(piv, M[i][c]), a = piv/g, b = M[i][c]/g,
  // over its stored cells, and its scale is multiplied by a. With a = 1
  // only the pivot row's nonzero stored cells (its support) change, so such
  // a row computes just those. Each updated row is then made primitive
  // again (ReduceRow). False when an operation overflowed the tier.
  template <typename Ops>
  bool Pivot(int r, int c) {
    using T = typename Ops::T;
    const T* column = Ops::ArenaOf(ws_).column.data();
    T* pr = Row<Ops>(r);
    const T piv = column[r];
    BAGCQ_DCHECK(Ops::Sign(piv) > 0);
    const bool unit_piv = piv == T{1};
    const int* support_end = nullptr;
    for (int i = 0; i <= m_; ++i) {
      if (i == r || Ops::IsZero(column[i])) continue;
      T* ri = Row<Ops>(i);
      T fa, fb;
      if (unit_piv) {
        fa = piv;
        fb = column[i];
      } else {
        const T g = Ops::Gcd(piv, column[i]);
        fa = Ops::ExactDiv(piv, g);
        fb = Ops::ExactDiv(column[i], g);
      }
      if (fa == T{1}) {
        if (support_end == nullptr) support_end = BuildSupport<Ops>(pr);
        for (const int* k = ws_.pivot_support.data(); k != support_end; ++k) {
          T t, next;
          if (Ops::Mul(fb, pr[*k], &t) || Ops::Sub(ri[*k], t, &next)) {
            return false;
          }
          ri[*k] = std::move(next);
        }
      } else {
        for (int k = 0; k <= m_; ++k) {
          T t1, t2, t3;
          if (Ops::Mul(fa, ri[k], &t1) || Ops::Mul(fb, pr[k], &t2) ||
              Ops::Sub(t1, t2, &t3)) {
            return false;
          }
          ri[k] = std::move(t3);
        }
        T scale;
        if (Ops::Mul(fa, ri[m_ + 1], &scale)) return false;
        ri[m_ + 1] = std::move(scale);
      }
      // The leaving column was a unit column at r, so the row now holds
      // -b times the pivot row's old scale there; any common factor of the
      // row divides that entry and the row's scale.
      if (!(ri[m_ + 1] == T{1})) {
        T leaving;
        if (Ops::Mul(fb, pr[m_ + 1], &leaving)) return false;
        ReduceRow<Ops>(i, Ops::Gcd(ri[m_ + 1], leaving));
      }
    }
    pr[m_ + 1] = piv;
    ws_.basis[r] = c;
    ++tableau_pivots_;
    return true;
  }

  // Lists the nonzero cells of pivot row pr, rhs included, in
  // ws_.pivot_support and returns the end of that list.
  template <typename Ops>
  const int* BuildSupport(const typename Ops::T* pr) {
    std::vector<int>& support = ws_.pivot_support;
    if (support.size() < width_) support.resize(width_);
    int* out = support.data();
    for (int k = 0; k <= m_; ++k) {
      *out = k;
      out += !Ops::IsZero(pr[k]);
    }
    return out;
  }

  // Divides row i's stored cells, scale included, by their gcd, given
  // g >= 1, a multiple of that gcd. Every entry of the row is an integer
  // combination of the stored ones, so this is the gcd of the whole row. A
  // first pass, without branches, checks whether g divides every cell, as
  // it mostly does; only if not is the gcd narrowed cell by cell, stopping
  // as soon as it is 1. Division by a positive divisor cannot overflow.
  template <typename Ops>
  void ReduceRow(int i, typename Ops::T g) {
    using T = typename Ops::T;
    if (g == T{1}) return;
    T* ri = Row<Ops>(i);
    const int cells = m_ + 2;
    typename Ops::Divisor divisor(g);
    bool divides = true;
    for (int k = 0; k < cells; ++k) divides &= divisor.Divides(ri[k]);
    if (!divides) {
      for (int k = 0; k < cells; ++k) {
        if (Ops::IsZero(ri[k]) || divisor.Divides(ri[k])) continue;
        g = Ops::Gcd(g, ri[k]);
        if (g == T{1}) return;
        divisor = typename Ops::Divisor(g);
      }
    }
    for (int k = 0; k < cells; ++k) ri[k] = divisor.Divide(ri[k]);
  }

  // Negates row i in place, its scale cell and its entry in the loaded
  // column included (a sign-preserving setup step so pivots always see a
  // positive pivot entry; equivalent to the reference dividing by a
  // negative pivot). Only -INT64_MIN-style edges can overflow.
  template <typename Ops>
  bool NegateRow(int i) {
    using T = typename Ops::T;
    T* ri = Row<Ops>(i);
    for (int k = 0; k < m_ + 2; ++k) {
      T v;
      if (Ops::Sub(T{}, ri[k], &v)) return false;
      ri[k] = std::move(v);
    }
    T& entry = Ops::ArenaOf(ws_).column[i];
    T v;
    if (Ops::Sub(T{}, entry, &v)) return false;
    entry = std::move(v);
    return true;
  }

  // ---- cost row -----------------------------------------------------------

  // Loads the integer phase costs c_j of every column into the arena's
  // `cost` (an artificial's phase-I cost lcm(t)/t_i, 1 for integer input;
  // the integer objective in phase II), and rebuilds the cost row's stored
  // cells for C = s*c - sum_i c_basis(i) * (s/s_i) * row_i over the scale
  // s, the lcm of the scales s_i of the rows whose basic column has a
  // nonzero cost — the integer image of the reference's d_j = c_j - z_j
  // recomputation: y_q = -sum_i c_basis(i) * (s/s_i) * U[i][q] and the rhs
  // likewise. It then makes the row primitive. False when an operation
  // overflowed the tier.
  template <typename Ops>
  bool SetPhaseCosts(bool phase_one) {
    using T = typename Ops::T;
    std::vector<T>& cost = Ops::ArenaOf(ws_).cost;
    std::fill(cost.begin(), cost.end(), T{});
    if (phase_one) {
      for (int i = 0; i < m_; ++i) {
        const int art = ws_.art_col_of_row[i];
        if (art < 0) continue;
        cost[art] = ip_ != nullptr
                        ? T(1)
                        : Ops::Narrow(ws_.art_scale / ws_.row_scale[i]);
      }
    } else {
      for (int j = 0; j < n_; ++j) {
        cost[j] = ip_ != nullptr ? T(ip_->cost(j))
                                 : Ops::Narrow(ws_.structural_cost[j]);
      }
    }

    zero_costs_ = std::all_of(cost.begin(), cost.end(),
                              [](const T& c) { return Ops::IsZero(c); });
    T s{1};
    for (int i = 0; i < m_; ++i) {
      if (Ops::IsZero(cost[ws_.basis[i]])) continue;
      const T& si = Row<Ops>(i)[m_ + 1];
      T lcm;
      if (Ops::Mul(s, Ops::ExactDiv(si, Ops::Gcd(si, s)), &lcm)) return false;
      s = std::move(lcm);
    }
    T* crow = Row<Ops>(m_);
    std::fill(crow, crow + m_ + 1, T{});
    for (int i = 0; i < m_; ++i) {
      const T& cb_cost = cost[ws_.basis[i]];
      if (Ops::IsZero(cb_cost)) continue;
      const T* ri = Row<Ops>(i);
      T cb;
      if (Ops::Mul(cb_cost, Ops::ExactDiv(s, ri[m_ + 1]), &cb)) return false;
      for (int k = 0; k <= m_; ++k) {
        if (Ops::IsZero(ri[k])) continue;
        T t, next;
        if (Ops::Mul(cb, ri[k], &t) || Ops::Sub(crow[k], t, &next)) {
          return false;
        }
        crow[k] = std::move(next);
      }
    }
    crow[m_ + 1] = s;
    ReduceRow<Ops>(m_, s);
    return true;
  }

  // ---- selection ----------------------------------------------------------

  // Bland: the first column whose cost-row entry is negative, computed in
  // column order, or -1 if none. Artificials sit last and may enter only in
  // phase I. False when an entry left the tier.
  template <typename Ops>
  bool SelectEnter(bool phase_one, int* enter) const {
    // With every phase cost 0 (a feasibility program's phase II) the cost
    // row is 0: SetPhaseCosts rebuilt it from no basic cost, and a pivot
    // leaves a zero row untouched. No column prices negative.
    if (zero_costs_) {
      *enter = -1;
      return true;
    }
    const int end = phase_one ? ncols_ : art_begin_;
    for (int j = 0; j < end; ++j) {
      typename Ops::T cj;
      if (!Entry<Ops>(m_, j, &cj)) return false;
      if (Ops::Sign(cj) < 0) {
        *enter = j;
        return true;
      }
    }
    *enter = -1;
    return true;
  }

  // Whether row i beats row `leave` in the ratio test for the loaded
  // column (both entries positive): rhs_i / M[i][enter] is smaller, or
  // equal with the smaller basis column (Bland). The ratios are
  // cross-multiplied exactly, so this never overflows.
  template <typename Ops>
  bool RatioBeats(int i, int leave) const {
    const auto* column = Ops::ArenaOf(ws_).column.data();
    const int cmp = Ops::CompareProducts(Row<Ops>(i)[m_], column[leave],
                                         Row<Ops>(leave)[m_], column[i]);
    return cmp < 0 || (cmp == 0 && ws_.basis[i] < ws_.basis[leave]);
  }

  // The leaving row for the loaded column (Bland), or -1 if none bounds it.
  template <typename Ops>
  int SelectLeave() const {
    const auto* column = Ops::ArenaOf(ws_).column.data();
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      if (Ops::Sign(column[i]) <= 0) continue;
      if (leave < 0 || RatioBeats<Ops>(i, leave)) leave = i;
    }
    return leave;
  }

  // Bland's rule to optimality, unboundedness or the pivot cap; nullopt
  // when an entry or a pivot overflowed the tier.
  template <typename Ops>
  std::optional<SolveStatus> Iterate(bool phase_one, int64_t* pivots) {
    while (true) {
      int enter;
      if (!SelectEnter<Ops>(phase_one, &enter)) return std::nullopt;
      if (enter == -1) return SolveStatus::kOptimal;
      if (!LoadColumn<Ops>(enter)) return std::nullopt;

      const int leave = SelectLeave<Ops>();
      if (leave == -1) return SolveStatus::kUnbounded;

      if (!Pivot<Ops>(leave, enter)) return std::nullopt;
      ++*pivots;
      if (*pivots > options_.max_pivots) return SolveStatus::kPivotLimit;
    }
  }

  // ---- warm start / artificials -------------------------------------------

  int ColumnOfEntry(const BasisEntry& entry) const {
    switch (entry.kind) {
      case BasisKind::kStructural:
        return entry.index >= 0 && entry.index < n_ ? entry.index : -1;
      case BasisKind::kSlack:
        return entry.index >= 0 && entry.index < m_
                   ? ws_.slack_col_of_row[entry.index]
                   : -1;
      case BasisKind::kArtificial:
        return entry.index >= 0 && entry.index < m_
                   ? ws_.art_col_of_row[entry.index]
                   : -1;
    }
    return -1;
  }

  // Whether the hint maps onto this program: one entry per row, each
  // naming a column the program has.
  bool HintMaps(const std::vector<BasisEntry>& hint) const {
    if (static_cast<int>(hint.size()) != m_) return false;
    for (const BasisEntry& entry : hint) {
      if (ColumnOfEntry(entry) < 0) return false;
    }
    return true;
  }

  template <typename Ops>
  bool ValuesNonnegative() const {
    for (int i = 0; i < m_; ++i) {
      if (Ops::Sign(Row<Ops>(i)[m_]) < 0) return false;
    }
    return true;
  }

  // The row the loaded hint column enters at (see Install), or -1 to skip
  // it, in one pass over the column and the rhs cells: the first
  // unassigned row where the column is nonzero and the basic value 0, else
  // the ratio-test row (SelectLeave) if that row is unassigned with a
  // positive value.
  template <typename Ops>
  int InstallRow(const std::vector<char>& assigned) const {
    const auto* column = Ops::ArenaOf(ws_).column.data();
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const int sign = Ops::Sign(column[i]);
      if (sign == 0) continue;
      if (!assigned[i] && Ops::IsZero(Row<Ops>(i)[m_])) return i;
      if (sign > 0 && (leave < 0 || RatioBeats<Ops>(i, leave))) leave = i;
    }
    const bool enters = leave >= 0 && !assigned[leave] &&
                        Ops::Sign(Row<Ops>(leave)[m_]) > 0;
    return enters ? leave : -1;
  }

  // The reference Tableau::Install rule for a hint that maps (HintMaps),
  // which keeps every basic value nonnegative: each hint column is loaded
  // and enters at the row InstallRow picks, if any, with a degenerate pivot
  // there on a negated row when its entry is negative. False when an entry,
  // a row negation or a pivot overflowed the tier.
  template <typename Ops>
  bool Install(const std::vector<BasisEntry>& hint, int64_t* pivots) {
    std::vector<char> assigned(m_, 0);
    for (const BasisEntry& entry : hint) {
      const int col = ColumnOfEntry(entry);
      if (!LoadColumn<Ops>(col)) return false;
      const int r = InstallRow<Ops>(assigned);
      if (r < 0) continue;
      if (ws_.basis[r] != col) {
        if (Ops::Sign(Ops::ArenaOf(ws_).column[r]) < 0 && !NegateRow<Ops>(r)) {
          return false;
        }
        if (!Pivot<Ops>(r, col)) return false;
        ++*pivots;
        BAGCQ_DCHECK(ValuesNonnegative<Ops>());
      }
      assigned[r] = 1;
    }
    return true;
  }

  template <typename Ops>
  bool InstalledBasisNeedsPhaseOne() const {
    for (int i = 0; i < m_; ++i) {
      if (ws_.col_entry[ws_.basis[i]].kind == BasisKind::kArtificial &&
          Ops::Sign(Row<Ops>(i)[m_]) > 0) {
        return true;
      }
    }
    return false;
  }

  // Each row whose basic column is an artificial pivots on its first
  // nonzero structural or slack entry, computed in column order. False
  // when an entry, a row negation or a pivot overflowed the tier.
  template <typename Ops>
  bool PivotOutBasicArtificials() {
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] < art_begin_) continue;  // artificials sit at the end
      for (int j = 0; j < art_begin_; ++j) {
        typename Ops::T entry;
        if (!Entry<Ops>(i, j, &entry)) return false;
        const int s = Ops::Sign(entry);
        if (s == 0) continue;
        // Direct elementary pivot (ratio irrelevant: rhs is zero).
        if (!LoadColumn<Ops>(j)) return false;
        if (s < 0 && !NegateRow<Ops>(i)) return false;
        if (!Pivot<Ops>(i, j)) return false;
        break;
      }
    }
    return true;
  }

  // ---- extraction (the Rational boundary) ---------------------------------

  std::vector<BasisEntry> ExtractBasis() const {
    std::vector<BasisEntry> out;
    out.reserve(m_);
    for (int i = 0; i < m_; ++i) out.push_back(ws_.col_entry[ws_.basis[i]]);
    return out;
  }

  // A basic variable's value is its row's rhs over the row's scale.
  template <typename Ops>
  std::vector<Rational> ExtractPrimal() const {
    std::vector<Rational> out(n_);
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] < n_) {
        const auto* ri = Row<Ops>(i);
        out[ws_.basis[i]] =
            Rational(Ops::ToBig(ri[m_]), Ops::ToBig(ri[m_ + 1]));
      }
    }
    return out;
  }

  // Row multipliers in *problem* space: the scaled-system multiplier
  // -y_i / d = (d*c_identity - C[identity]) / d, with d the cost row's
  // scale, un-flipped by the row sign, times the integerization scale t_i,
  // divided by the phase's objective scale (lcm(t) for the phase-I/Farkas
  // certificate, L for phase-II duals) — which lands exactly on what the
  // reference simplex extracts. Integer input has all three scales 1.
  template <typename Ops>
  std::vector<Rational> ExtractRowMultipliers(bool phase_one) const {
    const auto* crow = Row<Ops>(m_);
    const BigInt d = Ops::ToBig(crow[m_ + 1]);
    const bool integer = ip_ != nullptr;
    const BigInt den =
        integer ? d : d * (phase_one ? ws_.art_scale : ws_.cost_scale);
    std::vector<Rational> out(m_);
    for (int i = 0; i < m_; ++i) {
      BigInt numer = -Ops::ToBig(crow[i]);
      if (!integer) numer *= ws_.row_scale[i];
      if (ws_.row_sign[i] < 0) numer = -numer;
      out[i] = Rational(std::move(numer), den);
    }
    return out;
  }

  // Exactly one of the two is set.
  const LpProblem* lp_ = nullptr;
  const IntegerProgram* ip_ = nullptr;
  SolverOptions options_;
  LadderWorkspace& ws_;

  int n_ = 0;
  int m_ = 0;
  int ncols_ = 0;
  int art_begin_ = 0;
  int num_artificials_ = 0;
  size_t width_ = 0;  // cells per stored row: m + 2
  // Whether every cost of the current phase is 0 (SetPhaseCosts).
  bool zero_costs_ = false;

  // Pivots made, the pivot-outs of basic artificials included: after the
  // word run, its Solution::word_pivots.
  int64_t tableau_pivots_ = 0;
};

}  // namespace

void LadderWorkspace::Release() { *this = LadderWorkspace(); }

size_t LadderWorkspace::RetainedBytes() const {
  size_t bytes = w64.RetainedBytes() + wbig.RetainedBytes() +
                 col_entry.capacity() * sizeof(BasisEntry) +
                 column_end.capacity() * sizeof(size_t);
  for (const std::vector<int>* v : {&basis, &row_sign, &identity_col,
                                    &slack_col_of_row, &art_col_of_row,
                                    &pivot_support}) {
    bytes += v->capacity() * sizeof(int);
  }
  for (const std::vector<util::BigInt>* v :
       {&row_scale, &structural_cost, &rhs}) {
    bytes += v->capacity() * sizeof(util::BigInt);
  }
  return bytes;
}

Solution LadderSimplex::Solve(const LpProblem& problem) {
  return LadderTableau(problem, options_, workspace_).Run(nullptr);
}

Solution LadderSimplex::SolveFrom(const LpProblem& problem,
                                  const std::vector<BasisEntry>& basis) {
  return LadderTableau(problem, options_, workspace_).Run(&basis);
}

Solution LadderSimplex::Solve(const IntegerProgram& program) {
  return LadderTableau(program, options_, workspace_).Run(nullptr);
}

Solution LadderSimplex::SolveFrom(const IntegerProgram& program,
                                  const std::vector<BasisEntry>& basis) {
  return LadderTableau(program, options_, workspace_).Run(&basis);
}

}  // namespace bagcq::lp
