#include "lp/ladder_simplex.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/rational.h"

namespace bagcq::lp {

const char* LadderTierToString(LadderTier tier) {
  switch (tier) {
    case LadderTier::kWord:
      return "word";
    case LadderTier::kBig:
      return "big";
  }
  return "?";
}

namespace {

using util::BigInt;
using util::Rational;

// |v| as an unsigned magnitude: well defined for the most negative value.
uint64_t Magnitude(int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  return v < 0 ? 0 - u : u;
}

// Per-tier arithmetic. Every Mul/Sub reports whether the operation would
// overflow the tier (the run is then abandoned); ExactDiv asserts in debug
// builds that the division has no remainder (every division the tableau
// makes is by a common factor). Gcd(a, b) is gcd(a, |b|) for a > 0, so it
// never exceeds a and always fits the tier. CompareProducts returns the
// sign of a*b - c*d, the cross-multiplied ratio test, exactly.
struct Ops64 {
  using T = int64_t;
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
  static BigInt ToBig(const T& v) { return BigInt(v); }
  static std::vector<T>& ArenaOf(LadderWorkspace& ws) { return ws.w64; }
  static int CompareProducts(const T& a, const T& b, const T& c, const T& d) {
    // Two int64 factors always fit a 128-bit product: exact, never overflows.
    const __int128 x = static_cast<__int128>(a) * b;
    const __int128 y = static_cast<__int128>(c) * d;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
};

struct OpsBig {
  using T = BigInt;
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
  static BigInt ToBig(const T& v) { return v; }
  static std::vector<T>& ArenaOf(LadderWorkspace& ws) { return ws.wbig; }
  static int CompareProducts(const T& a, const T& b, const T& c, const T& d) {
    const T x = a * b;
    const T y = c * d;
    return x < y ? -1 : (x > y ? 1 : 0);
  }
};

// The row-scaled integer tableau + driver. Mirrors the reference Tableau in
// simplex.cc decision for decision — same column layout, same Bland selection,
// same warm-install and artificial-pivot-out flow — so that the two exact
// simplexes emit identical results (see the header for why the pivot
// sequences coincide). Storage is the flat block in LadderWorkspace: rows
// 0..m-1 are constraints, row m is the cost row, column ncols is the rhs,
// and the trailing cell is the cost row's scale. Each row is an integer row
// over its own positive scale (real entry = M[i][j] / scale_i), kept
// primitive: the gcd of its entries, the cost row's scale included, is 1.
// A constraint row's scale is its entry in its basic column.
//
// A run (RunIn) works in one tier, given by its Ops, from the filled arena
// to the extracted Solution. Every step that can overflow the tier (a
// pivot, a row negation, a cost-row rebuild) returns false when it did, and
// the run then returns nullopt, leaving its arena half updated; Run starts
// over in BigInt.
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
    int64_t promotions = 0;
    if (FillWord()) {
      if (std::optional<Solution> out = RunIn<Ops64>(hint)) {
        out->word_pivots = tableau_pivots_;
        return *std::move(out);
      }
      FillBig();
      promotions = 1;
    }
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
      // Phase-I objective is -C[m][ncols]/d, d the cost row's scale (> 0):
      // positive iff the cost cell is negative.
      if (SignAt<Ops>(m_, ncols_) < 0) {
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
    // Objective = -C[m][ncols] / (d * L), d the cost row's scale, undoing
    // the objective integerization scale (L = 1 for integer input).
    const BigInt d = CellBig<Ops>(scale_cell_);
    out.objective = Rational(-CellBig<Ops>(Index(m_, ncols_)),
                             ip_ != nullptr ? d : d * ws_.cost_scale);
    out.values = ExtractPrimal<Ops>();
    out.duals = ExtractRowMultipliers<Ops>(/*phase_one=*/false);
    out.basis = ExtractBasis();
    return out;
  }

  // ---- build --------------------------------------------------------------

  // Lays out the tableau and fills the word arena with the program's
  // initial tableau. False, with the layout built and the staged tableau
  // in the BigInt arena, when an LpProblem's integerized data do not fit
  // IntegerProgram::kMaxBits.
  bool FillWord() {
    BuildLayout();
    if (ip_ != nullptr) {
      FillInteger<Ops64>();
      return true;
    }
    if (!FillStaged()) return false;
    ws_.w64.resize(cells_);
    for (size_t k = 0; k < cells_; ++k) ws_.w64[k] = ws_.wbig[k].ToInt64();
    return true;
  }

  // Lays out the tableau again and fills the BigInt arena with the same
  // initial tableau, for the rerun of a word run that overflowed.
  void FillBig() {
    BuildLayout();
    if (ip_ != nullptr) {
      FillInteger<OpsBig>();
    } else {
      FillStaged();
    }
  }

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
  // produce.
  void BuildLayout() {
    const int n = NumVariables();
    m_ = ip_ != nullptr ? ip_->num_rows() : lp_->num_constraints();

    ws_.col_entry.clear();
    for (int j = 0; j < n; ++j) {
      ws_.col_entry.push_back({BasisKind::kStructural, j});
    }
    int col = n;

    ws_.row_sign.assign(m_, 1);
    ws_.identity_col.assign(m_, -1);
    ws_.slack_col_of_row.assign(m_, -1);
    ws_.art_col_of_row.assign(m_, -1);
    ws_.basis.assign(m_, -1);
    for (int i = 0; i < m_; ++i) {
      if (RhsNegative(i)) ws_.row_sign[i] = -1;
    }
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
    stride_ = static_cast<size_t>(ncols_) + 1;
    scale_cell_ = static_cast<size_t>(m_ + 1) * stride_;
    cells_ = scale_cell_ + 1;
  }

  static Rational CoeffAt(const Constraint& row, int j) {
    return j < static_cast<int>(row.coeffs.size()) ? row.coeffs[j] : Rational();
  }

  // Integer input: no scaling (t_i = L = 1) and no staging. The tier's
  // arena is zeroed and each sparse column scattered into it; the costs
  // are read from the program when a phase starts (SetPhaseCosts).
  template <typename Ops>
  void FillInteger() {
    using T = typename Ops::T;
    std::vector<T>& arena = Ops::ArenaOf(ws_);
    arena.assign(cells_, T{});
    T* a = arena.data();
    const int n = ip_->num_columns();
    for (int j = 0; j < n; ++j) {
      for (const IntegerProgram::Entry& e : ip_->column(j)) {
        a[Index(e.row, j)] = T(e.value * ws_.row_sign[e.row]);
      }
    }
    for (int i = 0; i < m_; ++i) {
      T* ri = a + Index(i, 0);
      ri[ncols_] = T(ip_->rhs(i) * ws_.row_sign[i]);
      if (ws_.slack_col_of_row[i] >= 0) {
        ri[ws_.slack_col_of_row[i]] = T(SlackCoeff(i));
      }
      if (ws_.art_col_of_row[i] >= 0) ri[ws_.art_col_of_row[i]] = T(1);
    }
    a[scale_cell_] = T(1);
  }

  // General path: integerize (row i scaled by t_i = lcm of its
  // denominators, objective by L) and stage the scaled tableau in the
  // BigInt arena. Returns whether every datum fits the word tier.
  bool FillStaged() {
    const LpProblem& problem = *lp_;
    const int n = problem.num_variables();
    ws_.row_scale.assign(m_, BigInt(1));
    for (int i = 0; i < m_; ++i) {
      const Constraint& row = problem.constraints()[i];
      BigInt t(1);
      for (int j = 0; j < n; ++j) t = BigInt::Lcm(t, CoeffAt(row, j).den());
      t = BigInt::Lcm(t, row.rhs.den());
      ws_.row_scale[i] = std::move(t);
    }
    ws_.cost_scale = BigInt(1);
    for (int j = 0; j < n; ++j) {
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

    ws_.structural_cost.assign(ncols_, BigInt());
    for (int j = 0; j < n; ++j) {
      const Rational c = problem.objective_coeff(j);
      ws_.structural_cost[j] = (ws_.cost_scale / c.den()) * c.num();
      track(ws_.structural_cost[j]);
    }
    // Phase-I artificial costs lcm(t)/t_i participate in the tier choice too.
    for (int i = 0; i < m_; ++i) {
      if (ws_.art_col_of_row[i] >= 0) track(ws_.art_scale / ws_.row_scale[i]);
    }

    ws_.wbig.resize(cells_);
    BigInt* a = ws_.wbig.data();
    for (size_t k = 0; k < cells_; ++k) a[k] = BigInt();
    for (int i = 0; i < m_; ++i) {
      const Constraint& row = problem.constraints()[i];
      const BigInt& t = ws_.row_scale[i];
      BigInt* ri = a + Index(i, 0);
      for (int j = 0; j < n; ++j) {
        const Rational c = CoeffAt(row, j);
        if (c.is_zero()) continue;
        ri[j] = (t / c.den()) * c.num();
        if (ws_.row_sign[i] < 0) ri[j] = -ri[j];
        track(ri[j]);
      }
      BigInt b = (t / row.rhs.den()) * row.rhs.num();
      if (ws_.row_sign[i] < 0) b = -b;
      track(b);
      ri[ncols_] = std::move(b);
      if (ws_.slack_col_of_row[i] >= 0) {
        ri[ws_.slack_col_of_row[i]] = BigInt(SlackCoeff(i));
      }
      if (ws_.art_col_of_row[i] >= 0) ri[ws_.art_col_of_row[i]] = BigInt(1);
    }
    a[scale_cell_] = BigInt(1);
    return max_bits <= IntegerProgram::kMaxBits;
  }

  // ---- cells --------------------------------------------------------------

  size_t Index(int i, int j) const {
    return static_cast<size_t>(i) * stride_ + j;
  }

  template <typename Ops>
  int SignAt(int i, int j) const {
    return Ops::Sign(Ops::ArenaOf(ws_)[Index(i, j)]);
  }

  template <typename Ops>
  BigInt CellBig(size_t k) const {
    return Ops::ToBig(Ops::ArenaOf(ws_)[k]);
  }

  // ---- pivoting -----------------------------------------------------------

  // One pivot on (r, c), cost row included (it is row m_ of the block). The
  // pivot row is left as it is; its scale becomes piv = M[r][c] > 0. A row
  // with M[i][c] = 0 is untouched (a zero cost row stays zero, which is
  // what makes install-time pivots safe). Any other row becomes
  // a*row_i - b*row_r with g = gcd(piv, M[i][c]), a = piv/g, b = M[i][c]/g,
  // and its scale is multiplied by a: the cost row's in the trailing cell,
  // a constraint row's in its basic column, where the pivot row is zero.
  // With a = 1 only the pivot row's nonzero columns (its support) change,
  // so such a row computes just those. Each updated row is then made
  // primitive again (ReduceRowT). False when an operation overflowed the
  // tier.
  template <typename Ops>
  bool Pivot(int r, int c) {
    using T = typename Ops::T;
    T* a = Ops::ArenaOf(ws_).data();
    const T* pr = a + Index(r, 0);
    const T piv = pr[c];
    BAGCQ_DCHECK(Ops::Sign(piv) > 0);
    const bool unit_piv = piv == T{1};
    const int leave = ws_.basis[r];
    const int* support_end = nullptr;
    for (int i = 0; i <= m_; ++i) {
      if (i == r) continue;
      T* ri = a + Index(i, 0);
      if (Ops::IsZero(ri[c])) continue;
      T fa, fb;
      if (unit_piv) {
        fa = piv;
        fb = ri[c];
      } else {
        const T g = Ops::Gcd(piv, ri[c]);
        fa = Ops::ExactDiv(piv, g);
        fb = Ops::ExactDiv(ri[c], g);
      }
      if (fa == T{1}) {
        if (support_end == nullptr) support_end = BuildSupportT<Ops>(pr);
        for (const int* k = ws_.pivot_support.data(); k != support_end; ++k) {
          const int j = *k;
          T t, next;
          if (Ops::Mul(fb, pr[j], &t) || Ops::Sub(ri[j], t, &next)) {
            return false;
          }
          ri[j] = std::move(next);
        }
      } else {
        for (int j = 0; j <= ncols_; ++j) {
          T t1, t2, t3;
          if (Ops::Mul(fa, ri[j], &t1) || Ops::Mul(fb, pr[j], &t2) ||
              Ops::Sub(t1, t2, &t3)) {
            return false;
          }
          ri[j] = std::move(t3);
        }
        if (i == m_) {
          T scale;
          if (Ops::Mul(fa, a[scale_cell_], &scale)) return false;
          a[scale_cell_] = std::move(scale);
        }
      }
      // The leaving column is a unit column at r, so the row now holds
      // -b*M[r][leave] there; any common factor of the row divides that
      // entry and the row's scale.
      const T& scale = i == m_ ? a[scale_cell_] : ri[ws_.basis[i]];
      if (!(scale == T{1})) ReduceRowT<Ops>(i, Ops::Gcd(scale, ri[leave]));
    }
    ws_.basis[r] = c;
    ++tableau_pivots_;
    return true;
  }

  // Lists the nonzero columns of pivot row pr in ws_.pivot_support and
  // returns the end of that list.
  template <typename Ops>
  const int* BuildSupportT(const typename Ops::T* pr) {
    std::vector<int>& support = ws_.pivot_support;
    if (support.size() < stride_) support.resize(stride_);
    int* out = support.data();
    for (int j = 0; j <= ncols_; ++j) {
      *out = j;
      out += !Ops::IsZero(pr[j]);
    }
    return out;
  }

  // Divides row i (the cost row together with its scale cell) by the gcd
  // of its entries, given g >= 1, a multiple of that gcd. A first pass,
  // without branches, checks whether g divides every entry, as it mostly
  // does; only if not is the gcd narrowed cell by cell, stopping as soon as
  // it is 1. Division by a positive divisor cannot overflow.
  template <typename Ops>
  void ReduceRowT(int i, typename Ops::T g) {
    using T = typename Ops::T;
    if (g == T{1}) return;
    T* a = Ops::ArenaOf(ws_).data();
    T* ri = a + Index(i, 0);
    typename Ops::Divisor divisor(g);
    bool divides = true;
    for (int j = 0; j <= ncols_; ++j) divides &= divisor.Divides(ri[j]);
    if (!divides) {
      for (int j = 0; j <= ncols_; ++j) {
        if (Ops::IsZero(ri[j]) || divisor.Divides(ri[j])) continue;
        g = Ops::Gcd(g, ri[j]);
        if (g == T{1}) return;
        divisor = typename Ops::Divisor(g);
      }
    }
    for (int j = 0; j <= ncols_; ++j) ri[j] = divisor.Divide(ri[j]);
    if (i == m_) a[scale_cell_] = divisor.Divide(a[scale_cell_]);
  }

  // Negates row i in place (a sign-preserving setup step so pivots always
  // see a positive pivot entry; equivalent to the reference dividing by a
  // negative pivot). Only -INT64_MIN-style edges can overflow.
  template <typename Ops>
  bool NegateRow(int i) {
    using T = typename Ops::T;
    T* ri = Ops::ArenaOf(ws_).data() + Index(i, 0);
    for (int j = 0; j <= ncols_; ++j) {
      T v;
      if (Ops::Sub(T{}, ri[j], &v)) return false;
      ri[j] = std::move(v);
    }
    return true;
  }

  // ---- cost row -----------------------------------------------------------

  // Loads the integer phase costs c_j, one per column (int_phase_cost for
  // integer input, whose scales are all 1, else phase_cost), and rebuilds
  // the cost row C[j] = s*c_j - sum_i c_basis(i) * (s/s_i) * M[i][j] over
  // the scale s, the lcm of the scales s_i of the rows whose basic column
  // has a nonzero cost — the integer image of the reference's
  // d_j = c_j - z_j recomputation — and makes it primitive. False when an
  // operation overflowed the tier.
  template <typename Ops>
  bool SetPhaseCosts(bool phase_one) {
    if (ip_ != nullptr) {
      // An artificial's phase-I cost lcm(t)/t_i is 1.
      ws_.int_phase_cost.assign(ncols_, 0);
      if (phase_one) {
        std::fill(ws_.int_phase_cost.begin() + art_begin_,
                  ws_.int_phase_cost.end(), 1);
      } else {
        for (int j = 0; j < ip_->num_columns(); ++j) {
          ws_.int_phase_cost[j] = ip_->cost(j);
        }
      }
      return SetPhaseCostsT<Ops>(ws_.int_phase_cost);
    }
    ws_.phase_cost.assign(ncols_, BigInt());
    if (phase_one) {
      for (int i = 0; i < m_; ++i) {
        if (ws_.art_col_of_row[i] >= 0) {
          ws_.phase_cost[ws_.art_col_of_row[i]] =
              ws_.art_scale / ws_.row_scale[i];
        }
      }
    } else {
      for (int j = 0; j < ncols_; ++j) {
        ws_.phase_cost[j] = ws_.structural_cost[j];
      }
    }
    return SetPhaseCostsT<Ops>(ws_.phase_cost);
  }

  // A phase cost in the tier's integers: an int64 one widens; a BigInt one
  // narrows (FillWord ran a word run only if it fits).
  template <typename Ops>
  static typename Ops::T CostInTier(int64_t c) {
    return typename Ops::T(c);
  }
  template <typename Ops>
  static typename Ops::T CostInTier(const BigInt& c) {
    return Ops::Narrow(c);
  }
  static bool IsZeroCost(int64_t c) { return c == 0; }
  static bool IsZeroCost(const BigInt& c) { return c.is_zero(); }

  template <typename Ops, typename Cost>
  bool SetPhaseCostsT(const std::vector<Cost>& cost) {
    using T = typename Ops::T;
    T* a = Ops::ArenaOf(ws_).data();
    T s{1};
    for (int i = 0; i < m_; ++i) {
      if (IsZeroCost(cost[ws_.basis[i]])) continue;
      const T& si = a[Index(i, ws_.basis[i])];
      T lcm;
      if (Ops::Mul(s, Ops::ExactDiv(si, Ops::Gcd(si, s)), &lcm)) return false;
      s = std::move(lcm);
    }
    T* crow = a + Index(m_, 0);
    for (int j = 0; j < ncols_; ++j) {
      if (IsZeroCost(cost[j])) {
        crow[j] = T{};
        continue;
      }
      if (Ops::Mul(s, CostInTier<Ops>(cost[j]), &crow[j])) return false;
    }
    crow[ncols_] = T{};
    for (int i = 0; i < m_; ++i) {
      const Cost& cb_cost = cost[ws_.basis[i]];
      if (IsZeroCost(cb_cost)) continue;
      const T* ri = a + Index(i, 0);
      T cb;
      if (Ops::Mul(CostInTier<Ops>(cb_cost),
                   Ops::ExactDiv(s, ri[ws_.basis[i]]), &cb)) {
        return false;
      }
      for (int j = 0; j <= ncols_; ++j) {
        if (Ops::IsZero(ri[j])) continue;
        T t, next;
        if (Ops::Mul(cb, ri[j], &t) || Ops::Sub(crow[j], t, &next)) {
          return false;
        }
        crow[j] = std::move(next);
      }
    }
    a[scale_cell_] = s;
    ReduceRowT<Ops>(m_, s);
    return true;
  }

  // ---- selection ----------------------------------------------------------

  template <typename Ops>
  int SelectEnterT(bool phase_one) const {
    const typename Ops::T* crow = Ops::ArenaOf(ws_).data() + Index(m_, 0);
    // Artificials sit last and may enter only in phase I.
    const int end = phase_one ? ncols_ : art_begin_;
    for (int j = 0; j < end; ++j) {
      if (Ops::Sign(crow[j]) < 0) return j;  // Bland: first negative cost
    }
    return -1;
  }

  // Whether row i beats row `leave` in the ratio test for column `enter`
  // (both entries positive): rhs_i / M[i][enter] is smaller, or equal with
  // the smaller basis column (Bland). The ratios are cross-multiplied
  // exactly, so this never overflows.
  template <typename Ops>
  bool RatioBeatsT(int enter, int i, int leave) const {
    const typename Ops::T* a = Ops::ArenaOf(ws_).data();
    const typename Ops::T* ri = a + Index(i, 0);
    const typename Ops::T* rl = a + Index(leave, 0);
    const int cmp =
        Ops::CompareProducts(ri[ncols_], rl[enter], rl[ncols_], ri[enter]);
    return cmp < 0 || (cmp == 0 && ws_.basis[i] < ws_.basis[leave]);
  }

  // The leaving row for column `enter` (Bland), or -1 if none bounds it.
  template <typename Ops>
  int SelectLeaveT(int enter) const {
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      if (SignAt<Ops>(i, enter) <= 0) continue;
      if (leave < 0 || RatioBeatsT<Ops>(enter, i, leave)) leave = i;
    }
    return leave;
  }

  // Bland's rule to optimality, unboundedness or the pivot cap; nullopt
  // when a pivot overflowed the tier.
  template <typename Ops>
  std::optional<SolveStatus> Iterate(bool phase_one, int64_t* pivots) {
    while (true) {
      const int enter = SelectEnterT<Ops>(phase_one);
      if (enter == -1) return SolveStatus::kOptimal;

      const int leave = SelectLeaveT<Ops>(enter);
      if (leave == -1) return SolveStatus::kUnbounded;

      if (!Pivot<Ops>(leave, enter)) return std::nullopt;
      ++*pivots;
      if (*pivots > options_.max_pivots) return SolveStatus::kPivotLimit;
    }
  }

  // ---- warm start / artificials -------------------------------------------

  int ColumnOfEntry(const BasisEntry& entry) const {
    const int n = NumVariables();
    switch (entry.kind) {
      case BasisKind::kStructural:
        return entry.index >= 0 && entry.index < n ? entry.index : -1;
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
      if (SignAt<Ops>(i, ncols_) < 0) return false;
    }
    return true;
  }

  // The row hint column col enters at (see Install), or -1 to skip it, in
  // one pass over the column and rhs cells: the first unassigned row where
  // the column is nonzero and the basic value 0, else the ratio-test row
  // (SelectLeaveT) if that row is unassigned with a positive value.
  template <typename Ops>
  int InstallRowT(int col, const std::vector<char>& assigned) const {
    using T = typename Ops::T;
    const T* a = Ops::ArenaOf(ws_).data();
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const T* ri = a + Index(i, 0);
      const int sign = Ops::Sign(ri[col]);
      if (sign == 0) continue;
      if (!assigned[i] && Ops::IsZero(ri[ncols_])) return i;
      if (sign > 0 && (leave < 0 || RatioBeatsT<Ops>(col, i, leave))) {
        leave = i;
      }
    }
    const bool enters = leave >= 0 && !assigned[leave] &&
                        SignAt<Ops>(leave, ncols_) > 0;
    return enters ? leave : -1;
  }

  // The reference Tableau::Install rule for a hint that maps (HintMaps),
  // which keeps every basic value nonnegative: each hint column enters at
  // the row InstallRowT picks, if any, with a degenerate pivot there on a
  // negated row when its entry is negative. False when a row negation or
  // a pivot overflowed the tier.
  template <typename Ops>
  bool Install(const std::vector<BasisEntry>& hint, int64_t* pivots) {
    std::vector<char> assigned(m_, 0);
    for (const BasisEntry& entry : hint) {
      const int col = ColumnOfEntry(entry);
      const int r = InstallRowT<Ops>(col, assigned);
      if (r < 0) continue;
      if (ws_.basis[r] != col) {
        if (SignAt<Ops>(r, col) < 0 && !NegateRow<Ops>(r)) return false;
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
          SignAt<Ops>(i, ncols_) > 0) {
        return true;
      }
    }
    return false;
  }

  // False when a row negation or a pivot overflowed the tier.
  template <typename Ops>
  bool PivotOutBasicArtificials() {
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] < art_begin_) continue;  // artificials sit at the end
      for (int j = 0; j < art_begin_; ++j) {
        const int s = SignAt<Ops>(i, j);
        if (s == 0) continue;
        // Direct elementary pivot (ratio irrelevant: rhs is zero).
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
    std::vector<Rational> out(NumVariables());
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] < static_cast<int>(out.size())) {
        out[ws_.basis[i]] = Rational(CellBig<Ops>(Index(i, ncols_)),
                                     CellBig<Ops>(Index(i, ws_.basis[i])));
      }
    }
    return out;
  }

  // Row multipliers in *problem* space: the scaled-system multiplier
  // (d*c_identity - C[identity]) / d, with d the cost row's scale,
  // un-flipped by the row sign, times the integerization scale t_i, divided
  // by the phase's objective scale (lcm(t) for the phase-I/Farkas
  // certificate, L for phase-II duals) — which lands exactly on what the
  // reference simplex extracts. Integer input has all three scales 1.
  template <typename Ops>
  std::vector<Rational> ExtractRowMultipliers(bool phase_one) const {
    const BigInt d = CellBig<Ops>(scale_cell_);
    const bool integer = ip_ != nullptr;
    const BigInt den =
        integer ? d : d * (phase_one ? ws_.art_scale : ws_.cost_scale);
    std::vector<Rational> out(m_);
    for (int i = 0; i < m_; ++i) {
      const int col = ws_.identity_col[i];
      BAGCQ_CHECK_GE(col, 0) << "row without identity column";
      BigInt numer = -CellBig<Ops>(Index(m_, col));
      if (!integer) {
        numer = (d * ws_.phase_cost[col] + numer) * ws_.row_scale[i];
      } else if (const int64_t c = ws_.int_phase_cost[col]; c == 1) {
        numer += d;
      } else if (c != 0) {
        numer += d * BigInt(c);
      }
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

  int m_ = 0;
  int ncols_ = 0;
  int art_begin_ = 0;
  int num_artificials_ = 0;
  size_t stride_ = 0;
  size_t scale_cell_ = 0;
  size_t cells_ = 0;

  // Pivots made, the pivot-outs of basic artificials included: after the
  // word run, its Solution::word_pivots.
  int64_t tableau_pivots_ = 0;
};

}  // namespace

void LadderWorkspace::Release() { *this = LadderWorkspace(); }

size_t LadderWorkspace::RetainedBytes() const {
  return w64.capacity() * sizeof(int64_t) +
         wbig.capacity() * sizeof(util::BigInt);
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
