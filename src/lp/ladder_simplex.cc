#include "lp/ladder_simplex.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "util/check.h"
#include "util/rational.h"

namespace bagcq::lp {

const char* LadderTierToString(LadderTier tier) {
  switch (tier) {
    case LadderTier::kWord:
      return "word";
    case LadderTier::kWide:
      return "wide";
    case LadderTier::kBig:
      return "big";
  }
  return "?";
}

namespace {

using util::BigInt;
using util::Rational;

// Per-tier arithmetic. Every Mul/Sub reports whether the operation would
// overflow the tier (the ladder promotes and retries); ExactDiv asserts the
// fraction-free invariant (the division has no remainder) in debug builds.
// CompareProducts decides a*b <=> c*d, the cross-multiplied ratio test.
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
  static T ExactDiv(const T& a, const T& b) {
    BAGCQ_DCHECK(a % b == 0);
    return a / b;
  }
  static T Narrow(const BigInt& v) { return v.ToInt64(); }
  static BigInt ToBig(const T& v) { return BigInt(v); }
  static T* ArenaOf(LadderWorkspace& ws) { return ws.w64.data(); }
  static bool CompareProducts(const T& a, const T& b, const T& c, const T& d,
                              int* cmp) {
#if defined(__SIZEOF_INT128__)
    // Two int64 factors always fit a 128-bit product: exact, never promotes.
    const __int128 x = static_cast<__int128>(a) * b;
    const __int128 y = static_cast<__int128>(c) * d;
    *cmp = x < y ? -1 : (x > y ? 1 : 0);
    return true;
#else
    T x, y;
    if (Mul(a, b, &x) || Mul(c, d, &y)) return false;
    *cmp = x < y ? -1 : (x > y ? 1 : 0);
    return true;
#endif
  }
};

struct OpsWide {
  using T = LadderWide;
  static bool Mul(const T& a, const T& b, T* out) {
    return __builtin_mul_overflow(a, b, out);
  }
  static bool Sub(const T& a, const T& b, T* out) {
    return __builtin_sub_overflow(a, b, out);
  }
  static bool IsZero(const T& v) { return v == 0; }
  static int Sign(const T& v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); }
  static T ExactDiv(const T& a, const T& b) {
    BAGCQ_DCHECK(a % b == 0);
    return a / b;
  }
  static T Narrow(const BigInt& v) {
#if defined(__SIZEOF_INT128__)
    return v.ToInt128();
#else
    return v.ToInt64();
#endif
  }
  static BigInt ToBig(const T& v) {
#if defined(__SIZEOF_INT128__)
    return BigInt::FromInt128(v);
#else
    return BigInt(v);
#endif
  }
  static T* ArenaOf(LadderWorkspace& ws) { return ws.wwide.data(); }
  static bool CompareProducts(const T& a, const T& b, const T& c, const T& d,
                              int* cmp) {
    T x, y;
    if (Mul(a, b, &x) || Mul(c, d, &y)) return false;
    *cmp = x < y ? -1 : (x > y ? 1 : 0);
    return true;
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
  static T ExactDiv(const T& a, const T& b) {
    T q, r;
    BigInt::DivMod(a, b, &q, &r);
    BAGCQ_DCHECK(r.is_zero());
    return q;
  }
  static const T& Narrow(const BigInt& v) { return v; }
  static BigInt ToBig(const T& v) { return v; }
  static T* ArenaOf(LadderWorkspace& ws) { return ws.wbig.data(); }
  static bool CompareProducts(const T& a, const T& b, const T& c, const T& d,
                              int* cmp) {
    const T x = a * b;
    const T y = c * d;
    *cmp = x < y ? -1 : (x > y ? 1 : 0);
    return true;
  }
};

// Magnitudes up to these bit lengths are guaranteed to fit the tier.
constexpr size_t kWordBits = 62;
constexpr size_t kWideBits = 126;

// The fraction-free tableau + driver. Mirrors Tableau<Scalar> in simplex.cc
// decision for decision — same column layout, same Bland selection,
// same warm-install and artificial-pivot-out flow — so that the two exact
// simplexes emit identical results (see the header for why the pivot
// sequences coincide). Storage is the flat block in LadderWorkspace: rows
// 0..m-1 are constraints, row m is the cost row, column ncols is the rhs,
// and the trailing cell is the shared denominator d (> 0 always).
class LadderTableau {
 public:
  LadderTableau(const LpProblem& problem, const SolverOptions& options,
                LadderWorkspace& workspace)
      : lp_(&problem), options_(options), ws_(workspace) {}
  LadderTableau(const IntegerProgram& program, const SolverOptions& options,
                LadderWorkspace& workspace)
      : ip_(&program), options_(options), ws_(workspace) {}

  Solution<Rational> Run(const std::vector<BasisEntry>* hint) {
    Solution<Rational> out = RunImpl(hint);
    out.word_pivots = word_pivots_;
    out.wide_pivots = wide_pivots_;
    out.bigint_promotions = big_promotions_;
    return out;
  }

 private:
  // ---- driver (the Tableau<Scalar>::Run flow) -----------------------------

  Solution<Rational> RunImpl(const std::vector<BasisEntry>* hint) {
    Build();
    Solution<Rational> out;

    bool installed = false;
    if (hint != nullptr) {
      installed = TryInstall(*hint, &out.pivots);
      if (!installed) {
        // A failed install may have half-transformed the tableau; rebuild
        // and forget the wasted work (pivot counts and tier promotions), so
        // a rejected hint behaves exactly like a cold Solve().
        Build();
        out.pivots = 0;
        word_pivots_ = wide_pivots_ = 0;
        big_promotions_ = 0;
      }
    }
    out.warm_started = installed;
    if (out.pivots > options_.max_pivots) {
      out.status = SolveStatus::kPivotLimit;
      return out;
    }

    const bool need_phase_one =
        installed ? InstalledBasisNeedsPhaseOne() : num_artificials_ > 0;
    if (need_phase_one) {
      SetPhaseCosts(/*phase_one=*/true);
      SolveStatus status = Iterate(/*phase_one=*/true, &out.pivots);
      BAGCQ_CHECK(status != SolveStatus::kUnbounded)
          << "phase I cannot be unbounded";
      if (status == SolveStatus::kPivotLimit) {
        out.status = SolveStatus::kPivotLimit;
        return out;
      }
      // Phase-I objective is -C[m][ncols]/d (d > 0): positive iff the cost
      // cell is negative.
      if (SignAt(m_, ncols_) < 0) {
        out.status = SolveStatus::kInfeasible;
        out.farkas = ExtractRowMultipliers(/*phase_one=*/true);
        out.basis = ExtractBasis();
        return out;
      }
      PivotOutBasicArtificials();
    } else if (installed && num_artificials_ > 0) {
      PivotOutBasicArtificials();
    }

    SetPhaseCosts(/*phase_one=*/false);
    SolveStatus status = Iterate(/*phase_one=*/false, &out.pivots);
    if (status == SolveStatus::kUnbounded ||
        status == SolveStatus::kPivotLimit) {
      out.status = status;
      return out;
    }

    out.status = SolveStatus::kOptimal;
    // Internal minimized objective = -C[m][ncols] / (d * L), undoing the
    // objective integerization scale.
    Rational objective(-CellBig(m_, ncols_), DenBig() * ws_.cost_scale);
    out.objective = maximize_ ? -objective : objective;
    out.values = ExtractPrimal();
    out.duals = ExtractRowMultipliers(/*phase_one=*/false);
    out.basis = ExtractBasis();
    if (maximize_) {
      for (Rational& y : out.duals) y = -y;
    }
    return out;
  }

  // ---- build --------------------------------------------------------------

  void Build() {
    BuildLayout();
    if (ip_ != nullptr) {
      BuildIntegerFill();
    } else {
      BuildStagedFill();
    }
  }

  // The input program, whichever form it came in.
  int NumVariables() const {
    return ip_ != nullptr ? ip_->num_columns() : lp_->num_variables();
  }
  bool IsFree(int j) const {
    return ip_ == nullptr && lp_->variable_is_free(j);
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
  // not depend on the arithmetic tier. Unlike the reference tableau, slack
  // and artificial columns are laid out up front (artificials contiguous at
  // the end, so "is artificial" is a range check), in the same order the
  // reference's AddColumn calls produce.
  void BuildLayout() {
    maximize_ =
        ip_ == nullptr && lp_->objective_sense() == Objective::kMaximize;
    const int n = NumVariables();
    m_ = ip_ != nullptr ? ip_->num_rows() : lp_->num_constraints();

    ws_.col_of_var.resize(n);
    ws_.neg_col_of_var.assign(n, -1);
    ws_.col_entry.clear();
    int col = 0;
    for (int j = 0; j < n; ++j) {
      ws_.col_of_var[j] = col++;
      ws_.col_entry.push_back({BasisKind::kStructural, j});
      if (IsFree(j)) {
        ws_.neg_col_of_var[j] = col++;
        ws_.col_entry.push_back({BasisKind::kNegStructural, j});
      }
    }
    num_structural_ = col;

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
    den_index_ = static_cast<size_t>(m_ + 1) * stride_;
    cells_ = den_index_ + 1;
  }

  static Rational CoeffAt(const Constraint& row, int j) {
    return j < static_cast<int>(row.coeffs.size()) ? row.coeffs[j] : Rational();
  }

  // Integer input: no scaling (t_i = L = 1) and no staging. The word-tier
  // arena is zeroed and each sparse column scattered into it.
  void BuildIntegerFill() {
    const int n = ip_->num_columns();
    ws_.row_scale.assign(m_, BigInt(1));
    ws_.cost_scale = BigInt(1);
    ws_.art_scale = BigInt(1);
    ws_.structural_cost.assign(ncols_, BigInt());
    for (int j = 0; j < n; ++j) {
      if (ip_->cost(j) != 0) ws_.structural_cost[j] = BigInt(ip_->cost(j));
    }

    ws_.w64.assign(cells_, 0);
    int64_t* a = ws_.w64.data();
    // No free variables: program column j is tableau column j.
    for (int j = 0; j < n; ++j) {
      for (const IntegerProgram::Entry& e : ip_->column(j)) {
        a[static_cast<size_t>(e.row) * stride_ + j] =
            e.value * ws_.row_sign[e.row];
      }
    }
    for (int i = 0; i < m_; ++i) {
      int64_t* ri = a + static_cast<size_t>(i) * stride_;
      ri[ncols_] = ip_->rhs(i) * ws_.row_sign[i];
      if (ws_.slack_col_of_row[i] >= 0) {
        ri[ws_.slack_col_of_row[i]] = SlackCoeff(i);
      }
      if (ws_.art_col_of_row[i] >= 0) ri[ws_.art_col_of_row[i]] = 1;
    }
    a[den_index_] = 1;
    tier_ = LadderTier::kWord;
  }

  // General path: integerize (row i scaled by t_i = lcm of its
  // denominators, objective by L), stage the scaled tableau in BigInt, and
  // narrow the whole block into the smallest tier that holds it.
  void BuildStagedFill() {
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
      BigInt ci = (ws_.cost_scale / c.den()) * c.num();
      if (maximize_) ci = -ci;
      track(ci);
      ws_.structural_cost[ws_.col_of_var[j]] = ci;
      if (ws_.neg_col_of_var[j] >= 0) {
        ws_.structural_cost[ws_.neg_col_of_var[j]] = -std::move(ci);
      }
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
      BigInt* ri = a + static_cast<size_t>(i) * stride_;
      for (int j = 0; j < n; ++j) {
        const Rational c = CoeffAt(row, j);
        if (c.is_zero()) continue;
        BigInt v = (t / c.den()) * c.num();
        if (ws_.row_sign[i] < 0) v = -v;
        track(v);
        if (ws_.neg_col_of_var[j] >= 0) ri[ws_.neg_col_of_var[j]] = -v;
        ri[ws_.col_of_var[j]] = std::move(v);
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
    a[den_index_] = BigInt(1);

    if (max_bits <= kWordBits) {
      ws_.w64.resize(cells_);
      for (size_t k = 0; k < cells_; ++k) ws_.w64[k] = a[k].ToInt64();
      tier_ = LadderTier::kWord;
    } else if (kHasWideTier && max_bits <= kWideBits) {
      ws_.wwide.resize(cells_);
      for (size_t k = 0; k < cells_; ++k) ws_.wwide[k] = OpsWide::Narrow(a[k]);
      tier_ = LadderTier::kWide;
    } else {
      tier_ = LadderTier::kBig;
    }
  }

  // ---- tier plumbing ------------------------------------------------------

  // Widens the whole block (and the in-flight pivot factor, held as BigInt
  // in resume_) to the next tier. Lossless; never reversed within a solve.
  void Promote() {
    if (tier_ == LadderTier::kWord && kHasWideTier) {
      ws_.wwide.resize(cells_);
      const int64_t* src = ws_.w64.data();
      LadderWide* dst = ws_.wwide.data();
      for (size_t k = 0; k < cells_; ++k) dst[k] = src[k];
      tier_ = LadderTier::kWide;
      return;
    }
    BAGCQ_DCHECK(tier_ != LadderTier::kBig);
    ws_.wbig.resize(cells_);
    BigInt* dst = ws_.wbig.data();
    if (tier_ == LadderTier::kWord) {
      const int64_t* src = ws_.w64.data();
      for (size_t k = 0; k < cells_; ++k) dst[k] = BigInt(src[k]);
    } else {
      const LadderWide* src = ws_.wwide.data();
      for (size_t k = 0; k < cells_; ++k) dst[k] = OpsWide::ToBig(src[k]);
    }
    tier_ = LadderTier::kBig;
    ++big_promotions_;
  }

  int SignAt(int i, int j) const {
    const size_t k = static_cast<size_t>(i) * stride_ + j;
    switch (tier_) {
      case LadderTier::kWord:
        return Ops64::Sign(ws_.w64[k]);
      case LadderTier::kWide:
        return OpsWide::Sign(ws_.wwide[k]);
      case LadderTier::kBig:
        return OpsBig::Sign(ws_.wbig[k]);
    }
    return 0;
  }

  BigInt CellBig(int i, int j) const {
    const size_t k = static_cast<size_t>(i) * stride_ + j;
    return IndexBig(k);
  }

  BigInt DenBig() const { return IndexBig(den_index_); }

  BigInt IndexBig(size_t k) const {
    switch (tier_) {
      case LadderTier::kWord:
        return BigInt(ws_.w64[k]);
      case LadderTier::kWide:
        return OpsWide::ToBig(ws_.wwide[k]);
      case LadderTier::kBig:
        return ws_.wbig[k];
    }
    return BigInt();
  }

  // ---- pivoting -----------------------------------------------------------

  struct PivotResume {
    int row = 0;        // row to continue at
    int col = 0;        // cell within that row
    bool mid_row = false;
    BigInt factor;      // the in-progress row's elimination factor
  };

  // One fraction-free pivot on (r, c), cost row included (it is row m_ of
  // the block; a zero cost row stays zero under the generic update, which is
  // what makes install-time pivots safe). Returns false when the tier
  // overflowed: resume_ then records the exact cell to continue from —
  // committed cells of the current row were already divided by the old d,
  // which promotion preserves verbatim, so resuming is exact.
  //
  // A unit pivot (piv == d) leaves a row with factor f = 0 unchanged, so
  // it skips such rows. When moreover d == 1 the update is
  // M'[i][j] = M[i][j] - f*M[r][j]: an entry in a column where the pivot
  // row is zero keeps its value, and nothing the dense loop checks there
  // can overflow. So that pivot computes only the pivot row's nonzero
  // columns (its support), with the dense loop's checked operations, and a
  // resume lands on the first support column at or after the saved one;
  // tiers and promotions are exactly the dense loop's. These are most
  // pivots of the elemental LPs, whose pivot rows are mostly zero. With
  // d > 1 the dense loop's product piv*M[i][j] of an unchanged entry can
  // overflow and promote, so the dense loop runs.
  template <typename Ops>
  bool PivotT(int r, int c) {
    using T = typename Ops::T;
    T* a = Ops::ArenaOf(ws_);
    const T d = a[den_index_];
    const T* pr = a + static_cast<size_t>(r) * stride_;
    const T piv = pr[c];
    BAGCQ_DCHECK(Ops::Sign(piv) > 0);
    const bool unit_pivot = piv == d;
    const bool unit_den = d == T{1};
    const bool sparse = unit_pivot && unit_den;
    std::vector<int>& support = ws_.pivot_support;
    if (sparse) {
      support.clear();
      for (int j = 0; j <= ncols_; ++j) {
        if (!Ops::IsZero(pr[j])) support.push_back(j);
      }
    }
    for (int i = resume_.row; i <= m_; ++i) {
      if (i == r) continue;
      T* ri = a + static_cast<size_t>(i) * stride_;
      T f;
      int j0 = 0;
      if (resume_.mid_row && i == resume_.row) {
        f = Ops::Narrow(resume_.factor);
        j0 = resume_.col;
      } else {
        f = ri[c];
        if (Ops::IsZero(f) && unit_pivot) continue;
      }
      if (sparse) {
        for (auto k = std::lower_bound(support.begin(), support.end(), j0);
             k != support.end(); ++k) {
          const int j = *k;
          T t, next;
          if (Ops::Mul(f, pr[j], &t) || Ops::Sub(ri[j], t, &next)) {
            return SaveResume(i, j, f);
          }
          ri[j] = std::move(next);
        }
        resume_.mid_row = false;
        continue;
      }
      const bool f_zero = Ops::IsZero(f);
      for (int j = j0; j <= ncols_; ++j) {
        T t1;
        if (f_zero) {
          if (Ops::IsZero(ri[j])) continue;
          if (Ops::Mul(piv, ri[j], &t1)) return SaveResume(i, j, f);
        } else {
          if (Ops::IsZero(ri[j]) && Ops::IsZero(pr[j])) continue;
          T t2, t3;
          if (Ops::Mul(piv, ri[j], &t1) || Ops::Mul(f, pr[j], &t2) ||
              Ops::Sub(t1, t2, &t3)) {
            return SaveResume(i, j, f);
          }
          t1 = std::move(t3);
        }
        ri[j] = unit_den ? std::move(t1) : Ops::ExactDiv(t1, d);
      }
      resume_.mid_row = false;
    }
    a[den_index_] = piv;
    return true;
  }

  template <typename T>
  bool SaveResume(int i, int j, const T& f) {
    resume_.row = i;
    resume_.col = j;
    resume_.mid_row = true;
    resume_.factor = BigInt(f);  // int64 overload; wide uses the other one
    return false;
  }
#if defined(__SIZEOF_INT128__)
  bool SaveResume(int i, int j, const LadderWide& f) {
    resume_.row = i;
    resume_.col = j;
    resume_.mid_row = true;
    resume_.factor = BigInt::FromInt128(f);
    return false;
  }
#endif

  // A full pivot, promoting (and resuming mid-row) as many times as the
  // entries demand. The pivot is tallied under the tier that completed it.
  void PivotInto(int r, int c) {
    resume_ = PivotResume{};
    for (;;) {
      bool done = false;
      switch (tier_) {
        case LadderTier::kWord:
          done = PivotT<Ops64>(r, c);
          break;
        case LadderTier::kWide:
          done = PivotT<OpsWide>(r, c);
          break;
        case LadderTier::kBig:
          done = PivotT<OpsBig>(r, c);
          break;
      }
      if (done) break;
      Promote();
    }
    ws_.basis[r] = c;
    if (tier_ == LadderTier::kWord) {
      ++word_pivots_;
    } else if (tier_ == LadderTier::kWide) {
      ++wide_pivots_;
    }
  }

  template <typename Ops>
  bool NegateRowT(int i, int* j0) {
    using T = typename Ops::T;
    T* ri = Ops::ArenaOf(ws_) + static_cast<size_t>(i) * stride_;
    for (int j = *j0; j <= ncols_; ++j) {
      T v;
      if (Ops::Sub(T{}, ri[j], &v)) {
        *j0 = j;
        return false;
      }
      ri[j] = std::move(v);
    }
    return true;
  }

  // Negates row i in place (a sign-preserving setup step so pivots always
  // see a positive pivot entry; equivalent to the reference dividing by a
  // negative pivot). Only -INT64_MIN-style edges can overflow.
  void NegateRow(int i) {
    int j0 = 0;
    for (;;) {
      bool done = false;
      switch (tier_) {
        case LadderTier::kWord:
          done = NegateRowT<Ops64>(i, &j0);
          break;
        case LadderTier::kWide:
          done = NegateRowT<OpsWide>(i, &j0);
          break;
        case LadderTier::kBig:
          done = NegateRowT<OpsBig>(i, &j0);
          break;
      }
      if (done) return;
      Promote();
    }
  }

  // ---- cost row -----------------------------------------------------------

  // Loads ws_.phase_cost (integer, per column) and rebuilds the cost row
  // C[j] = d*c_j - sum_i c_basis(i) * M[i][j] — the fraction-free image of
  // the reference's d_j = c_j - z_j recomputation. Reads only the rows, so
  // an overflow restarts the rebuild wholesale in the next tier.
  void SetPhaseCosts(bool phase_one) {
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
    for (;;) {
      bool done = false;
      switch (tier_) {
        case LadderTier::kWord:
          done = SetPhaseCostsT<Ops64>();
          break;
        case LadderTier::kWide:
          done = SetPhaseCostsT<OpsWide>();
          break;
        case LadderTier::kBig:
          done = SetPhaseCostsT<OpsBig>();
          break;
      }
      if (done) return;
      Promote();
    }
  }

  template <typename Ops>
  bool SetPhaseCostsT() {
    using T = typename Ops::T;
    T* a = Ops::ArenaOf(ws_);
    const T d = a[den_index_];
    T* crow = a + static_cast<size_t>(m_) * stride_;
    for (int j = 0; j < ncols_; ++j) {
      const BigInt& c = ws_.phase_cost[j];
      if (c.is_zero()) {
        crow[j] = T{};
        continue;
      }
      T cj = Ops::Narrow(c);
      if (Ops::Mul(d, cj, &crow[j])) return false;
    }
    crow[ncols_] = T{};
    for (int i = 0; i < m_; ++i) {
      const BigInt& cb_big = ws_.phase_cost[ws_.basis[i]];
      if (cb_big.is_zero()) continue;
      const T cb = Ops::Narrow(cb_big);
      const T* ri = a + static_cast<size_t>(i) * stride_;
      for (int j = 0; j <= ncols_; ++j) {
        if (Ops::IsZero(ri[j])) continue;
        T t, next;
        if (Ops::Mul(cb, ri[j], &t) || Ops::Sub(crow[j], t, &next)) {
          return false;
        }
        crow[j] = std::move(next);
      }
    }
    return true;
  }

  // ---- selection ----------------------------------------------------------

  template <typename Ops>
  int SelectEnterT(bool phase_one) const {
    using T = typename Ops::T;
    const T* crow = Ops::ArenaOf(ws_) + static_cast<size_t>(m_) * stride_;
    // Artificials sit last and may enter only in phase I.
    const int end = phase_one ? ncols_ : art_begin_;
    for (int j = 0; j < end; ++j) {
      if (Ops::Sign(crow[j]) < 0) return j;  // Bland: first negative cost
    }
    return -1;
  }

  template <typename Ops>
  bool SelectLeaveT(int enter, int* leave_out) {
    using T = typename Ops::T;
    const T* a = Ops::ArenaOf(ws_);
    int leave = -1;
    for (int i = 0; i < m_; ++i) {
      const T& pe = a[static_cast<size_t>(i) * stride_ + enter];
      if (Ops::Sign(pe) <= 0) continue;
      if (leave == -1) {
        leave = i;
        continue;
      }
      // rhs_i / M[i][enter] vs rhs_leave / M[leave][enter], cross-multiplied
      // (both pivot entries positive); Bland ties by smallest basis column.
      int cmp;
      if (!Ops::CompareProducts(
              a[static_cast<size_t>(i) * stride_ + ncols_],
              a[static_cast<size_t>(leave) * stride_ + enter],
              a[static_cast<size_t>(leave) * stride_ + ncols_], pe, &cmp)) {
        return false;
      }
      if (cmp < 0 || (cmp == 0 && ws_.basis[i] < ws_.basis[leave])) leave = i;
    }
    *leave_out = leave;
    return true;
  }

  SolveStatus Iterate(bool phase_one, int64_t* pivots) {
    while (true) {
      int enter = -1;
      switch (tier_) {
        case LadderTier::kWord:
          enter = SelectEnterT<Ops64>(phase_one);
          break;
        case LadderTier::kWide:
          enter = SelectEnterT<OpsWide>(phase_one);
          break;
        case LadderTier::kBig:
          enter = SelectEnterT<OpsBig>(phase_one);
          break;
      }
      if (enter == -1) return SolveStatus::kOptimal;

      int leave = -1;
      for (;;) {
        bool done = false;
        switch (tier_) {
          case LadderTier::kWord:
            done = SelectLeaveT<Ops64>(enter, &leave);
            break;
          case LadderTier::kWide:
            done = SelectLeaveT<OpsWide>(enter, &leave);
            break;
          case LadderTier::kBig:
            done = SelectLeaveT<OpsBig>(enter, &leave);
            break;
        }
        if (done) break;
        Promote();  // the ratio test reads only; restart it wholesale
      }
      if (leave == -1) return SolveStatus::kUnbounded;

      PivotInto(leave, enter);
      ++*pivots;
      if (*pivots > options_.max_pivots) return SolveStatus::kPivotLimit;
    }
  }

  // ---- warm start / artificials -------------------------------------------

  int ColumnOfEntry(const BasisEntry& entry) const {
    const int n = NumVariables();
    switch (entry.kind) {
      case BasisKind::kStructural:
        return entry.index >= 0 && entry.index < n
                   ? ws_.col_of_var[entry.index]
                   : -1;
      case BasisKind::kNegStructural:
        return entry.index >= 0 && entry.index < n
                   ? ws_.neg_col_of_var[entry.index]
                   : -1;
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

  template <typename Ops>
  bool IsUnitColumnAtT(int col, int r) {
    using T = typename Ops::T;
    const T* a = Ops::ArenaOf(ws_);
    const T& d = a[den_index_];
    for (int i = 0; i < m_; ++i) {
      const T& v = a[static_cast<size_t>(i) * stride_ + col];
      if (i == r ? !(v == d) : !Ops::IsZero(v)) return false;
    }
    return true;
  }

  bool IsUnitColumnAt(int col, int r) {
    switch (tier_) {
      case LadderTier::kWord:
        return IsUnitColumnAtT<Ops64>(col, r);
      case LadderTier::kWide:
        return IsUnitColumnAtT<OpsWide>(col, r);
      case LadderTier::kBig:
        return IsUnitColumnAtT<OpsBig>(col, r);
    }
    return false;
  }

  bool TryInstall(const std::vector<BasisEntry>& hint, int64_t* pivots) {
    if (static_cast<int>(hint.size()) != m_) return false;
    std::vector<int> cols(m_, -1);
    for (int c = 0; c < m_; ++c) {
      cols[c] = ColumnOfEntry(hint[c]);
      if (cols[c] < 0) return false;
    }

    std::vector<char> row_done(m_, 0);
    for (int col : cols) {
      int r = -1;
      for (int i = 0; i < m_; ++i) {
        if (!row_done[i] && SignAt(i, col) != 0) {
          r = i;
          break;
        }
      }
      if (r < 0) return false;  // singular (or duplicated) column set
      if (ws_.basis[r] != col || !IsUnitColumnAt(col, r)) {
        if (SignAt(r, col) < 0) NegateRow(r);
        PivotInto(r, col);
        ++*pivots;
      }
      ws_.basis[r] = col;
      row_done[r] = 1;
    }

    for (int i = 0; i < m_; ++i) {
      if (SignAt(i, ncols_) < 0) return false;  // negative basic value
    }
    return true;
  }

  bool InstalledBasisNeedsPhaseOne() const {
    for (int i = 0; i < m_; ++i) {
      if (ws_.col_entry[ws_.basis[i]].kind == BasisKind::kArtificial &&
          SignAt(i, ncols_) > 0) {
        return true;
      }
    }
    return false;
  }

  void PivotOutBasicArtificials() {
    for (int i = 0; i < m_; ++i) {
      if (ws_.basis[i] < art_begin_) continue;  // artificials sit at the end
      for (int j = 0; j < art_begin_; ++j) {
        const int s = SignAt(i, j);
        if (s == 0) continue;
        // Direct elementary pivot (ratio irrelevant: rhs is zero).
        if (s < 0) NegateRow(i);
        PivotInto(i, j);
        break;
      }
    }
  }

  // ---- extraction (the Rational boundary) ---------------------------------

  std::vector<BasisEntry> ExtractBasis() const {
    std::vector<BasisEntry> out;
    out.reserve(m_);
    for (int i = 0; i < m_; ++i) out.push_back(ws_.col_entry[ws_.basis[i]]);
    return out;
  }

  std::vector<Rational> ExtractPrimal() const {
    const BigInt d = DenBig();
    std::vector<Rational> internal(ncols_);
    for (int i = 0; i < m_; ++i) {
      internal[ws_.basis[i]] = Rational(CellBig(i, ncols_), d);
    }
    const int n = NumVariables();
    std::vector<Rational> out(n);
    for (int j = 0; j < n; ++j) {
      out[j] = internal[ws_.col_of_var[j]];
      if (ws_.neg_col_of_var[j] >= 0) {
        out[j] = out[j] - internal[ws_.neg_col_of_var[j]];
      }
    }
    return out;
  }

  // Row multipliers in *problem* space: the scaled-system multiplier
  // (d*c_identity - C[identity]) / d, un-flipped by the row sign, times the
  // row scale t_i, divided by the phase's objective scale (lcm(t) for the
  // phase-I/Farkas certificate, L for phase-II duals) — which lands exactly
  // on what the reference simplex extracts.
  std::vector<Rational> ExtractRowMultipliers(bool phase_one) const {
    const BigInt d = DenBig();
    const BigInt& scale = phase_one ? ws_.art_scale : ws_.cost_scale;
    std::vector<Rational> out(m_);
    for (int i = 0; i < m_; ++i) {
      const int col = ws_.identity_col[i];
      BAGCQ_CHECK_GE(col, 0) << "row without identity column";
      BigInt numer = d * ws_.phase_cost[col] - CellBig(m_, col);
      numer = numer * ws_.row_scale[i];
      if (ws_.row_sign[i] < 0) numer = -numer;
      out[i] = Rational(std::move(numer), d * scale);
    }
    return out;
  }

  // Exactly one of the two is set.
  const LpProblem* lp_ = nullptr;
  const IntegerProgram* ip_ = nullptr;
  SolverOptions options_;
  LadderWorkspace& ws_;

  bool maximize_ = false;
  int m_ = 0;
  int num_structural_ = 0;
  int ncols_ = 0;
  int art_begin_ = 0;
  int num_artificials_ = 0;
  size_t stride_ = 0;
  size_t den_index_ = 0;
  size_t cells_ = 0;

  LadderTier tier_ = LadderTier::kWord;
  PivotResume resume_;
  int64_t word_pivots_ = 0;
  int64_t wide_pivots_ = 0;
  int64_t big_promotions_ = 0;
};

}  // namespace

void LadderWorkspace::Release() { *this = LadderWorkspace(); }

size_t LadderWorkspace::RetainedBytes() const {
  return w64.capacity() * sizeof(int64_t) +
         wwide.capacity() * sizeof(LadderWide) +
         wbig.capacity() * sizeof(util::BigInt);
}

Solution<util::Rational> LadderSimplex::Solve(const LpProblem& problem) {
  LadderTableau tableau(problem, options_, workspace_);
  return tableau.Run(nullptr);
}

Solution<util::Rational> LadderSimplex::SolveFrom(
    const LpProblem& problem, const std::vector<BasisEntry>& basis) {
  LadderTableau tableau(problem, options_, workspace_);
  return tableau.Run(&basis);
}

Solution<util::Rational> LadderSimplex::Solve(const IntegerProgram& program) {
  LadderTableau tableau(program, options_, workspace_);
  return tableau.Run(nullptr);
}

Solution<util::Rational> LadderSimplex::SolveFrom(
    const IntegerProgram& program, const std::vector<BasisEntry>& basis) {
  LadderTableau tableau(program, options_, workspace_);
  return tableau.Run(&basis);
}

}  // namespace bagcq::lp
