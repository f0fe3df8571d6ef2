// P4: simplex ablations — the escalation ladder vs the reference
// vector-of-Rational tableau — on random dense LPs. Exactness
// is mandatory for certificates; this bench quantifies its price and what
// the integer ladder claws back.
#include <benchmark/benchmark.h>

#include <random>

#include "lp/ladder_simplex.h"
#include "lp/simplex.h"
#include "lp/solver.h"
#include "util/bigint.h"

namespace {

using namespace bagcq;
using util::Rational;

lp::LpProblem RandomLp(int vars, int rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> coeff(-9, 9);
  lp::LpProblem problem;
  for (int j = 0; j < vars; ++j) problem.AddVariable();
  for (int i = 0; i < rows; ++i) {
    std::vector<Rational> row;
    for (int j = 0; j < vars; ++j) row.push_back(Rational(coeff(rng)));
    // Nonnegative rhs keeps most instances feasible-bounded.
    problem.AddConstraint(std::move(row), lp::Sense::kLessEqual,
                          Rational(std::abs(coeff(rng)) + 1));
  }
  // Minimizing the negated costs: the classic maximize-over-a-box shape.
  std::vector<Rational> obj;
  for (int j = 0; j < vars; ++j) obj.push_back(Rational(-coeff(rng)));
  problem.SetObjective(std::move(obj));
  return problem;
}

void BM_ExactBland(benchmark::State& state) {
  auto problem = RandomLp(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)), 1234);
  lp::SimplexSolver solver;
  int64_t pivots = 0;
  for (auto _ : state) {
    auto sol = solver.Solve(problem);
    benchmark::DoNotOptimize(sol.status);
    pivots = sol.pivots;
  }
  state.counters["pivots"] = static_cast<double>(pivots);
}
BENCHMARK(BM_ExactBland)->RangeMultiplier(2)->Range(4, 32);

// The production solver (lp::Solver: the ladder plus its stats and warm-start
// bookkeeping) on the same programs.
void BM_BackendExact(benchmark::State& state) {
  auto problem = RandomLp(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)), 1234);
  lp::Solver solver;
  for (auto _ : state) {
    auto sol = solver.Solve(problem);
    benchmark::DoNotOptimize(sol.status);
  }
}
BENCHMARK(BM_BackendExact)->RangeMultiplier(2)->Range(4, 32);

// The escalation ladder vs the reference Rational tableau on the same
// programs — the pure exact-arithmetic ablation with no Solver wrapper
// around either.
template <typename Simplex>
void LadderBench(benchmark::State& state) {
  auto problem = RandomLp(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)), 1234);
  Simplex solver;
  int64_t word_pivots = 0;
  for (auto _ : state) {
    auto sol = solver.Solve(problem);
    benchmark::DoNotOptimize(sol.status);
    word_pivots = sol.word_pivots;
  }
  state.counters["word_pivots"] = static_cast<double>(word_pivots);
}
void BM_LadderWord(benchmark::State& state) {
  LadderBench<lp::LadderSimplex>(state);
}
void BM_LadderRational(benchmark::State& state) {
  LadderBench<lp::SimplexSolver>(state);
}
BENCHMARK(BM_LadderWord)->RangeMultiplier(2)->Range(4, 32);
BENCHMARK(BM_LadderRational)->RangeMultiplier(2)->Range(4, 32);

// BigInt small-value fast paths: the single-limb add/sub/mul short-circuits
// that the ladder's staging/boundary code (and Rational reduction) lean on.
// `wide` pits the same loop against two-limb operands, which take the
// general long-form path — the delta is the fast-path win.
void BM_BigIntSmallOps(benchmark::State& state) {
  const bool wide = state.range(0) != 0;
  const int64_t base = wide ? (int64_t{1} << 40) : 1;
  std::vector<util::BigInt> values;
  for (int64_t v : {3, -7, 41, -1000, 65535, -123456}) {
    values.push_back(util::BigInt(v * base));
  }
  for (auto _ : state) {
    for (const util::BigInt& a : values) {
      for (const util::BigInt& b : values) {
        benchmark::DoNotOptimize(a + b);
        benchmark::DoNotOptimize(a - b);
        benchmark::DoNotOptimize(a * b);
      }
    }
  }
}
BENCHMARK(BM_BigIntSmallOps)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
