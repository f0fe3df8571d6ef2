#include "lp/solver.h"

#include "util/check.h"

namespace bagcq::lp {

Solution<util::Rational> Solver::Finish(Solution<util::Rational> out) {
  stats_.exact_pivots += out.pivots;
  stats_.word_pivots += out.word_pivots;
  stats_.wide_pivots += out.wide_pivots;
  stats_.bigint_promotions += out.bigint_promotions;
  // The Solver contract promises a certified answer; hitting the cap (only
  // reachable with a cycling pivot rule or a misconfigured cap) is a
  // programmer error, as it was before kPivotLimit existed.
  BAGCQ_CHECK(out.status != SolveStatus::kPivotLimit)
      << "exact simplex hit max_pivots — cycling pivot rule or cap too low?";
  return out;
}

template <typename Program>
Solution<util::Rational> Solver::SolveImpl(const Program& program) {
  ++stats_.solves;
  return Finish(simplex_.Solve(program));
}

template <typename Program>
Solution<util::Rational> Solver::SolveFromImpl(
    const Program& program, const std::vector<BasisEntry>& hint) {
  ++stats_.solves;
  ++stats_.warm_attempts;
  Solution<util::Rational> out = simplex_.SolveFrom(program, hint);
  if (out.warm_started) ++stats_.warm_accepts;
  return Finish(std::move(out));
}

template <typename Program>
Solution<util::Rational> Solver::SolveKeyedImpl(const Program& program,
                                                std::string_view shape_key) {
  if (!warm_enabled_) return SolveImpl(program);
  auto it = warm_slots_.find(shape_key);
  if (it == warm_slots_.end()) {
    Solution<util::Rational> out = SolveImpl(program);
    if (!out.basis.empty() && warm_slots_.size() < kMaxWarmSlots) {
      warm_slots_.emplace(std::string(shape_key),
                          WarmSlot{out.basis, out.pivots});
    }
    return out;
  }
  const int64_t cold_pivots = it->second.cold_pivots;
  Solution<util::Rational> out = SolveFromImpl(program, it->second.basis);
  if (out.warm_started && out.pivots < cold_pivots) {
    stats_.warm_pivots_saved += cold_pivots - out.pivots;
  }
  if (!out.basis.empty()) it->second.basis = out.basis;
  return out;
}

Solution<util::Rational> Solver::Solve(const LpProblem& problem) {
  return SolveImpl(problem);
}

Solution<util::Rational> Solver::SolveFrom(
    const LpProblem& problem, const std::vector<BasisEntry>& hint) {
  return SolveFromImpl(problem, hint);
}

Solution<util::Rational> Solver::SolveKeyed(const LpProblem& problem,
                                            std::string_view shape_key) {
  return SolveKeyedImpl(problem, shape_key);
}

Solution<util::Rational> Solver::Solve(const IntegerProgram& program) {
  return SolveImpl(program);
}

Solution<util::Rational> Solver::SolveFrom(
    const IntegerProgram& program, const std::vector<BasisEntry>& hint) {
  return SolveFromImpl(program, hint);
}

Solution<util::Rational> Solver::SolveKeyed(const IntegerProgram& program,
                                            std::string_view shape_key) {
  return SolveKeyedImpl(program, shape_key);
}

}  // namespace bagcq::lp
