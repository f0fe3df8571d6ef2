// lp::Solver — the one exact LP solver every consumer in the decision
// pipeline programs against (ShannonProver, MaxIIOracle, core::decider,
// bagcq::Engine, the AGM bound).
//
// It wraps the fraction-free escalation-ladder simplex (ladder_simplex.h)
// with what a long-lived session needs on top: the persistent tableau arena,
// keyed warm-start slots, and cumulative SolverStats. Every Solution it
// returns is exact, and its certificate (duals or Farkas) passes
// VerifyDuals/VerifyFarkas. SimplexSolver<Rational> (simplex.h) is the
// reference implementation the ladder is pivot-parity tested against.
//
// Not thread-safe (it owns a mutable tableau workspace): one Solver per
// thread, matching the one-Engine-per-thread rule.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lp/ladder_simplex.h"
#include "lp/simplex.h"

namespace bagcq::lp {

/// Cumulative counters (monotone until ResetStats).
struct SolverStats {
  int64_t solves = 0;
  int64_t exact_pivots = 0;
  /// Solves handed a starting-basis hint via SolveFrom/SolveKeyed.
  int64_t warm_attempts = 0;
  /// Hinted solves where the simplex actually resumed from the hint instead
  /// of rejecting it (singular / stale / infeasible basis) and going cold.
  int64_t warm_accepts = 0;
  /// Pivots avoided by keyed warm starts, measured against the recorded
  /// cold-solve pivot count of the same shape slot (SolveKeyed only).
  int64_t warm_pivots_saved = 0;
  /// Escalation-ladder accounting: exact pivots completed in the int64 tier,
  /// in the 128-bit tier, and how many solves promoted all the way to BigInt.
  /// The tier tallies include the phase-I artificial pivot-outs that
  /// exact_pivots leaves out (see Solution::word_pivots).
  int64_t word_pivots = 0;
  int64_t wide_pivots = 0;
  int64_t bigint_promotions = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {})
      : simplex_(options), warm_enabled_(options.warm_starts) {}

  /// Solves the program exactly. The returned certificate (duals or Farkas)
  /// always passes VerifyDuals/VerifyFarkas. Hitting max_pivots (only
  /// reachable with a cap too low for the program; Bland's rule does not
  /// cycle) CHECK-fails rather than returning an uncertified kPivotLimit.
  Solution<util::Rational> Solve(const LpProblem& problem);

  /// Warm-started solve: resumes from `hint` (see SimplexSolver::SolveFrom)
  /// when it applies, falling back to the cold path — never to a wrong
  /// answer — when it does not. Exactness and certification guarantees are
  /// identical to Solve.
  Solution<util::Rational> SolveFrom(const LpProblem& problem,
                                     const std::vector<BasisEntry>& hint);

  /// Keyed warm start: remembers the terminal basis of the last solve per
  /// caller-chosen shape key and hands it to the next solve under the same
  /// key as the starting basis. Callers pick keys so that equal keys imply
  /// equal program *shape* (row/column counts); the program data may differ —
  /// a stale basis that no longer applies is rejected inside SolveFrom and
  /// the solve simply runs cold. This is how the decision pipeline chains
  /// the branch LPs of one decision (and of a whole batch) incrementally.
  /// With SolverOptions::warm_starts false this is exactly Solve().
  Solution<util::Rational> SolveKeyed(const LpProblem& problem,
                                      std::string_view shape_key);

  /// The same three calls on integer input (lp_problem.h): the ladder fills
  /// its int64 arena from the program directly. Results, certificates and
  /// stats are those of the equivalent LpProblem.
  Solution<util::Rational> Solve(const IntegerProgram& program);
  Solution<util::Rational> SolveFrom(const IntegerProgram& program,
                                     const std::vector<BasisEntry>& hint);
  Solution<util::Rational> SolveKeyed(const IntegerProgram& program,
                                      std::string_view shape_key);

  /// Drops persistent workspace memory and every keyed warm-basis slot;
  /// subsequent solves start cold.
  void Reset() {
    warm_slots_.clear();
    simplex_.Reset();
  }

  const SolverStats& stats() const { return stats_; }
  void ResetStats() { stats_ = SolverStats{}; }

  /// Keyed warm-basis slots currently held.
  size_t warm_slot_count() const { return warm_slots_.size(); }

 private:
  struct WarmSlot {
    std::vector<BasisEntry> basis;
    /// Pivot count of the slot's first (cold) solve — the baseline that
    /// warm_pivots_saved is measured against.
    int64_t cold_pivots = 0;
  };
  /// Shape keys are few (one per LP form × n × branch count); the cap only
  /// guards against a pathological caller.
  static constexpr size_t kMaxWarmSlots = 256;

  // One body per call for both input forms (solver.cc).
  template <typename Program>
  Solution<util::Rational> SolveImpl(const Program& program);
  template <typename Program>
  Solution<util::Rational> SolveFromImpl(const Program& program,
                                         const std::vector<BasisEntry>& hint);
  template <typename Program>
  Solution<util::Rational> SolveKeyedImpl(const Program& program,
                                          std::string_view shape_key);
  Solution<util::Rational> Finish(Solution<util::Rational> out);

  LadderSimplex simplex_;
  SolverStats stats_;
  std::map<std::string, WarmSlot, std::less<>> warm_slots_;
  bool warm_enabled_ = true;
};

/// Old name, kept because perfbench/driver.cc still constructs it.
using ExactSolver = Solver;

}  // namespace bagcq::lp
