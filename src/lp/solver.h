// lp::Solver — the one exact LP solver every consumer in the decision
// pipeline programs against (ShannonProver, MaxIIOracle, core::decider,
// bagcq::Engine, the AGM bound).
//
// It wraps the fraction-free escalation-ladder simplex (ladder_simplex.h)
// with what a long-lived session needs on top: the persistent workspace (the
// revised-form block of (m+1) x (m+2) cells and its per-solve vectors),
// keyed warm-start slots, and cumulative SolverStats. Programs follow the
// lp_problem.h contract: nonnegative variables, minimize. Every Solution it
// returns is exact, and its certificate (duals or Farkas) passes
// VerifyDuals/VerifyFarkas. SimplexSolver (simplex.h) is the reference
// implementation the ladder is pivot-parity tested against.
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
#include "lp/lp_problem.h"

namespace bagcq::lp {

/// Cumulative counters (monotone until ResetStats).
struct SolverStats {
  int64_t solves = 0;
  int64_t exact_pivots = 0;
  /// Solves handed a starting-basis hint via SolveFrom/SolveKeyed.
  int64_t warm_attempts = 0;
  /// Hinted solves whose hint mapped onto the program and was installed
  /// (Solution::warm_started), wholly or in part.
  int64_t warm_accepts = 0;
  /// Pivots avoided by keyed warm starts, measured against the recorded
  /// cold-solve pivot count of the same shape slot (SolveKeyed only).
  int64_t warm_pivots_saved = 0;
  /// Escalation-ladder accounting, summed over solves (see
  /// Solution::word_pivots): the pivots of the solves that ran in the int64
  /// tier from start to finish, and how many solves overflowed it and ran
  /// again in BigInt. word_pivots includes the phase-I artificial
  /// pivot-outs that exact_pivots leaves out.
  int64_t word_pivots = 0;
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
  Solution Solve(const LpProblem& problem);

  /// Warm-started solve: resumes from the install of `hint` (see
  /// SimplexSolver::SolveFrom), or runs cold when the hint does not map onto
  /// the program. Exactness and certification guarantees are identical to
  /// Solve.
  Solution SolveFrom(const LpProblem& problem,
                     const std::vector<BasisEntry>& hint);

  /// Keyed warm start: remembers the terminal basis of the last solve per
  /// caller-chosen shape key and hands it to the next solve under the same
  /// key as the starting basis. Callers pick keys so that equal keys imply
  /// equal program *shape* (row/column counts); the program data may differ.
  /// Where the new data make a stale basis singular or infeasible,
  /// SolveFrom installs it in part, and phase I and II go on from there.
  /// This is how the decision pipeline chains the branch LPs of one
  /// decision (and of a whole batch) incrementally. With
  /// SolverOptions::warm_starts false this is exactly Solve().
  Solution SolveKeyed(const LpProblem& problem, std::string_view shape_key);

  /// The same three calls on integer input (lp_problem.h): the ladder fills
  /// its int64 arena from the program directly. Results, certificates and
  /// stats are those of the equivalent LpProblem.
  Solution Solve(const IntegerProgram& program);
  Solution SolveFrom(const IntegerProgram& program,
                     const std::vector<BasisEntry>& hint);
  Solution SolveKeyed(const IntegerProgram& program,
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
  Solution SolveImpl(const Program& program);
  template <typename Program>
  Solution SolveFromImpl(const Program& program,
                         const std::vector<BasisEntry>& hint);
  template <typename Program>
  Solution SolveKeyedImpl(const Program& program, std::string_view shape_key);
  Solution Finish(Solution out);

  LadderSimplex simplex_;
  SolverStats stats_;
  std::map<std::string, WarmSlot, std::less<>> warm_slots_;
  bool warm_enabled_ = true;
};

/// Old name, kept because perfbench/driver.cc still constructs it.
using ExactSolver = Solver;

}  // namespace bagcq::lp
