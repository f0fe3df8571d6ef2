// Witness-count differential over seeded cq::WorkloadGenerator corpora. Every
// NotContained verdict carries a witness database D whose counts the decider
// verified with cq::CountHomomorphisms (the junction-tree DP). Here each
// count is checked against the backtracking oracle for Q1 and for Q2; power
// gadgets too large for the oracle are checked against the identity
// |hom(Q1,D)| = |hom(Q2,D)|² that their construction guarantees.
#include <gtest/gtest.h>

#include <vector>

#include "api/engine.h"
#include "cq/homomorphism.h"
#include "cq/workload.h"

namespace bagcq::cq {
namespace {

using core::Verdict;

bool IsPowerGadget(const api::QueryPair& pair) {
  return pair.q1.num_vars() == 2 * pair.q2.num_vars();
}

std::vector<GeneratedPair> RefutedPairs(uint64_t seed, ShapeRegime regime,
                                        int min_vars, int max_vars,
                                        size_t count) {
  WorkloadOptions options;
  options.seed = seed;
  options.regime = regime;
  options.min_vars = min_vars;
  options.max_vars = max_vars;
  options.contained_fraction = 0.0;
  return WorkloadGenerator(options).Generate(count);
}

// Decides every pair and checks both counts of each witness against the
// oracle. Returns the number of witnesses checked per construction.
struct Checked {
  int power = 0;
  int mismatch = 0;
};

Checked CheckWitnessCounts(const std::vector<GeneratedPair>& corpus) {
  api::Engine engine;
  Checked checked;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const api::QueryPair& pair = corpus[i].pair;
    auto decision = engine.Decide(pair.q1, pair.q2);
    EXPECT_TRUE(decision.ok()) << decision.status().ToString();
    if (!decision.ok() || !decision->witness.has_value()) continue;
    const core::Witness& witness = *decision->witness;
    const Structure& db = witness.database;
    const int64_t oracle_q1 = CountHomomorphismsBacktracking(pair.q1, db);
    const int64_t oracle_q2 = CountHomomorphismsBacktracking(pair.q2, db);
    EXPECT_EQ(CountHomomorphisms(pair.q1, db), oracle_q1)
        << "pair " << i << ": " << ToBatchLine(pair);
    EXPECT_EQ(CountHomomorphisms(pair.q2, db), oracle_q2)
        << "pair " << i << ": " << ToBatchLine(pair);
    EXPECT_EQ(witness.hom_q1, oracle_q1) << "pair " << i;
    EXPECT_EQ(witness.hom_q2, oracle_q2) << "pair " << i;
    EXPECT_TRUE(witness.counts_verified) << "pair " << i;
    ++(IsPowerGadget(pair) ? checked.power : checked.mismatch);
  }
  return checked;
}

TEST(WitnessCountTest, AcyclicRefutationsMatchBacktracking) {
  auto corpus = RefutedPairs(2026, ShapeRegime::kAcyclic, 2, 3, 400);
  Checked checked = CheckWitnessCounts(corpus);
  // The acyclic regime is decisive: every pair is refuted with a witness.
  EXPECT_EQ(checked.power + checked.mismatch, 400);
  EXPECT_GT(checked.power, 100);
  EXPECT_GT(checked.mismatch, 100);
}

TEST(WitnessCountTest, CyclicTrianglesMatchBacktracking) {
  // Q2 is a triangle (plus decorations); a power gadget's Q1 is two of them.
  auto corpus = RefutedPairs(101, ShapeRegime::kCyclic, 3, 3, 120);
  Checked checked = CheckWitnessCounts(corpus);
  EXPECT_GT(checked.power, 30);
  EXPECT_GT(checked.mismatch, 30);
}

TEST(WitnessCountTest, LargePowerGadgetsCountTheSquare) {
  // Q2 of 4-5 variables: backtracking enumerates up to ~10^8 homomorphisms
  // per witness here, so the oracle is the construction itself — Q1 is two
  // disjoint copies of Q2, hence |hom(Q1,D)| = |hom(Q2,D)|² on every D.
  api::Engine engine;
  int checked = 0;
  for (const GeneratedPair& g :
       RefutedPairs(7, ShapeRegime::kAcyclic, 4, 5, 100)) {
    if (!IsPowerGadget(g.pair) || checked == 24) continue;
    auto decision = engine.Decide(g.pair.q1, g.pair.q2);
    ASSERT_TRUE(decision.ok()) << decision.status().ToString();
    EXPECT_EQ(decision->verdict, Verdict::kNotContained);
    ASSERT_TRUE(decision->witness.has_value()) << ToBatchLine(g.pair);
    const core::Witness& witness = *decision->witness;
    EXPECT_TRUE(witness.counts_verified);
    EXPECT_EQ(witness.hom_q1, witness.hom_q2 * witness.hom_q2)
        << ToBatchLine(g.pair);
    EXPECT_EQ(CountHomomorphisms(g.pair.q2, witness.database), witness.hom_q2);
    ++checked;
  }
  EXPECT_EQ(checked, 24);
}

}  // namespace
}  // namespace bagcq::cq
