// Pins the exact bytes the decision procedure emits: FNV-1a digests of the
// wire encodings of seeded decision corpora and of a few proofs. An LP
// input or pivoting change that is meant to be invisible (a new input form,
// a sparser pivot kernel) must leave every verdict, certificate,
// counterexample, witness and CallStats counter, and so every digest,
// unchanged. Only elapsed_ms, a wall-clock time, is zeroed before hashing.
// The FNV-1a parameters are the 64-bit standard ones.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "cq/workload.h"
#include "entropy/expr_parser.h"
#include "entropy/known_inequalities.h"
#include "wire/codec.h"
#include "wire/wire.h"

namespace bagcq {
namespace {

class Fnv1a {
 public:
  void Add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

// 200 pairs of the corpus decided in order by one Engine: by default warm
// starts chain across the corpus, as in a session.
std::string DecisionDigest(const cq::WorkloadOptions& options,
                           api::EngineOptions engine_options = {}) {
  cq::WorkloadGenerator generator(options);
  api::Engine engine(engine_options);
  Fnv1a fnv;
  for (const cq::GeneratedPair& g : generator.Generate(200)) {
    auto result = engine.Decide(g.pair.q1, g.pair.q2);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    api::DecisionResult decision = std::move(result).ValueOrDie();
    decision.stats.elapsed_ms = 0.0;
    wire::Encoder e;
    wire::EncodeDecisionResult(decision, &e);
    fnv.Add(e.buffer());
  }
  return fnv.Hex();
}

cq::WorkloadOptions Corpus(cq::ShapeRegime regime, int min_vars, int max_vars,
                           double contained_fraction) {
  cq::WorkloadOptions options;
  options.seed = 4242;
  options.regime = regime;
  options.min_vars = min_vars;
  options.max_vars = max_vars;
  options.contained_fraction = contained_fraction;
  return options;
}

TEST(OutputDigestTest, AcyclicMixedCorpus) {
  EXPECT_EQ(DecisionDigest(Corpus(cq::ShapeRegime::kAcyclic, 2, 5, 0.5)),
            "03dc17fd5d69fb13");
}

TEST(OutputDigestTest, AcyclicContainedCorpus) {
  EXPECT_EQ(DecisionDigest(Corpus(cq::ShapeRegime::kAcyclic, 2, 6, 1.0)),
            "650031cd817da000");
}

TEST(OutputDigestTest, CyclicMixedCorpus) {
  EXPECT_EQ(DecisionDigest(Corpus(cq::ShapeRegime::kCyclic, 3, 5, 0.5)),
            "7567399693aeebf6");
}

// A cold engine's replies depend only on their requests, so no change to
// the warm path may move this digest.
TEST(OutputDigestTest, ColdEngineContainedCorpus) {
  EXPECT_EQ(DecisionDigest(Corpus(cq::ShapeRegime::kAcyclic, 2, 6, 1.0),
                           api::EngineOptions().set_warm_starts(false)),
            "20c3b4038140fd76");
}

void AddProof(util::Result<api::ProofResult> result, Fnv1a* fnv) {
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  api::ProofResult proof = std::move(result).ValueOrDie();
  proof.stats.elapsed_ms = 0.0;
  wire::Encoder e;
  wire::EncodeProofResult(proof, &e);
  fnv->Add(e.buffer());
}

// Proofs on one Engine: valid and invalid Shannon inequalities, Zhang–Yeung
// (not Shannon-provable), and inequalities with non-integer coefficients,
// which take the rational LpProblem route.
TEST(OutputDigestTest, ProofResults) {
  api::Engine engine;
  Fnv1a fnv;
  for (const char* text :
       {"I(A;B|C) >= 0", "H(A) + H(B) >= H(A,B)", "H(A) >= H(B)",
        "1/2*I(A;B|C) + 1/3*H(A|B) + 1/5*I(B;C) >= 0",
        "1/2*H(A) >= 1/3*H(A,B)"}) {
    AddProof(engine.ProveInequality(text), &fnv);
  }
  AddProof(engine.ProveInequality(entropy::ZhangYeungExpr()), &fnv);
  EXPECT_EQ(fnv.Hex(), "8439db05c968bc9a");
}

// Max-inequalities over all three cones, with integer and with rational
// branches (the generator and Γn LPs in both input forms).
TEST(OutputDigestTest, MaxInequalityResults) {
  api::Engine engine;
  Fnv1a fnv;
  for (const std::vector<std::string>& lines :
       std::vector<std::vector<std::string>>{
           {"H(A,B) + H(B,C) >= H(A,B,C) + H(B)", "H(A) >= H(A,B,C)"},
           {"H(A,B) >= 2*H(A,B,C)", "H(B,C) >= 2*H(A,B,C)"},
           {"1/2*H(A,B) + 1/3*H(C) >= H(A,B,C)",
            "2/3*H(A,C) + 1/7*H(B) >= H(A,B,C)"},
           {"1/2*H(A) >= 1/2*H(B)", "1/3*H(B) >= 1/3*H(A)"}}) {
    auto parsed = entropy::ParseInequalityList(lines);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::vector<entropy::LinearExpr> branches;
    for (const entropy::ParsedInequality& p : parsed.ValueOrDie()) {
      branches.push_back(p.expr);
    }
    for (entropy::ConeKind cone :
         {entropy::ConeKind::kPolymatroid, entropy::ConeKind::kNormal,
          entropy::ConeKind::kModular}) {
      AddProof(engine.CheckMaxInequality(branches, cone), &fnv);
    }
  }
  EXPECT_EQ(fnv.Hex(), "fb276b8a16fba122");
}

}  // namespace
}  // namespace bagcq
