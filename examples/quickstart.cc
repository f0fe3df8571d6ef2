// Quickstart: decide bag containment for two conjunctive queries through the
// bagcq::Engine facade, print the information inequality that drives the
// decision, and show the certificate (a Shannon proof) or the refutation (a
// witness database). One Engine is one session: prover state built for the
// first decision is reused by every later one.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "api/engine.h"

using namespace bagcq;

namespace {

void Decide(Engine& engine, const std::string& text1,
            const std::string& text2) {
  std::printf("--------------------------------------------------------\n");
  auto pair = engine.ParsePair(text1, text2).ValueOrDie();
  std::printf("Q1: %s\nQ2: %s\n", pair.q1.ToString().c_str(),
              pair.q2.ToString().c_str());

  api::DecisionResult d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
  std::printf("verdict: %s\n", d.ToString().c_str());

  if (d.inequality.has_value()) {
    std::printf("Eq. (8) instance:\n%s",
                d.inequality->ToString(pair.q1).c_str());
  }
  switch (d.verdict) {
    case api::Verdict::kContained:
      if (d.validity.has_value() && !d.validity->lambda.empty()) {
        std::printf("lambda weights (Theorem 6.1):");
        for (const auto& l : d.validity->lambda) {
          std::printf(" %s", l.ToString().c_str());
        }
        std::printf("\n");
      }
      if (d.validity.has_value() && d.validity->certificate.has_value()) {
        std::printf("Shannon proof of the lambda-combination:\n%s",
                    d.validity->certificate
                        ->ToString(pair.q1.num_vars(), pair.q1.var_names())
                        .c_str());
      }
      break;
    case api::Verdict::kNotContained:
      if (d.witness.has_value()) {
        std::printf("%s\n", d.witness->ToString(pair.q1).c_str());
        std::printf("witness database: %s\n",
                    d.witness->database.ToString().c_str());
      }
      break;
    case api::Verdict::kUnknown:
      std::printf("the decidable fragment does not cover this pair\n");
      break;
  }
}

}  // namespace

int main() {
  Engine engine;
  // Example 4.3 (contained) and Example 3.5 (not contained).
  Decide(engine, "R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)");
  Decide(engine,
         "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')",
         "A(y1,y2), B(y1,y3), C(y4,y2)");
  // A pair with head variables, reduced via Lemma A.1 internally.
  Decide(engine, "Q(x,z) :- P(x), S(u,x), S(v,z), R(z).",
         "Q(x,z) :- P(x), S(u,y), S(v,y), R(z).");

  EngineStats stats = engine.stats();
  std::printf("--------------------------------------------------------\n");
  std::printf(
      "session: %lld decisions, %lld elemental systems built, %lld cache "
      "hits, %lld LP solves, %lld pivots\n",
      static_cast<long long>(stats.decisions),
      static_cast<long long>(stats.prover_constructions),
      static_cast<long long>(stats.prover_cache_hits),
      static_cast<long long>(stats.lp_solves),
      static_cast<long long>(stats.lp_pivots));
  return 0;
}
