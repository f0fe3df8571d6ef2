// bagcq_tool: command-line front end for the library, on top of the
// bagcq::Engine facade.
//
//   bagcq_tool check "Q1 body" "Q2 body"      decide Q1 ⪯ Q2 (bag-set)
//   bagcq_tool set   "Q1 body" "Q2 body"      Chandra–Merlin set containment
//   bagcq_tool eval  "query"   "database"     bag-set evaluation (group-by)
//   bagcq_tool count "query"   "database"     |hom(Q, D)|
//   bagcq_tool prove "inequality"             Shannon prover (ITIP-style)
//   bagcq_tool analyze "query"                acyclic/chordal/junction tree
//
// Queries use the datalog-ish syntax "Q(x) :- R(x,y), S(y)." (head optional)
// and databases "R = {(1,2),(2,3)}; S = {(1)}".
#include <cstdio>
#include <cstring>
#include <string>

#include "api/engine.h"
#include "cq/bag_semantics.h"
#include "cq/homomorphism.h"
#include "graph/chordal.h"
#include "graph/junction_tree.h"

using namespace bagcq;

namespace {

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int CmdCheck(Engine& engine, const std::string& text1,
             const std::string& text2) {
  auto pair = engine.ParsePair(text1, text2);
  if (!pair.ok()) return Fail(pair.status());
  auto decision = engine.Decide(pair->q1, pair->q2);
  if (!decision.ok()) return Fail(decision.status());
  std::printf("%s\n", decision->ToString().c_str());
  if (decision->verdict == api::Verdict::kNotContained &&
      decision->witness.has_value()) {
    std::printf("%s\nwitness database: %s\n",
                decision->witness->ToString(pair->q1).c_str(),
                decision->witness->database.ToString().c_str());
  }
  if (decision->verdict == api::Verdict::kContained &&
      decision->validity.has_value() &&
      decision->validity->certificate.has_value()) {
    std::printf("Shannon certificate:\n%s",
                decision->validity->certificate
                    ->ToString(pair->q1.num_vars(), pair->q1.var_names())
                    .c_str());
  }
  return decision->verdict == api::Verdict::kUnknown ? 2 : 0;
}

int CmdSet(Engine& engine, const std::string& text1,
           const std::string& text2) {
  auto pair = engine.ParsePair(text1, text2);
  if (!pair.ok()) return Fail(pair.status());
  std::printf("set containment: %s\n",
              engine.SetContained(pair->q1, pair->q2) ? "Contained"
                                                      : "NotContained");
  return 0;
}

int CmdEval(Engine& engine, const std::string& query_text,
            const std::string& db_text, bool count_only) {
  auto q = engine.ParseQuery(query_text);
  if (!q.ok()) return Fail(q.status());
  auto d = cq::ParseStructureWithVocabulary(db_text, q->vocab());
  if (!d.ok()) return Fail(d.status());
  if (count_only) {
    const long long dp = cq::CountHomomorphisms(*q, *d);
    const long long backtracking = cq::CountHomomorphismsBacktracking(*q, *d);
    std::printf("|hom(Q,D)| = %lld   (backtracking oracle: %lld)\n", dp,
                backtracking);
    return 0;
  }
  for (const auto& [key, count] : cq::BagSetEvaluate(*q, *d)) {
    std::printf("(");
    for (size_t i = 0; i < key.size(); ++i) {
      std::printf("%s%d", i ? "," : "", key[i]);
    }
    std::printf(") -> %lld\n", static_cast<long long>(count));
  }
  return 0;
}

int CmdProve(Engine& engine, const std::string& text) {
  auto result = engine.ProveInequality(text);
  if (!result.ok()) return Fail(result.status());
  const int n = static_cast<int>(result->var_names.size());
  if (result->valid) {
    std::printf("Shannon-valid.\n%s",
                result->certificate->ToString(n, result->var_names).c_str());
    return 0;
  }
  std::printf("not Shannon-provable; counterexample polymatroid:\n%s",
              result->counterexample->ToString(result->var_names).c_str());
  return 2;
}

int CmdAnalyze(Engine& engine, const std::string& text) {
  auto q = engine.ParseQuery(text);
  if (!q.ok()) return Fail(q.status());
  std::printf("query: %s\n", q->ToString().c_str());
  core::Q2Analysis analysis = engine.Analyze(*q);
  std::printf("acyclic: %s\n", analysis.acyclic ? "yes" : "no");
  std::printf("chordal Gaifman graph: %s\n", analysis.chordal ? "yes" : "no");
  graph::Graph g = q->GaifmanGraph();
  if (analysis.chordal) {
    auto jt = graph::JunctionTree(g);
    std::printf("junction tree: %s\n", jt.ToString().c_str());
    std::printf("simple: %s  (decidable as the containing query: %s)\n",
                analysis.simple_junction_tree ? "yes" : "no",
                analysis.decidable() ? "yes, Theorem 3.1" : "no");
  } else {
    auto filled = graph::MinimalTriangulation(g);
    std::printf("minimal triangulation: %s\n",
                graph::JunctionTree(filled).ToString().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Engine engine;
  if (argc >= 4 && std::strcmp(argv[1], "check") == 0) {
    return CmdCheck(engine, argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "set") == 0) {
    return CmdSet(engine, argv[2], argv[3]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "eval") == 0) {
    return CmdEval(engine, argv[2], argv[3], /*count_only=*/false);
  }
  if (argc >= 4 && std::strcmp(argv[1], "count") == 0) {
    return CmdEval(engine, argv[2], argv[3], /*count_only=*/true);
  }
  if (argc >= 3 && std::strcmp(argv[1], "prove") == 0) {
    return CmdProve(engine, argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "analyze") == 0) {
    return CmdAnalyze(engine, argv[2]);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  bagcq_tool check  <Q1> <Q2>\n"
               "  bagcq_tool set    <Q1> <Q2>\n"
               "  bagcq_tool eval   <Q> <DB>\n"
               "  bagcq_tool count  <Q> <DB>\n"
               "  bagcq_tool prove  <inequality>\n"
               "  bagcq_tool analyze <Q>\n");
  return 1;
}
