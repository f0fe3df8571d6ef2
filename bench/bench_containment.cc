// P2: end-to-end containment decision time across query families — the
// cost profile of Theorem 3.1's exponential-time procedure: homomorphism
// enumeration, junction-tree construction, and the cone LP. All decisions
// run through bagcq::Engine; the session-vs-fresh pair quantifies what the
// prover cache and LP-workspace reuse buy on repeated decisions.
#include <benchmark/benchmark.h>

#include "api/engine.h"

namespace {

using namespace bagcq;

cq::ConjunctiveQuery Cycle(int length, const cq::Vocabulary* vocab) {
  std::string text;
  for (int i = 0; i < length; ++i) {
    if (i) text += ", ";
    text += "R(c" + std::to_string(i) + ",c" + std::to_string((i + 1) % length) +
            ")";
  }
  if (vocab != nullptr) {
    return cq::ParseQueryWithVocabulary(text, *vocab).ValueOrDie();
  }
  return cq::ParseQuery(text).ValueOrDie();
}

cq::ConjunctiveQuery Star(int rays, const cq::Vocabulary& vocab) {
  std::string text;
  for (int i = 0; i < rays; ++i) {
    if (i) text += ", ";
    text += "R(h,s" + std::to_string(i) + ")";
  }
  return cq::ParseQueryWithVocabulary(text, vocab).ValueOrDie();
}

// Cycle_k ⪯ star_2 generalizes Example 4.3 (k = 3 is the paper's case).
void BM_CycleInFork(benchmark::State& state) {
  auto q1 = Cycle(static_cast<int>(state.range(0)), nullptr);
  auto q2 = Star(2, q1.vocab());
  Engine engine;
  for (auto _ : state) {
    auto d = engine.Decide(q1, q2).ValueOrDie();
    benchmark::DoNotOptimize(d.verdict);
  }
}
BENCHMARK(BM_CycleInFork)->DenseRange(3, 6);

// Star_k ⪯ star_j: contained iff j ≤ k; both directions timed.
void BM_StarInStar(benchmark::State& state) {
  auto base = cq::ParseQuery("R(x,y)").ValueOrDie();
  auto q1 = Star(static_cast<int>(state.range(0)), base.vocab());
  auto q2 = Star(static_cast<int>(state.range(1)), base.vocab());
  Engine engine;
  for (auto _ : state) {
    auto d = engine.Decide(q1, q2).ValueOrDie();
    benchmark::DoNotOptimize(d.verdict);
  }
}
BENCHMARK(BM_StarInStar)->Args({3, 2})->Args({2, 3})->Args({4, 3})->Args({4, 4});

// The Example 3.5 refutation including witness construction+verification.
void BM_Example35Refutation(benchmark::State& state) {
  Engine engine;
  auto pair = engine
                  .ParsePair(
                      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), "
                      "C(x1',x2')",
                      "A(y1,y2), B(y1,y3), C(y4,y2)")
                  .ValueOrDie();
  for (auto _ : state) {
    auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
    benchmark::DoNotOptimize(d.witness);
  }
}
BENCHMARK(BM_Example35Refutation);

// Witness-free vs witness-included refutation cost.
void BM_Example35NoWitnessVerify(benchmark::State& state) {
  Engine engine{EngineOptions().set_verify_witness_counts(false)};
  auto pair = engine
                  .ParsePair(
                      "A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), "
                      "C(x1',x2')",
                      "A(y1,y2), B(y1,y3), C(y4,y2)")
                  .ValueOrDie();
  for (auto _ : state) {
    auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
    benchmark::DoNotOptimize(d.witness);
  }
}
BENCHMARK(BM_Example35NoWitnessVerify);

// What the session buys: the same decision repeated against a long-lived
// Engine (elemental system built once, LP workspace warm) versus a fresh
// Engine per decision (the old free-function behavior).
void BM_RepeatDecisionSessionEngine(benchmark::State& state) {
  Engine engine;
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  for (auto _ : state) {
    auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
    benchmark::DoNotOptimize(d.verdict);
  }
  state.counters["elementals_built"] =
      static_cast<double>(engine.stats().prover_constructions);
}
BENCHMARK(BM_RepeatDecisionSessionEngine);

void BM_RepeatDecisionFreshEngine(benchmark::State& state) {
  Engine parse_engine;
  auto pair = parse_engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  int64_t built = 0;
  for (auto _ : state) {
    Engine engine;
    auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
    benchmark::DoNotOptimize(d.verdict);
    built += engine.stats().prover_constructions;
  }
  state.counters["elementals_built"] = static_cast<double>(built);
}
BENCHMARK(BM_RepeatDecisionFreshEngine);

// A repeated end-to-end decision: the whole decision pipeline
// (homomorphisms, junction tree, witness, warm-started LPs) rides along.
void BM_RepeatDecisionExactBackend(benchmark::State& state) {
  Engine engine;
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  for (auto _ : state) {
    auto d = engine.Decide(pair.q1, pair.q2).ValueOrDie();
    benchmark::DoNotOptimize(d.verdict);
  }
}
BENCHMARK(BM_RepeatDecisionExactBackend);

// DecideBatch over a mixed 32-pair workload: one session decides every
// pair in order, reusing its prover pool and warm-start slots.
void BM_DecideBatch(benchmark::State& state) {
  Engine engine;
  const char* rows[][2] = {
      {"R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,y), R(y,x)", "R(a,b)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,a)"},
  };
  std::vector<QueryPair> pairs;
  for (int rep = 0; rep < 8; ++rep) {
    for (const auto& row : rows) {
      pairs.push_back(engine.ParsePair(row[0], row[1]).ValueOrDie());
    }
  }
  for (auto _ : state) {
    auto results = engine.DecideBatch(pairs);
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_DecideBatch);

// Memoized repeated traffic: the second and later passes over the same pair
// skip the decision procedure entirely.
void BM_DecideBatchMemoized(benchmark::State& state) {
  Engine engine{EngineOptions().set_memoize_decisions(true)};
  auto pair = engine
                  .ParsePair("R(x1,x2), R(x2,x3), R(x3,x1)",
                             "R(y1,y2), R(y1,y3)")
                  .ValueOrDie();
  std::vector<QueryPair> pairs(32, pair);
  for (auto _ : state) {
    auto results = engine.DecideBatch(pairs);
    benchmark::DoNotOptimize(results.size());
  }
  state.counters["memo_hits"] =
      static_cast<double>(engine.stats().decision_memo_hits);
}
BENCHMARK(BM_DecideBatchMemoized);

}  // namespace

BENCHMARK_MAIN();
