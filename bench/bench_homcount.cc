// P3: homomorphism counting — backtracking (one homomorphism at a time) vs
// the junction-tree DP behind cq::CountHomomorphisms, on acyclic (path)
// queries over random graphs, where the DP's bags are the atoms
// (Yannakakis), and on the cyclic triangle, where its one bag joins three
// atoms. The DP is polynomial in |D| while backtracking can be exponential
// in the query length; the crossover is the point the bench exhibits.
#include <benchmark/benchmark.h>

#include <random>

#include "cq/agm.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "cq/treewidth_count.h"

namespace {

using namespace bagcq;

cq::ConjunctiveQuery PathQuery(int length) {
  std::string text;
  for (int i = 0; i < length; ++i) {
    if (i) text += ", ";
    text += "R(x" + std::to_string(i) + ",x" + std::to_string(i + 1) + ")";
  }
  return cq::ParseQuery(text).ValueOrDie();
}

cq::Structure RandomGraph(const cq::Vocabulary& vocab, int nodes, int edges,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  cq::Structure d(vocab);
  for (int i = 0; i < edges; ++i) d.AddTuple(0, {node(rng), node(rng)});
  return d;
}

void BM_Backtracking(benchmark::State& state) {
  auto q = PathQuery(static_cast<int>(state.range(0)));
  auto d = RandomGraph(q.vocab(), 30, 120, 42);
  int64_t count = 0;
  for (auto _ : state) {
    count = cq::CountHomomorphismsBacktracking(q, d);
    benchmark::DoNotOptimize(count);
  }
  state.counters["homs"] = static_cast<double>(count);
}
BENCHMARK(BM_Backtracking)->DenseRange(2, 8, 2);

void BM_JoinTreeDp(benchmark::State& state) {
  auto q = PathQuery(static_cast<int>(state.range(0)));
  auto d = RandomGraph(q.vocab(), 30, 120, 42);
  int64_t count = 0;
  for (auto _ : state) {
    count = *cq::CountHomomorphismsTreewidth(q, d);
    benchmark::DoNotOptimize(count);
  }
  state.counters["homs"] = static_cast<double>(count);
}
BENCHMARK(BM_JoinTreeDp)->DenseRange(2, 8, 2);

void BM_DatabaseScaling(benchmark::State& state) {
  auto q = PathQuery(4);
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*cq::CountHomomorphismsTreewidth(q, d));
  }
}
BENCHMARK(BM_DatabaseScaling)->RangeMultiplier(2)->Range(16, 128);

// The cyclic triangle, where a join tree of atoms does not exist: the DP's
// single bag joins all three atoms.
void BM_TriangleBacktracking(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 3, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cq::CountHomomorphismsBacktracking(q, d));
  }
}
BENCHMARK(BM_TriangleBacktracking)->RangeMultiplier(2)->Range(8, 32);

void BM_TriangleTreewidthDp(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 3, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*cq::CountHomomorphismsTreewidth(q, d));
  }
}
BENCHMARK(BM_TriangleTreewidthDp)->RangeMultiplier(2)->Range(8, 32);

// AGM bound computation (exact-cover LP + exact power certificate).
void BM_AgmBound(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), 20, static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    auto bound = cq::ComputeAgmBound(q, d).ValueOrDie();
    benchmark::DoNotOptimize(bound.bound_approx);
  }
}
BENCHMARK(BM_AgmBound)->RangeMultiplier(4)->Range(16, 256);

}  // namespace

BENCHMARK_MAIN();
