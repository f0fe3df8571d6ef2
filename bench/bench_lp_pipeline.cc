// LP-pipeline perf tracker: times the exact solver cold (per-solve phase I
// from scratch) and warm (keyed warm-start basis chaining, the Engine
// default) on the bench_shannon_lp workloads (n=4/n=5 prove, the
// Zhang–Yeung refutation), one session's DecideBatch, and the same batch
// served through the proof store and both serving backends, then writes a
// machine-readable BENCH_lp.json so the perf trajectory is comparable
// across PRs (and gated in CI by tools/check_bench.py against
// BENCH_lp.baseline.json). No Google Benchmark dependency: this driver
// always builds, and `--smoke` (1 iteration) keeps it CI-cheap.
//
// Usage: bench_lp_pipeline [--smoke] [--out PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "api/engine.h"
#include "cq/workload.h"
#include "entropy/known_inequalities.h"
#include "service/engine_pool.h"
#include "service/server.h"
#include "service/service.h"
#include "service/transport.h"
#include "store/proof_store.h"

using namespace bagcq;
using Clock = std::chrono::steady_clock;

namespace {

struct Measurement {
  std::string name;
  int iters = 0;
  double ms_per_iter = 0.0;
};

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

entropy::LinearExpr SplitSubmodularity(int n) {
  util::VarSet left, right;
  for (int i = 0; i < n; ++i) {
    if (i % 2 == 0) left = left.With(i);
    right = right.With(i);
  }
  return entropy::SubmodularityExpr(n, left, right);
}

template <typename Fn>
Measurement Time(const std::string& name, int iters, Fn&& fn) {
  fn();  // warm-up (prover caches, workspace capacity, warm-basis slots)
  // Median of per-iteration times: the regression gate compares these
  // numbers across runs and machines, and a median shrugs off the scheduler
  // hiccups that make means of ms-scale workloads flap.
  std::vector<double> samples(iters);
  for (int i = 0; i < iters; ++i) {
    const auto start = Clock::now();
    fn();
    samples[i] = MsSince(start);
  }
  std::sort(samples.begin(), samples.end());
  Measurement m{name, iters, samples[iters / 2]};
  std::printf("  %-44s %10.3f ms/iter  (median of %d)\n", name.c_str(),
              m.ms_per_iter, iters);
  return m;
}

std::vector<QueryPair> BatchWorkload(Engine& engine, int reps) {
  const char* rows[][2] = {
      {"R(x1,x2), R(x2,x3), R(x3,x1)", "R(y1,y2), R(y1,y3)"},
      {"R(x,y), R(y,z)", "R(a,b), R(b,c)"},
      {"R(x,y), R(y,x)", "R(a,b)"},
      {"R(x,y), R(y,z), R(z,x)", "R(a,b), R(b,c), R(c,a)"},
  };
  std::vector<QueryPair> pairs;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& row : rows) {
      pairs.push_back(engine.ParsePair(row[0], row[1]).ValueOrDie());
    }
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_lp.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  // Smoke mode still runs a handful of iterations: the CI regression gate
  // compares ms_per_iter against the committed baseline, and single-shot
  // timings on shared runners are too noisy to gate anything.
  const int prove4_iters = smoke ? 9 : 49;
  const int prove5_iters = smoke ? 5 : 11;
  const int batch_iters = smoke ? 3 : 5;

  std::printf("LP pipeline benchmark (%s mode)\n", smoke ? "smoke" : "full");
  std::vector<Measurement> results;
  struct WarmCounters {
    std::string tag;
    int64_t warm_accepts = 0;
    int64_t warm_pivots_saved = 0;
    int64_t lp_solves = 0;
  };
  std::vector<WarmCounters> warm_counters;

  for (bool warm : {false, true}) {
    const std::string tag = warm ? "exact/warm" : "exact/cold";
    Engine engine{EngineOptions().set_warm_starts(warm)};
    auto e4 = SplitSubmodularity(4);
    auto e5 = SplitSubmodularity(5);
    results.push_back(Time("shannon_prove_n4/" + tag, prove4_iters, [&] {
      engine.ProveInequality(e4).ValueOrDie();
    }));
    results.push_back(Time("shannon_prove_n5/" + tag, prove5_iters, [&] {
      engine.ProveInequality(e5).ValueOrDie();
    }));
    results.push_back(Time("zhang_yeung_refute/" + tag, prove4_iters, [&] {
      engine.ProveInequality(entropy::ZhangYeungExpr()).ValueOrDie();
    }));
    EngineStats stats = engine.stats();
    warm_counters.push_back(
        {tag, stats.lp_warm_accepts, stats.lp_warm_pivots_saved,
         stats.lp_solves});
  }

  {
    Engine engine;
    auto pairs = BatchWorkload(engine, smoke ? 2 : 8);
    results.push_back(Time("decide_batch_t1", batch_iters, [&] {
      auto out = engine.DecideBatch(pairs);
      if (out.size() != pairs.size()) std::abort();
    }));
  }

  // The persistent proof store: the same batch served entirely from a
  // pre-seeded log — the cross-restart warm path. Per iteration this pays
  // decode + checksum + certificate re-verification and zero LP solves;
  // against decide_batch_t1 it prices what a restart with --store skips.
  {
    const std::string store_path =
        "/tmp/bagcq_bench_store_" + std::to_string(::getpid()) + ".log";
    ::unlink(store_path.c_str());
    Engine parser;
    auto pairs = BatchWorkload(parser, smoke ? 2 : 8);
    {
      auto seeded = store::ProofStore::Open(store_path).ValueOrDie();
      Engine seeder{EngineOptions().set_decision_store(seeded.get())};
      if (seeder.DecideBatch(pairs).size() != pairs.size()) std::abort();
    }
    auto log = store::ProofStore::Open(store_path).ValueOrDie();
    Engine engine{EngineOptions().set_decision_store(log.get())};
    results.push_back(Time("decide_batch/store_warm", batch_iters, [&] {
      auto out = engine.DecideBatch(pairs);
      if (out.size() != pairs.size()) std::abort();
    }));
    // Every timed decision must have come from the store, or the row lies.
    if (engine.stats().store_hits == 0 || engine.stats().lp_solves != 0) {
      std::abort();
    }
    ::unlink(store_path.c_str());
  }

  // Serving tier: the same batch through the wire protocol — in-process
  // Service (encode + decode + Engine) vs forked worker pools (adds framed
  // pipe transport and cross-process sharding). Memoization off so every
  // iteration measures real decisions, not memo replay.
  {
    Engine parser;
    auto pairs = BatchWorkload(parser, smoke ? 2 : 8);
    const std::string batch_bytes = service::EncodeRequest(
        service::DecideBatchRequest{std::move(pairs)});
    auto check = [](const std::string& reply) {
      if (!service::DecodeResponse(reply).ok()) std::abort();
    };
    const api::EngineOptions worker_options =
        EngineOptions().set_memoize_decisions(false);
    service::Service inproc{worker_options};
    results.push_back(Time("service_batch/inproc", batch_iters, [&] {
      check(inproc.HandleBytes(batch_bytes));
    }));
    for (int workers : {1, 2, 4}) {
      service::WorkerPool pool;
      service::ServerOptions server_options;
      server_options.num_workers = workers;
      server_options.engine = worker_options;
      if (!pool.Start(server_options).ok()) std::abort();
      results.push_back(Time(
          "service_batch/w" + std::to_string(workers), batch_iters, [&] {
            check(pool.DispatchBytes(batch_bytes));
          }));
    }

    // The threaded engine tier over the same batch: identical sharding,
    // in-process queues instead of framed pipes. threads4_vs_fork4 below is
    // the headline fork-vs-thread number.
    {
      service::ThreadedEnginePool pool;
      service::ThreadedPoolOptions pool_options;
      pool_options.num_threads = 4;
      pool_options.engine = worker_options;
      if (!pool.Start(pool_options).ok()) std::abort();
      results.push_back(Time("service_batch/threads4", batch_iters, [&] {
        check(pool.DispatchBytes(batch_bytes));
      }));
      pool.Stop();
    }

    // The full concurrent path: a live event-loop server on a Unix socket,
    // 4 clients submitting the batch simultaneously per iteration — what a
    // remote deployment actually pays (framing + event loop + sharding),
    // and the row that keeps multi-connection serving honest in CI.
    {
      service::WorkerPool pool;
      service::ServerOptions server_options;
      server_options.num_workers = 2;
      server_options.engine = worker_options;
      if (!pool.Start(server_options).ok()) std::abort();
      service::Server server(&pool);
      const std::string socket_path =
          "/tmp/bagcq_bench_" + std::to_string(::getpid()) + ".sock";
      auto listener = service::ListenUnix(socket_path);
      if (!listener.ok() || !server.AddListener(*listener).ok()) std::abort();
      std::thread serve_thread([&] {
        if (!server.Serve().ok()) std::abort();
      });
      constexpr int kClients = 4;
      results.push_back(Time("service_batch/concurrent", batch_iters, [&] {
        std::atomic<int> failures{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
          clients.emplace_back([&] {
            auto fd = service::DialUnix(socket_path);
            std::string reply;
            bool clean_eof = false;
            if (!fd.ok() ||
                !service::WriteFrame(*fd, batch_bytes).ok() ||
                !service::ReadFrame(*fd, &reply, &clean_eof).ok() ||
                clean_eof || !service::DecodeResponse(reply).ok()) {
              ++failures;
            }
            if (fd.ok()) ::close(*fd);
          });
        }
        for (std::thread& t : clients) t.join();
        if (failures.load() != 0) std::abort();
      }));
      server.Shutdown();
      serve_thread.join();
      ::unlink(socket_path.c_str());
    }

    // The streaming tier: a seeded workload flows through the chunked
    // DecideBatchStream path against a live 4-thread server — the
    // million-pair serving shape, priced per stream. Frames are
    // pre-encoded so the row times serving (framing + event loop +
    // sharding + window pacing), not generation; the engines memoize, and
    // Time()'s warm-up call fills the memo, so the gated number is the
    // steady-state streaming overhead rather than LP time. Smoke streams
    // 2k pairs under the same row name (the JSON records the mode).
    {
      cq::WorkloadOptions workload_options;
      workload_options.seed = 2026;
      cq::WorkloadGenerator generator(workload_options);
      const size_t stream_pairs = smoke ? 2'000 : 100'000;
      constexpr size_t kChunkPairs = 512;
      std::vector<std::string> chunk_frames;
      size_t generated = 0;
      while (generated < stream_pairs) {
        service::DecideBatchStreamRequest chunk;
        chunk.first_index = generated;
        const size_t take = std::min(kChunkPairs, stream_pairs - generated);
        chunk.pairs.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          chunk.pairs.push_back(generator.Next().pair);
        }
        generated += take;
        chunk.final_chunk = generated == stream_pairs;
        chunk_frames.push_back(service::EncodeRequest(std::move(chunk)));
      }

      service::ThreadedEnginePool pool;
      service::ThreadedPoolOptions pool_options;
      pool_options.num_threads = 4;
      if (!pool.Start(pool_options).ok()) std::abort();
      service::Server server(&pool);
      const std::string socket_path =
          "/tmp/bagcq_bench_stream_" + std::to_string(::getpid()) + ".sock";
      auto listener = service::ListenUnix(socket_path);
      if (!listener.ok() || !server.AddListener(*listener).ok()) std::abort();
      std::thread serve_thread([&] {
        if (!server.Serve().ok()) std::abort();
      });
      results.push_back(Time("decide_batch/stream_100k", batch_iters, [&] {
        auto fd = service::DialUnix(socket_path);
        if (!fd.ok()) std::abort();
        constexpr size_t kWindow = 8;
        size_t next = 0;
        size_t in_flight = 0;
        size_t received = 0;
        bool saw_final = false;
        auto receive_one = [&] {
          std::string reply;
          bool clean_eof = false;
          if (!service::ReadFrame(*fd, &reply, &clean_eof).ok() ||
              clean_eof) {
            std::abort();
          }
          auto response = service::DecodeResponse(reply);
          if (!response.ok()) std::abort();
          const auto* chunk =
              std::get_if<service::BatchChunkResponse>(&*response);
          if (chunk == nullptr) std::abort();
          saw_final = chunk->final_chunk;
          ++received;
          --in_flight;
        };
        while (next < chunk_frames.size()) {
          if (in_flight == kWindow) receive_one();
          if (!service::WriteFrame(*fd, chunk_frames[next++]).ok()) {
            std::abort();
          }
          ++in_flight;
        }
        while (in_flight > 0) receive_one();
        if (!saw_final || received != chunk_frames.size()) std::abort();
        ::close(*fd);
      }));
      server.Shutdown();
      serve_thread.join();
      pool.Stop();
      ::unlink(socket_path.c_str());
    }
  }

  // Derived speedups: warm vs cold, and the batch rows against each other.
  auto find = [&](const std::string& name) -> const Measurement* {
    for (const Measurement& m : results) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  std::vector<std::pair<std::string, double>> speedups;
  auto add_speedup = [&](const std::string& name, const Measurement* slow,
                         const Measurement* fast) {
    if (slow != nullptr && fast != nullptr && fast->ms_per_iter > 0) {
      speedups.emplace_back(name, slow->ms_per_iter / fast->ms_per_iter);
    }
  };
  for (const char* w : {"shannon_prove_n4", "shannon_prove_n5",
                        "zhang_yeung_refute"}) {
    const std::string base(w);
    add_speedup(base + "/exact:warm_vs_cold", find(base + "/exact/cold"),
                find(base + "/exact/warm"));
  }
  add_speedup("decide_batch:store_warm_vs_cold", find("decide_batch_t1"),
              find("decide_batch/store_warm"));
  add_speedup("service_batch:w2_vs_inproc", find("service_batch/inproc"),
              find("service_batch/w2"));
  add_speedup("service_batch:w2_vs_w1", find("service_batch/w1"),
              find("service_batch/w2"));
  // Thread mode vs fork mode at the same width: >1 means dropping the
  // framed-pipe hop pays for losing process isolation.
  add_speedup("service_batch:threads4_vs_fork4", find("service_batch/w4"),
              find("service_batch/threads4"));
  // 4 concurrent batches vs 4 sequential ones through the same 2-worker
  // pool: >1 means the event loop overlaps client traffic.
  if (const Measurement* w2 = find("service_batch/w2")) {
    if (const Measurement* conc = find("service_batch/concurrent");
        conc != nullptr && conc->ms_per_iter > 0) {
      speedups.emplace_back("service_batch:concurrent4_vs_serial4",
                            4 * w2->ms_per_iter / conc->ms_per_iter);
    }
  }
  for (const auto& [name, factor] : speedups) {
    std::printf("  %-44s %10.2fx\n", name.c_str(), factor);
  }
  for (const WarmCounters& w : warm_counters) {
    std::printf("  %-44s %6lld/%lld warm accepts, %lld pivots saved\n",
                w.tag.c_str(), static_cast<long long>(w.warm_accepts),
                static_cast<long long>(w.lp_solves),
                static_cast<long long>(w.warm_pivots_saved));
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"bagcq-bench-lp/2\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iters\": %d, \"ms_per_iter\": "
                 "%.6f}%s\n",
                 results[i].name.c_str(), results[i].iters,
                 results[i].ms_per_iter, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"speedups\": {\n");
  for (size_t i = 0; i < speedups.size(); ++i) {
    std::fprintf(out, "    \"%s\": %.4f%s\n", speedups[i].first.c_str(),
                 speedups[i].second, i + 1 < speedups.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"warm_stats\": {\n");
  for (size_t i = 0; i < warm_counters.size(); ++i) {
    const WarmCounters& w = warm_counters[i];
    std::fprintf(out,
                 "    \"%s\": {\"lp_solves\": %lld, \"warm_accepts\": %lld, "
                 "\"warm_pivots_saved\": %lld}%s\n",
                 w.tag.c_str(), static_cast<long long>(w.lp_solves),
                 static_cast<long long>(w.warm_accepts),
                 static_cast<long long>(w.warm_pivots_saved),
                 i + 1 < warm_counters.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
