#include "api/engine.h"

#include <atomic>

#include "api/decision_store.h"
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "core/set_containment.h"
#include "wire/wire.h"

namespace bagcq::api {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Escalation-ladder counters of `stats`, for before/after call deltas.
struct LadderSnapshot {
  int64_t word_pivots = 0;
  int64_t wide_pivots = 0;
  int64_t bigint_promotions = 0;

  static LadderSnapshot Of(const lp::Solver* solver) {
    if (solver == nullptr) return {};
    const lp::SolverStats& ss = solver->stats();
    return {ss.word_pivots, ss.wide_pivots, ss.bigint_promotions};
  }
  void WriteDeltaTo(const lp::Solver* solver, CallStats* out) const {
    if (solver == nullptr) return;
    const lp::SolverStats& ss = solver->stats();
    out->lp_word_pivots = ss.word_pivots - word_pivots;
    out->lp_wide_pivots = ss.wide_pivots - wide_pivots;
    out->lp_bigint_promotions = ss.bigint_promotions - bigint_promotions;
  }
};

DecisionResult FromDecision(core::Decision decision) {
  DecisionResult result;
  result.verdict = decision.verdict;
  result.method = std::move(decision.method);
  result.analysis = decision.analysis;
  result.inequality = std::move(decision.inequality);
  result.validity = std::move(decision.validity);
  result.counterexample = std::move(decision.counterexample);
  result.witness = std::move(decision.witness);
  result.stats.lp_pivots = decision.lp_pivots;
  return result;
}

/// One decision against explicit session state — shared by the sequential
/// path (session cache + solver) and parallel-batch workers (their own).
/// `*elapsed_ms` is written on success and failure alike.
util::Result<DecisionResult> DecideOne(const cq::ConjunctiveQuery& q1,
                                       const cq::ConjunctiveQuery& q2,
                                       bool bag_bag,
                                       const core::DeciderOptions& options,
                                       entropy::ProverCache* provers,
                                       lp::Solver* solver,
                                       double* elapsed_ms) {
  const auto start = Clock::now();
  const int64_t constructions_before = provers->constructions();
  const int64_t warm_accepts_before =
      solver != nullptr ? solver->stats().warm_accepts : 0;
  const int64_t warm_saved_before =
      solver != nullptr ? solver->stats().warm_pivots_saved : 0;
  const LadderSnapshot ladder_before = LadderSnapshot::Of(solver);
  core::DeciderContext context{provers, solver};
  auto decision =
      bag_bag
          ? core::DecideBagBagContainmentWithContext(q1, q2, options, context)
          : core::DecideBagContainmentWithContext(q1, q2, options, context);
  *elapsed_ms = MsSince(start);
  if (!decision.ok()) return decision.status();
  DecisionResult result = FromDecision(std::move(decision).ValueOrDie());
  result.stats.elapsed_ms = *elapsed_ms;
  result.stats.prover_cache_hit =
      provers->constructions() == constructions_before;
  if (solver != nullptr) {
    result.stats.lp_warm_accepts =
        solver->stats().warm_accepts - warm_accepts_before;
    result.stats.lp_warm_pivots_saved =
        solver->stats().warm_pivots_saved - warm_saved_before;
  }
  ladder_before.WriteDeltaTo(solver, &result.stats);
  return result;
}

/// The canonical structural wire key (vocabulary + atoms + head, variable
/// names excluded): whitespace- and renaming-variants of one pair — which
/// parse to identical structures up to names — share a single memo entry.
/// The server's shard router hashes the same key, so a memo entry is also
/// sticky to one worker process.
std::string MemoKey(const cq::ConjunctiveQuery& q1,
                    const cq::ConjunctiveQuery& q2, bool bag_bag) {
  return wire::CanonicalPairKey(q1, q2, bag_bag);
}

}  // namespace

std::string DecisionResult::ToString() const {
  std::ostringstream os;
  os << core::VerdictToString(verdict) << " [" << method << "]";
  os << " (Q2: acyclic=" << (analysis.acyclic ? "yes" : "no")
     << ", chordal=" << (analysis.chordal ? "yes" : "no")
     << ", simple-JT=" << (analysis.simple_junction_tree ? "yes" : "no")
     << "; " << stats.lp_pivots << " pivots, " << stats.elapsed_ms << " ms"
     << (stats.prover_cache_hit ? ", prover cached" : "") << ")";
  return os.str();
}

std::string ProofResult::ToString() const {
  std::ostringstream os;
  if (valid) {
    os << "valid";
    if (certificate.has_value()) os << " (Shannon certificate)";
    if (!lambda.empty()) os << " (lambda weights: " << lambda.size() << ")";
  } else {
    os << "invalid (violation " << violation.ToString() << ")";
  }
  os << " [" << stats.lp_pivots << " pivots, " << stats.elapsed_ms << " ms]";
  return os.str();
}

namespace {
lp::SolverOptions SolverOptionsFor(const EngineOptions& options) {
  lp::SolverOptions solver_options;  // Bland, default max_pivots
  solver_options.warm_starts = options.warm_starts();
  return solver_options;
}
}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options), solver_(SolverOptionsFor(options)) {
  if (options_.shared_prover_pool() != nullptr) {
    provers_.SetShared(options_.shared_prover_pool());
  }
}

util::Result<DecisionResult> Engine::Decide(const cq::ConjunctiveQuery& q1,
                                            const cq::ConjunctiveQuery& q2) {
  return DecideImpl(q1, q2, /*bag_bag=*/false);
}

util::Result<DecisionResult> Engine::Decide(std::string_view q1_text,
                                            std::string_view q2_text) {
  auto pair = ParsePair(q1_text, q2_text);
  if (!pair.ok()) {
    ++stats_.decisions;
    ++stats_.errors;
    return pair.status();
  }
  return DecideImpl(pair->q1, pair->q2, /*bag_bag=*/false);
}

util::Result<DecisionResult> Engine::DecideBagBag(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2) {
  return DecideImpl(q1, q2, /*bag_bag=*/true);
}

util::Result<DecisionResult> Engine::DecideBagBag(std::string_view q1_text,
                                                  std::string_view q2_text) {
  auto pair = ParsePair(q1_text, q2_text);
  if (!pair.ok()) {
    ++stats_.decisions;
    ++stats_.errors;
    return pair.status();
  }
  return DecideImpl(pair->q1, pair->q2, /*bag_bag=*/true);
}

std::vector<util::Result<DecisionResult>> Engine::DecideBatch(
    std::span<const QueryPair> pairs) {
  int threads = options_.num_threads();
  if (threads > static_cast<int>(pairs.size())) {
    threads = static_cast<int>(pairs.size());
  }
  if (threads > 1) return DecideBatchParallel(pairs, threads);
  std::vector<util::Result<DecisionResult>> out;
  out.reserve(pairs.size());
  for (const QueryPair& pair : pairs) {
    out.push_back(DecideImpl(pair.q1, pair.q2, /*bag_bag=*/false));
  }
  return out;
}

std::vector<util::Result<DecisionResult>> Engine::DecideBatchParallel(
    std::span<const QueryPair> pairs, int threads) {
  const auto start = Clock::now();
  const size_t count = pairs.size();
  const core::DeciderOptions decider_options = options_.ToDeciderOptions();

  // Per-worker session state: Engines are not thread-safe, so each worker
  // gets its own solver workspace and prover-cache handle. The session cache
  // backs each worker cache read-only (no copies; the session is not mutated
  // until after the join), so only genuinely new variable counts build.
  struct Worker {
    entropy::ProverCache provers;
    lp::Solver solver;
    int64_t decisions = 0;
    int64_t errors = 0;
    int64_t lp_pivots = 0;
    int64_t memo_hits = 0;
    int64_t store_hits = 0;
    int64_t store_misses = 0;
    int64_t store_appends = 0;
    int64_t store_rejects = 0;
  };
  std::vector<Worker> workers(threads);
  for (Worker& w : workers) {
    w.provers.SetFallback(&provers_);
    // A session backed by a process-wide pool passes the pool through, so
    // batch workers of shared-skeleton engines build nothing privately.
    w.provers.SetShared(provers_.shared());
    w.solver = lp::Solver(SolverOptionsFor(options_));
  }

  // Slots are indexed by input position, so output order is deterministic no
  // matter how the dynamic work-stealing interleaves.
  std::vector<std::optional<util::Result<DecisionResult>>> slots(count);
  std::atomic<size_t> next{0};
  auto run = [&](Worker& w) {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= count) break;
      const QueryPair& pair = pairs[i];
      ++w.decisions;
      DecideTrace trace;
      auto result =
          DecideMemoized(pair.q1, pair.q2, /*bag_bag=*/false, decider_options,
                         &w.provers, &w.solver, &trace);
      w.store_hits += trace.store_hit ? 1 : 0;
      w.store_misses += trace.store_miss ? 1 : 0;
      w.store_appends += trace.store_append ? 1 : 0;
      w.store_rejects += trace.store_reject ? 1 : 0;
      if (trace.memo_hit) {
        ++w.memo_hits;
      } else if (!result.ok()) {
        ++w.errors;
      } else if (!trace.store_hit) {
        w.lp_pivots += result->stats.lp_pivots;
      }
      slots[i] = std::move(result);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (Worker& w : workers) pool.emplace_back([&run, &w] { run(w); });
  for (std::thread& t : pool) t.join();

  // Fold worker counters into the session and absorb worker-built elemental
  // systems so the next batch (or call) starts warm.
  for (Worker& w : workers) {
    stats_.decisions += w.decisions;
    stats_.errors += w.errors;
    stats_.lp_pivots += w.lp_pivots;
    stats_.decision_memo_hits += w.memo_hits;
    stats_.store_hits += w.store_hits;
    stats_.store_misses += w.store_misses;
    stats_.store_appends += w.store_appends;
    stats_.store_rejects += w.store_rejects;
    worker_stats_.prover_constructions += w.provers.constructions();
    worker_stats_.prover_cache_hits += w.provers.hits();
    const lp::SolverStats& ss = w.solver.stats();
    worker_stats_.lp_solves += ss.solves;
    worker_stats_.lp_warm_accepts += ss.warm_accepts;
    worker_stats_.lp_warm_pivots_saved += ss.warm_pivots_saved;
    worker_stats_.lp_word_pivots += ss.word_pivots;
    worker_stats_.lp_wide_pivots += ss.wide_pivots;
    worker_stats_.lp_bigint_promotions += ss.bigint_promotions;
    provers_.AbsorbFrom(std::move(w.provers));
  }
  stats_.total_ms += MsSince(start);  // batch wall-clock, not worker-ms sum

  std::vector<util::Result<DecisionResult>> out;
  out.reserve(count);
  for (std::optional<util::Result<DecisionResult>>& slot : slots) {
    out.push_back(*std::move(slot));
  }
  return out;
}

bool Engine::MemoLookup(const std::string& key, DecisionResult* out) {
  std::shared_ptr<const DecisionResult> entry;
  {
    util::MutexLock lock(&memo_mutex_);
    auto it = memo_.find(key);
    if (it == memo_.end()) return false;
    entry = it->second;
  }
  // The (potentially large: witnesses) copy happens outside the lock so
  // parallel-batch workers do not serialize on hot repeated traffic.
  *out = *entry;
  out->stats.memo_hit = true;
  return true;
}

void Engine::MemoInsert(const std::string& key, const DecisionResult& result) {
  const size_t cap = options_.memo_max_entries();
  if (cap == 0) return;
  auto entry = std::make_shared<const DecisionResult>(result);
  util::MutexLock lock(&memo_mutex_);
  if (!memo_.emplace(key, std::move(entry)).second) return;  // already there
  memo_order_.push_back(key);
  while (memo_.size() > cap) {  // FIFO eviction at the cap
    memo_.erase(memo_order_.front());
    memo_order_.pop_front();
  }
}

util::Result<DecisionResult> Engine::DecideMemoized(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    bool bag_bag, const core::DeciderOptions& decider_options,
    entropy::ProverCache* provers, lp::Solver* solver, DecideTrace* trace) {
  *trace = DecideTrace{};
  DecisionStore* store = options_.decision_store();
  std::string key;
  if (options_.memoize_decisions() || store != nullptr) {
    key = MemoKey(q1, q2, bag_bag);
  }
  if (options_.memoize_decisions()) {
    DecisionResult memoized;
    if (MemoLookup(key, &memoized)) {
      trace->memo_hit = true;
      return memoized;
    }
  }
  if (store != nullptr) {
    // The persistent tier: a hit was decoded, checksummed, and (for
    // certificate-carrying results) re-verified by the store's load policy,
    // so it is as trustworthy as a fresh solve — warm the memo with it.
    DecisionResult stored;
    if (store->Lookup(key, &stored)) {
      trace->store_hit = true;
      stored.stats.store_hit = true;
      if (options_.memoize_decisions()) MemoInsert(key, stored);
      return stored;
    }
    trace->store_miss = true;
  }
  auto result = DecideOne(q1, q2, bag_bag, decider_options, provers, solver,
                          &trace->elapsed_ms);
  if (result.ok()) {
    if (options_.memoize_decisions()) MemoInsert(key, *result);
    if (store != nullptr) {
      switch (store->Put(key, *result)) {
        case StorePutOutcome::kAppended:
          trace->store_append = true;
          break;
        case StorePutOutcome::kRejected:
          trace->store_reject = true;
          break;
        case StorePutOutcome::kDuplicate:
          break;  // raced with another appender; their record is canonical
      }
    }
  }
  return result;
}

util::Result<DecisionResult> Engine::DecideImpl(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    bool bag_bag) {
  ++stats_.decisions;
  DecideTrace trace;
  auto result = DecideMemoized(q1, q2, bag_bag, options_.ToDeciderOptions(),
                               &provers_, &solver_, &trace);
  stats_.total_ms += trace.elapsed_ms;
  stats_.store_hits += trace.store_hit ? 1 : 0;
  stats_.store_misses += trace.store_miss ? 1 : 0;
  stats_.store_appends += trace.store_append ? 1 : 0;
  stats_.store_rejects += trace.store_reject ? 1 : 0;
  if (trace.memo_hit) {
    ++stats_.decision_memo_hits;
  } else if (!result.ok()) {
    ++stats_.errors;
  } else if (!trace.store_hit) {
    stats_.lp_pivots += result->stats.lp_pivots;
  }
  return result;
}

util::Result<ProofResult> Engine::ProveInequality(
    const entropy::LinearExpr& e) {
  const auto start = Clock::now();
  ++stats_.proofs;
  if (e.num_vars() < 1) {
    ++stats_.errors;
    return util::Status::InvalidArgument(
        "inequality must mention at least one variable");
  }
  const int64_t constructions_before = provers_.constructions();
  const int64_t warm_accepts_before = solver_.stats().warm_accepts;
  const int64_t warm_saved_before = solver_.stats().warm_pivots_saved;
  const LadderSnapshot ladder_before = LadderSnapshot::Of(&solver_);
  const entropy::ShannonProver& prover = provers_.Get(e.num_vars());
  entropy::IIResult ii = prover.Prove(e, &solver_);

  ProofResult result;
  result.valid = ii.valid;
  result.certificate = std::move(ii.certificate);
  result.counterexample = std::move(ii.counterexample);
  result.violation = ii.violation;
  result.stats.lp_pivots = ii.lp_pivots;
  result.stats.elapsed_ms = MsSince(start);
  result.stats.prover_cache_hit =
      provers_.constructions() == constructions_before;
  result.stats.lp_warm_accepts =
      solver_.stats().warm_accepts - warm_accepts_before;
  result.stats.lp_warm_pivots_saved =
      solver_.stats().warm_pivots_saved - warm_saved_before;
  ladder_before.WriteDeltaTo(&solver_, &result.stats);
  stats_.lp_pivots += ii.lp_pivots;
  stats_.total_ms += result.stats.elapsed_ms;
  return result;
}

util::Result<ProofResult> Engine::ProveInequality(std::string_view itip_text) {
  auto parsed = entropy::ParseInequality(itip_text);
  if (!parsed.ok()) {
    ++stats_.proofs;
    ++stats_.errors;
    return parsed.status();
  }
  auto result = ProveInequality(parsed->expr);
  if (result.ok()) {
    ProofResult named = std::move(result).ValueOrDie();
    named.var_names = std::move(parsed).ValueOrDie().var_names;
    return named;
  }
  return result;
}

util::Result<ProofResult> Engine::CheckMaxInequality(
    const std::vector<entropy::LinearExpr>& branches,
    entropy::ConeKind cone) {
  const auto start = Clock::now();
  ++stats_.proofs;
  if (branches.empty()) {
    ++stats_.errors;
    return util::Status::InvalidArgument(
        "max-inequality needs at least one branch");
  }
  const int n = branches[0].num_vars();
  if (n < 1) {
    ++stats_.errors;
    return util::Status::InvalidArgument(
        "inequality must mention at least one variable");
  }
  for (const entropy::LinearExpr& e : branches) {
    if (e.num_vars() != n) {
      ++stats_.errors;
      return util::Status::InvalidArgument(
          "all branches must share one variable space");
    }
  }
  const int64_t constructions_before = provers_.constructions();
  const int64_t warm_accepts_before = solver_.stats().warm_accepts;
  const int64_t warm_saved_before = solver_.stats().warm_pivots_saved;
  const LadderSnapshot ladder_before = LadderSnapshot::Of(&solver_);
  // The generator-form cones (Nn, Mn) never touch the elemental system, so
  // only the Γn route pays for (and caches) a prover.
  const entropy::ShannonProver* prover =
      cone == entropy::ConeKind::kPolymatroid ? &provers_.Get(n) : nullptr;
  entropy::MaxIIResult max_result =
      entropy::MaxIIOracle(n, cone, prover, &solver_).Check(branches);

  ProofResult result;
  result.valid = max_result.valid;
  result.certificate = std::move(max_result.certificate);
  result.lambda = std::move(max_result.lambda);
  result.counterexample = std::move(max_result.counterexample);
  result.violation = max_result.max_at_counterexample;
  result.stats.lp_pivots = max_result.lp_pivots;
  result.stats.elapsed_ms = MsSince(start);
  result.stats.prover_cache_hit =
      provers_.constructions() == constructions_before;
  result.stats.lp_warm_accepts =
      solver_.stats().warm_accepts - warm_accepts_before;
  result.stats.lp_warm_pivots_saved =
      solver_.stats().warm_pivots_saved - warm_saved_before;
  ladder_before.WriteDeltaTo(&solver_, &result.stats);
  stats_.lp_pivots += max_result.lp_pivots;
  stats_.total_ms += result.stats.elapsed_ms;
  return result;
}

core::Q2Analysis Engine::Analyze(const cq::ConjunctiveQuery& q2) const {
  return core::AnalyzeQ2(q2);
}

bool Engine::SetContained(const cq::ConjunctiveQuery& q1,
                          const cq::ConjunctiveQuery& q2) const {
  return core::SetContained(q1, q2);
}

util::Result<cq::ConjunctiveQuery> Engine::ParseQuery(
    std::string_view text) const {
  return cq::ParseQuery(text);
}

util::Result<QueryPair> Engine::ParsePair(std::string_view q1_text,
                                          std::string_view q2_text) const {
  BAGCQ_ASSIGN_OR_RETURN(cq::ConjunctiveQuery q1, cq::ParseQuery(q1_text));
  BAGCQ_ASSIGN_OR_RETURN(cq::ConjunctiveQuery q2,
                         cq::ParseQueryWithVocabulary(q2_text, q1.vocab()));
  // Q2 may use relations Q1 never mentions; parsing only ever APPENDS to
  // Q1's vocabulary, so adopting the extended one keeps Q1's relation
  // indices valid and gives the pair the shared vocabulary Decide requires.
  *q1.mutable_vocab() = q2.vocab();
  return QueryPair{std::move(q1), std::move(q2)};
}

EngineStats Engine::stats() const {
  EngineStats out = stats_;
  out.prover_constructions =
      provers_.constructions() + worker_stats_.prover_constructions;
  out.prover_cache_hits = provers_.hits() + worker_stats_.prover_cache_hits;
  const lp::SolverStats& ss = solver_.stats();
  out.lp_solves = ss.solves + worker_stats_.lp_solves;
  out.lp_warm_accepts = ss.warm_accepts + worker_stats_.lp_warm_accepts;
  out.lp_warm_pivots_saved =
      ss.warm_pivots_saved + worker_stats_.lp_warm_pivots_saved;
  out.lp_word_pivots = ss.word_pivots + worker_stats_.lp_word_pivots;
  out.lp_wide_pivots = ss.wide_pivots + worker_stats_.lp_wide_pivots;
  out.lp_bigint_promotions =
      ss.bigint_promotions + worker_stats_.lp_bigint_promotions;
  return out;
}

void Engine::ClearCache() {
  provers_.Clear();
  solver_.Reset();
  solver_.ResetStats();
  {
    util::MutexLock lock(&memo_mutex_);
    memo_.clear();
    memo_order_.clear();
  }
  // Note: the persistent decision store (if any) is deliberately NOT
  // cleared — it outlives sessions by design; drop records via the store's
  // own tooling (compaction, or deleting the log file).
  stats_ = EngineStats{};
  worker_stats_ = EngineStats{};
}

}  // namespace bagcq::api
