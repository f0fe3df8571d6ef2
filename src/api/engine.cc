#include "api/engine.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "api/decision_store.h"
#include "core/set_containment.h"
#include "wire/wire.h"

namespace bagcq::api {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The session counters a call reports in its CallStats, read before the
/// call so that WriteDeltaTo can write what the call added to them.
struct SessionSnapshot {
  int64_t prover_constructions = 0;
  lp::SolverStats solver_stats;

  static SessionSnapshot Of(const entropy::ProverCache& provers,
                            const lp::Solver& solver) {
    return {provers.constructions(), solver.stats()};
  }
  void WriteDeltaTo(const entropy::ProverCache& provers,
                    const lp::Solver& solver, CallStats* out) const {
    const lp::SolverStats& now = solver.stats();
    out->prover_cache_hit = provers.constructions() == prover_constructions;
    out->lp_warm_accepts = now.warm_accepts - solver_stats.warm_accepts;
    out->lp_warm_pivots_saved =
        now.warm_pivots_saved - solver_stats.warm_pivots_saved;
    out->lp_word_pivots = now.word_pivots - solver_stats.word_pivots;
    out->lp_bigint_promotions =
        now.bigint_promotions - solver_stats.bigint_promotions;
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

/// One cold decision against the session's prover cache and solver.
/// `*elapsed_ms` is written on success and failure alike.
util::Result<DecisionResult> DecideOne(const cq::ConjunctiveQuery& q1,
                                       const cq::ConjunctiveQuery& q2,
                                       bool bag_bag,
                                       const core::DeciderOptions& options,
                                       entropy::ProverCache* provers,
                                       lp::Solver* solver,
                                       double* elapsed_ms) {
  const auto start = Clock::now();
  const SessionSnapshot before = SessionSnapshot::Of(*provers, *solver);
  core::DeciderContext context{provers, solver};
  auto decision =
      bag_bag
          ? core::DecideBagBagContainmentWithContext(q1, q2, options, context)
          : core::DecideBagContainmentWithContext(q1, q2, options, context);
  *elapsed_ms = MsSince(start);
  if (!decision.ok()) return decision.status();
  DecisionResult result = FromDecision(std::move(decision).ValueOrDie());
  result.stats.elapsed_ms = *elapsed_ms;
  before.WriteDeltaTo(*provers, *solver, &result.stats);
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
    : options_(options), solver_(SolverOptionsFor(options)) {}

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
  std::vector<util::Result<DecisionResult>> out;
  out.reserve(pairs.size());
  for (const QueryPair& pair : pairs) {
    out.push_back(DecideImpl(pair.q1, pair.q2, /*bag_bag=*/false));
  }
  return out;
}

bool Engine::MemoLookup(const std::string& key, DecisionResult* out) const {
  auto it = memo_.find(key);
  if (it == memo_.end()) return false;
  *out = it->second;
  out->stats.memo_hit = true;
  return true;
}

void Engine::MemoInsert(const std::string& key, const DecisionResult& result) {
  const size_t cap = options_.memo_max_entries();
  if (cap == 0) return;
  if (!memo_.emplace(key, result).second) return;  // already there
  memo_order_.push_back(key);
  while (memo_.size() > cap) {  // FIFO eviction at the cap
    memo_.erase(memo_order_.front());
    memo_order_.pop_front();
  }
}

util::Result<DecisionResult> Engine::DecideImpl(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    bool bag_bag) {
  ++stats_.decisions;
  DecisionStore* store = options_.decision_store();
  std::string key;
  if (options_.memoize_decisions() || store != nullptr) {
    key = MemoKey(q1, q2, bag_bag);
  }
  if (options_.memoize_decisions()) {
    DecisionResult memoized;
    if (MemoLookup(key, &memoized)) {
      ++stats_.decision_memo_hits;
      return memoized;
    }
  }
  if (store != nullptr) {
    // The persistent tier: a hit was decoded, checksummed, and (for
    // certificate-carrying results) re-verified by the store's load policy,
    // so it is as trustworthy as a fresh solve — warm the memo with it.
    DecisionResult stored;
    if (store->Lookup(key, &stored)) {
      ++stats_.store_hits;
      stored.stats.store_hit = true;
      if (options_.memoize_decisions()) MemoInsert(key, stored);
      return stored;
    }
    ++stats_.store_misses;
  }
  double elapsed_ms = 0.0;
  auto result = DecideOne(q1, q2, bag_bag, options_.ToDeciderOptions(),
                          &provers_, &solver_, &elapsed_ms);
  stats_.total_ms += elapsed_ms;
  if (!result.ok()) {
    ++stats_.errors;
    return result;
  }
  stats_.lp_pivots += result->stats.lp_pivots;
  if (options_.memoize_decisions()) MemoInsert(key, *result);
  if (store != nullptr) {
    switch (store->Put(key, *result)) {
      case StorePutOutcome::kAppended:
        ++stats_.store_appends;
        break;
      case StorePutOutcome::kRejected:
        ++stats_.store_rejects;
        break;
      case StorePutOutcome::kDuplicate:
        break;  // another engine stored the key first; its record stands
    }
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
  const SessionSnapshot before = SessionSnapshot::Of(provers_, solver_);
  const entropy::ShannonProver& prover = provers_.Get(e.num_vars());
  entropy::IIResult ii = prover.Prove(e, &solver_);

  ProofResult result;
  result.valid = ii.valid;
  result.certificate = std::move(ii.certificate);
  result.counterexample = std::move(ii.counterexample);
  result.violation = ii.violation;
  result.stats.lp_pivots = ii.lp_pivots;
  result.stats.elapsed_ms = MsSince(start);
  before.WriteDeltaTo(provers_, solver_, &result.stats);
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
  const SessionSnapshot before = SessionSnapshot::Of(provers_, solver_);
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
  before.WriteDeltaTo(provers_, solver_, &result.stats);
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
  out.prover_constructions = provers_.constructions();
  out.prover_cache_hits = provers_.hits();
  const lp::SolverStats& ss = solver_.stats();
  out.lp_solves = ss.solves;
  out.lp_warm_accepts = ss.warm_accepts;
  out.lp_warm_pivots_saved = ss.warm_pivots_saved;
  out.lp_word_pivots = ss.word_pivots;
  out.lp_bigint_promotions = ss.bigint_promotions;
  return out;
}

void Engine::ClearCache() {
  provers_.Clear();
  solver_.Reset();
  solver_.ResetStats();
  memo_.clear();
  memo_order_.clear();
  // Note: the persistent decision store (if any) is deliberately NOT
  // cleared — it outlives sessions by design; drop records via the store's
  // own tooling (compaction, or deleting the log file).
  stats_ = EngineStats{};
}

}  // namespace bagcq::api
