// perfbench_driver — the measuring half of the repository benchmark (see
// README.md beside this file). run.py builds it and runs it once per
// benchmark run; it prints one JSON object of raw measurements that run.py
// turns into metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S
//                    [--trace] [--server PATH] [--socket PATH]
//                    [--spans PATH] [--digest-only]
//
// Only public surfaces are driven: service::Service::HandleBytes in process,
// a live bagcq_server over a Unix socket when served, and — in a traced run —
// the decider's stage functions, called one by one from this file in the
// order core::DecideBagContainmentWithContext calls them.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/containment_inequality.h"
#include "core/decider.h"
#include "core/witness.h"
#include "cq/homomorphism.h"
#include "cq/transforms.h"
#include "cq/workload.h"
#include "entropy/max_ii.h"
#include "lp/solver.h"
#include "service/message.h"
#include "service/service.h"
#include "service/transport.h"
#include "wire/wire.h"

extern char** environ;

using namespace bagcq;

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------- workloads

/// One class of generated pair: the construction the generator used and
/// Q2's variable count. A corpus holds each class in a fixed proportion, so
/// two seeds differ in which pairs they draw but not in their mix — with
/// classes whose costs differ 100x, a drawn mix would move p50 and p99
/// between classes from seed to seed.
enum class Kind { kContained, kPower, kMismatch };

struct Stratum {
  Kind kind;
  int vars;
  int weight;
};

struct Workload {
  const char* name;
  cq::ShapeRegime regime;
  std::vector<Stratum> strata;
  /// In process: the distinct pairs decided in every round.
  size_t pairs;
  bool served;
};

// Why each exists is in README.md. Power-gadget refutations stop at 3
// variables in Q2: at 4-5 one pair can verify its witness by enumerating
// ~10^8 homomorphisms (33-39 s), and would decide a whole run on its own.
const Workload kWorkloads[] = {
    {"acyclic5",
     cq::ShapeRegime::kAcyclic,
     {{Kind::kMismatch, 2, 1},
      {Kind::kContained, 3, 1},
      {Kind::kContained, 4, 1},
      {Kind::kContained, 5, 1},
      {Kind::kPower, 2, 1},
      {Kind::kPower, 3, 1}},
     4200,
     false},
    {"contained6",
     cq::ShapeRegime::kAcyclic,
     {{Kind::kContained, 2, 1},
      {Kind::kContained, 3, 1},
      {Kind::kContained, 4, 1},
      {Kind::kContained, 5, 1},
      {Kind::kContained, 6, 1}},
     2000,
     false},
    {"cyclic5",
     cq::ShapeRegime::kCyclic,
     {{Kind::kMismatch, 3, 1},
      {Kind::kContained, 3, 1},
      {Kind::kContained, 4, 1},
      {Kind::kContained, 5, 1},
      {Kind::kPower, 3, 1},
      {Kind::kPower, 4, 1},
      {Kind::kPower, 5, 1}},
     2100,
     false},
    {"served_repeat",
     cq::ShapeRegime::kAcyclic,
     {{Kind::kMismatch, 2, 1},
      {Kind::kContained, 2, 1},
      {Kind::kContained, 3, 1},
      {Kind::kContained, 4, 1},
      {Kind::kPower, 2, 1},
      {Kind::kPower, 3, 1}},
     0,
     true},
};

// In process the corpus is decided in whole rounds until --seconds pass
// (at least kMinRounds, at most kMaxRunSeconds); each pair's latency is its
// median over the rounds and the throughput is that of the median round.
// Served, each request is a first sighting with probability
// kFirstSightingPercent and otherwise repeats a uniformly drawn earlier pair;
// throughput is the median over kWindowMs windows.
//
// The speed of a shared host drifts up to 2x over seconds to minutes. A
// fixed probe slice (HostProbe) runs every kProbeEveryMs beside the
// workload, and every timing is reported twice: as measured, and scaled to
// the host speed at which the probe takes kProbeNominalMs.
constexpr int kMinRounds = 3;
// Set-up is short and noisy, so it is repeated and the median reported.
constexpr int kSetupReps = 9;
constexpr double kProbeEveryMs = 50.0;
constexpr double kProbeWindowMs = 250.0;
constexpr double kProbeNominalMs = 0.4;
constexpr double kMaxRunSeconds = 90.0;
constexpr size_t kServedRequests = 400000;
constexpr uint64_t kFirstSightingPercent = 10;
constexpr int kServedConnections = 2;
constexpr const char* kServerEngineThreads = "2";
constexpr double kWindowMs = 1000.0;
// The server's memo grows with every first sighting, so its peak RSS is read
// after a fixed number of requests rather than after a fixed time.
constexpr size_t kServedRssAtRequest = 60000;

/// splitmix64, seeded apart from the generator's own stream.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed ^ 0x5eedbe9c4a11ce55ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct Corpus {
  /// Distinct generated pairs and their encoded DecideRequests.
  std::vector<cq::GeneratedPair> pairs;
  std::vector<std::string> requests;
  /// The order requests are sent in: indices into `pairs`.
  std::vector<uint32_t> sequence;
  uint64_t digest = 0;
};

/// The seeded pair stream of one stratum.
class StratumSource {
 public:
  StratumSource(const Workload& workload, const Stratum& stratum,
                uint64_t seed)
      : kind_(stratum.kind), generator_(Options(workload, stratum, seed)) {}

  cq::GeneratedPair Next() {
    while (true) {
      cq::GeneratedPair pair = generator_.Next();
      const bool power = pair.pair.q1.num_vars() == 2 * pair.pair.q2.num_vars();
      if (kind_ == Kind::kContained || power == (kind_ == Kind::kPower)) {
        return pair;
      }
    }
  }

 private:
  static cq::WorkloadOptions Options(const Workload& workload,
                                     const Stratum& stratum, uint64_t seed) {
    cq::WorkloadOptions options;
    options.seed = seed;
    options.regime = workload.regime;
    options.min_vars = stratum.vars;
    options.max_vars = stratum.vars;
    options.contained_fraction = stratum.kind == Kind::kContained ? 1.0 : 0.0;
    return options;
  }

  Kind kind_;
  cq::WorkloadGenerator generator_;
};

/// Draws pairs so that every run of Σweight consecutive draws holds each
/// stratum exactly `weight` times, in a seeded order.
class StratifiedSource {
 public:
  StratifiedSource(const Workload& workload, uint64_t seed) : rng_(seed) {
    for (size_t i = 0; i < workload.strata.size(); ++i) {
      const Stratum& stratum = workload.strata[i];
      sources_.emplace_back(workload, stratum,
                            seed * 0x100000001b3ULL + i + 1);
      deck_.insert(deck_.end(), stratum.weight, i);
    }
    next_ = deck_.size();
  }

  cq::GeneratedPair Next() {
    if (next_ == deck_.size()) {
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
      next_ = 0;
    }
    const size_t stratum = deck_[next_++];
    return sources_[stratum].Next();
  }

 private:
  std::vector<StratumSource> sources_;
  std::vector<size_t> deck_;
  size_t next_ = 0;
  SplitMix rng_;
};

Corpus MakeCorpus(const Workload& workload, uint64_t seed) {
  StratifiedSource source(workload, seed);
  Corpus corpus;
  if (!workload.served) {
    for (uint32_t i = 0; i < workload.pairs; ++i) {
      corpus.pairs.push_back(source.Next());
      corpus.sequence.push_back(i);
    }
  } else {
    SplitMix rng(~seed);
    corpus.sequence.reserve(kServedRequests);
    for (size_t i = 0; i < kServedRequests; ++i) {
      if (corpus.pairs.empty() || rng.Below(100) < kFirstSightingPercent) {
        corpus.pairs.push_back(source.Next());
        corpus.sequence.push_back(
            static_cast<uint32_t>(corpus.pairs.size() - 1));
      } else {
        corpus.sequence.push_back(
            static_cast<uint32_t>(rng.Below(corpus.pairs.size())));
      }
    }
  }
  uint64_t digest = 0xcbf29ce484222325ULL;
  corpus.requests.reserve(corpus.pairs.size());
  for (const cq::GeneratedPair& pair : corpus.pairs) {
    corpus.requests.push_back(
        service::EncodeRequest(service::DecideRequest{pair.pair}));
    digest = Fnv1a(digest, corpus.requests.back());
  }
  for (uint32_t index : corpus.sequence) {
    digest = Fnv1a(digest, std::string_view(
                               reinterpret_cast<const char*>(&index), 4));
  }
  corpus.digest = digest;
  return corpus;
}

// ------------------------------------------------------------- replies

struct Outcome {
  bool ok = false;
  core::Verdict verdict = core::Verdict::kUnknown;
  bool memo_hit = false;
};

Outcome OutcomeOf(const service::Response& response) {
  Outcome out;
  const auto* decision = std::get_if<service::DecisionResponse>(&response);
  if (decision == nullptr || !decision->status.ok() ||
      !decision->result.has_value()) {
    return out;
  }
  out.ok = true;
  out.verdict = decision->result->verdict;
  out.memo_hit = decision->result->stats.memo_hit;
  return out;
}

Outcome ParseReply(std::string_view bytes) {
  auto response = service::DecodeResponse(bytes);
  if (!response.ok()) return {};
  return OutcomeOf(*response);
}

double ReadVmHwmMib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Correctness findings; any entry makes the run fail.
struct Problems {
  std::vector<std::string> items;
  size_t count = 0;
  void Add(std::string what) {
    if (items.size() < 20) items.push_back(std::move(what));
    ++count;
  }
};

/// What one timed pass measured. In process `sent` holds one round (the
/// verdicts of the later rounds are checked as they arrive, not kept).
struct Pass {
  std::vector<uint32_t> sent;       // pair index of each reported request
  std::vector<Outcome> outcomes;    // per reported request
  /// Per reported request, and decisions per second per round (in
  /// process) or window (served); each as measured and at nominal speed.
  std::vector<double> latency_ms, scaled_latency_ms;
  std::vector<double> rates, scaled_rates;
  /// Served: the window each reported request completed in.
  std::vector<int> window;
  double latency_total_ms = 0.0;  // every timed request, as measured
  double probe_ms = 0.0;          // median host probe time
  size_t attempted = 0;
  size_t failed = 0;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0 : (values[(n - 1) / 2] + values[n / 2]) / 2;
}

/// A fixed slice of CPU, cache and allocator work that touches nothing of
/// the library: its time tracks how fast the shared host runs right now.
class HostProbe {
 public:
  HostProbe() : table_(1 << 16, 1), origin_(Clock::now()) {}

  /// Runs the slice if kProbeEveryMs passed since the last one.
  void MaybeRun() {
    if (samples_.empty() ||
        MsBetween(origin_, Clock::now()) - samples_.back().at_ms >
            kProbeEveryMs) {
      Run();
    }
  }
  void Run() {
    const double at_ms = MsBetween(origin_, Clock::now());
    samples_.push_back({at_ms, Slice()});
  }
  double NowMs() const { return MsBetween(origin_, Clock::now()); }

  /// The factor that scales a time measured at `at_ms` to the nominal host
  /// speed: kProbeNominalMs over the median probe within kProbeWindowMs
  /// (or the nearest probe, if none is that close).
  double ScaleAt(double at_ms) const {
    std::vector<double> near;
    const Sample* nearest = nullptr;
    for (const Sample& sample : samples_) {
      const double gap = std::abs(sample.at_ms - at_ms);
      if (gap <= kProbeWindowMs) near.push_back(sample.ms);
      if (nearest == nullptr || gap < std::abs(nearest->at_ms - at_ms)) {
        nearest = &sample;
      }
    }
    if (near.empty()) near.push_back(nearest != nullptr ? nearest->ms : 1.0);
    return kProbeNominalMs / Median(std::move(near));
  }
  double MedianMs() const {
    std::vector<double> all;
    for (const Sample& sample : samples_) all.push_back(sample.ms);
    return Median(std::move(all));
  }

 private:
  struct Sample {
    double at_ms;
    double ms;
  };
  double Slice() {
    const auto start = Clock::now();
    uint64_t x = state_;
    for (int i = 0; i < 60000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & (table_.size() - 1)] += x;
      if ((i & 63) == 0) {
        std::vector<uint64_t> scratch(8 + (x & 15), x);
        sink_ += scratch.back();
      }
    }
    state_ = x;
    return MsBetween(start, Clock::now());
  }

  std::vector<uint64_t> table_;
  uint64_t state_ = 88172645463325252ULL;
  uint64_t sink_ = 0;
  Clock::time_point origin_;
  std::vector<Sample> samples_;
};

// ------------------------------------------------------------- tracing

enum Stage : uint8_t {
  kDecide,
  kDecode,
  kKey,
  kHandle,
  kEncode,
  kReduce,
  kAnalyze,
  kHom,
  kEq8,
  kNnLp,
  kGammaLp,
  kWitnessBuild,
  kWitnessCount,
  kNumStages,
};

constexpr const char* kStageNames[kNumStages] = {
    "decide",          "wire.decode",      "wire.key",
    "api.handle",      "wire.encode",      "cq.reduce",
    "core.analyze",    "cq.hom",           "core.eq8",
    "entropy.nn_lp",   "entropy.gamma_lp", "core.witness_build",
    "cq.witness_count",
};

/// One span per stage call: spans of one request share `id`, and each
/// stage span's parent is that request's `decide` span. Kept in memory and
/// written out when the run ends.
struct Span {
  uint32_t id;
  Stage stage;
  int32_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void BeginRequest(uint32_t id) {
    id_ = id;
    decide_ = Open(kDecide);
  }
  void EndRequest() {
    Close(decide_);
    decide_ = -1;
  }
  int32_t Open(Stage stage) {
    spans_.push_back({id_, stage, decide_, Now(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void Close(int32_t index) { spans_[index].end_ns = Now(); }


  /// Self time per stage: a span's duration minus its direct children's.
  std::vector<double> SelfMs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::vector<double> self(kNumStages, 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      self[s.stage] += (s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id,span,name,parent,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%u,%zu,%s,%d,%" PRId64 ",%" PRId64 "\n", s.id, i,
                   kStageNames[s.stage], s.parent, s.start_ns, s.end_ns);
    }
    return std::fclose(out) == 0;
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  uint32_t id_ = 0;
  int32_t decide_ = -1;
};

class Scope {
 public:
  Scope(Tracer* tracer, Stage stage)
      : tracer_(tracer), index_(tracer->Open(stage)) {}
  ~Scope() { tracer_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

struct ReplayCounts {
  int64_t homs = 0;
  int64_t branches = 0;
  int64_t witnesses = 0;
  int64_t witness_too_large = 0;
  int64_t witness_db_tuples = 0;
};

/// Counts hom(Q1,D) and hom(Q2,D) on a witness database; the witness is
/// sound only if the first exceeds the second.
bool CountWitness(Tracer* tracer, const cq::ConjunctiveQuery& q1,
                  const cq::ConjunctiveQuery& q2, const cq::Structure& db,
                  ReplayCounts* counts) {
  Scope scope(tracer, kWitnessCount);
  ++counts->witnesses;
  counts->witness_db_tuples += db.TotalTuples();
  return cq::CountHomomorphisms(q1, db) > cq::CountHomomorphisms(q2, db);
}

/// Re-runs one decision stage by stage, with witnesses built unverified
/// and their counts checked as a stage of their own. Returns the verdict,
/// or nothing when a stage fails.
std::optional<core::Verdict> ReplayStages(const api::QueryPair& pair,
                                          const core::WitnessOptions& limits,
                                          api::Engine* engine,
                                          lp::Solver* solver, Tracer* tracer,
                                          ReplayCounts* counts) {
  using core::Verdict;
  using entropy::ConeKind;
  cq::ConjunctiveQuery q1{cq::Vocabulary()};
  cq::ConjunctiveQuery q2{cq::Vocabulary()};
  {
    Scope scope(tracer, kReduce);
    q1 = cq::RemoveDuplicateAtoms(pair.q1);
    q2 = cq::RemoveDuplicateAtoms(pair.q2);
    if (!q1.IsBoolean()) {
      auto boolean = cq::MakeBooleanPair(q1, q2);
      q1 = std::move(boolean.first);
      q2 = std::move(boolean.second);
    }
  }
  core::Q2Analysis analysis;
  {
    Scope scope(tracer, kAnalyze);
    analysis = core::AnalyzeQ2(q2);
  }
  size_t homs = 0;
  {
    Scope scope(tracer, kHom);
    homs = cq::QueryHomomorphisms(q2, q1).size();
  }
  counts->homs += static_cast<int64_t>(homs);
  if (homs == 0) {
    cq::Structure db{cq::Vocabulary()};
    {
      Scope scope(tracer, kWitnessBuild);
      entropy::Relation identity(q1.num_vars());
      entropy::Relation::Tuple tuple(q1.num_vars());
      for (int v = 0; v < q1.num_vars(); ++v) tuple[v] = v;
      identity.AddTuple(std::move(tuple));
      db = core::InduceDatabase(q1, identity);
    }
    if (!CountWitness(tracer, q1, q2, db, counts)) return std::nullopt;
    return Verdict::kNotContained;
  }

  std::optional<core::ContainmentInequality> inequality;
  {
    Scope scope(tracer, kEq8);
    auto built = core::BuildContainmentInequality(q1, q2);
    if (!built.ok()) return std::nullopt;
    inequality = std::move(built).ValueOrDie();
  }
  counts->branches += static_cast<int64_t>(inequality->branches.size());
  const int n = q1.num_vars();
  const bool necessity_applies =
      analysis.decidable() ||
      (analysis.acyclic && !inequality->branches.empty());
  const bool totally_disconnected =
      inequality->decomposition.IsTotallyDisconnected();

  entropy::MaxIIResult over_normal;
  {
    Scope scope(tracer, kNnLp);
    over_normal = entropy::MaxIIOracle(n,
                                       totally_disconnected
                                           ? ConeKind::kModular
                                           : ConeKind::kNormal,
                                       /*prover=*/nullptr, solver)
                      .Check(inequality->branches);
  }
  if (!over_normal.valid) {
    if (!necessity_applies) return Verdict::kUnknown;
    core::WitnessOptions build_only = limits;
    build_only.verify_counts = false;
    std::optional<util::Result<core::Witness>> witness;
    {
      Scope scope(tracer, kWitnessBuild);
      witness = core::BuildWitnessFromNormal(
          q1, q2, *inequality, *over_normal.counterexample, build_only);
    }
    if (!witness->ok()) {
      ++counts->witness_too_large;
    } else if (limits.verify_counts &&
               !CountWitness(tracer, q1, q2, (*witness)->database, counts)) {
      return std::nullopt;
    }
    return Verdict::kNotContained;
  }

  const bool settled_by_normal = inequality->simple && analysis.decidable();
  // Settled by Nn, the Γn LP only extracts the Shannon certificate.
  entropy::MaxIIResult over_gamma;
  {
    Scope scope(tracer, kGammaLp);
    over_gamma = entropy::MaxIIOracle(n, ConeKind::kPolymatroid,
                                      &engine->prover(n), solver)
                     .Check(inequality->branches);
  }
  if (settled_by_normal) {
    return over_gamma.valid ? std::optional<Verdict>(Verdict::kContained)
                            : std::nullopt;
  }
  return over_gamma.valid ? Verdict::kContained : Verdict::kUnknown;
}

struct TraceResult {
  std::vector<double> self_ms;
  ReplayCounts counts;
  double traced_wall_ms = 0.0;
};

/// Replays every request of `pass` through DecodeRequest, CanonicalPairKey,
/// Service::Handle and EncodeResponse, then — for each reply that was not a
/// memo hit — through the stage functions, checking both verdicts against
/// the untraced reply.
TraceResult RunTraced(const Corpus& corpus, const Pass& pass,
                      service::Service* service, const std::string& spans_path,
                      Problems* problems) {
  lp::ExactSolver solver;
  const core::WitnessOptions limits =
      service->engine().options().ToDeciderOptions().witness;
  Tracer tracer;
  TraceResult result;
  const auto start = Clock::now();
  for (size_t k = 0; k < pass.sent.size(); ++k) {
    const uint32_t index = pass.sent[k];
    tracer.BeginRequest(static_cast<uint32_t>(k));
    std::optional<util::Result<service::Request>> request;
    {
      Scope scope(&tracer, kDecode);
      request = service::DecodeRequest(corpus.requests[index]);
    }
    if (!request->ok()) {
      problems->Add("request does not decode: pair " + std::to_string(index));
      tracer.EndRequest();
      continue;
    }
    const api::QueryPair& pair =
        std::get<service::DecideRequest>(**request).pair;
    {
      Scope scope(&tracer, kKey);
      static_cast<void>(wire::CanonicalPairKey(pair.q1, pair.q2, false));
    }
    std::optional<service::Response> response;
    {
      Scope scope(&tracer, kHandle);
      response = service->Handle(**request);
    }
    {
      Scope scope(&tracer, kEncode);
      if (service::EncodeResponse(*response).empty()) {
        problems->Add("empty encoded reply");
      }
    }
    const Outcome traced = OutcomeOf(*response);
    const Outcome& untraced = pass.outcomes[k];
    if (untraced.ok && (!traced.ok || traced.verdict != untraced.verdict)) {
      problems->Add("traced reply differs from untraced reply on pair " +
                    std::to_string(index));
    }
    if (traced.ok && !traced.memo_hit) {
      auto replayed = ReplayStages(pair, limits, &service->engine(), &solver,
                                   &tracer, &result.counts);
      if (!replayed.has_value() || *replayed != traced.verdict) {
        problems->Add("stage replay verdict differs on pair " +
                      std::to_string(index));
      }
    }
    tracer.EndRequest();
  }
  result.traced_wall_ms = MsBetween(start, Clock::now());
  result.self_ms = tracer.SelfMs();
  if (!spans_path.empty() && !tracer.Write(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  return result;
}

// ------------------------------------------------------------- in process

/// The in-process decider of every workload: one Service, memo off (the
/// default), with the Γn skeletons of the corpus's variable range built
/// up front through Engine::prover.
struct InProcess {
  std::unique_ptr<service::Service> service;
  double skeleton_build_ms = 0.0;
};

InProcess MakeInProcess(const Workload& workload, bool memoize) {
  InProcess out;
  out.service = std::make_unique<service::Service>(
      api::EngineOptions().set_memoize_decisions(memoize));
  const auto start = Clock::now();
  for (const Stratum& stratum : workload.strata) {
    if (stratum.kind == Kind::kContained) {
      out.service->engine().prover(stratum.vars);
    }
  }
  out.skeleton_build_ms = MsBetween(start, Clock::now());
  return out;
}

void CheckExpected(const Corpus& corpus, uint32_t index, const Outcome& got,
                   Problems* problems) {
  const core::Verdict expected = corpus.pairs[index].expected;
  if (got.ok && expected != core::Verdict::kUnknown && got.verdict != expected) {
    problems->Add(std::string("pair ") + std::to_string(index) + ": verdict " +
                  core::VerdictToString(got.verdict) + ", constructed " +
                  core::VerdictToString(expected));
  }
}

Pass RunInProcess(const Corpus& corpus, service::Service* service,
                  double seconds, Problems* problems) {
  const size_t n = corpus.sequence.size();
  std::vector<std::vector<double>> raw(n), scaled(n);
  std::vector<double> done_at(n);
  Pass pass;
  pass.sent = corpus.sequence;
  pass.outcomes.resize(n);
  HostProbe probe;
  for (int round = 0;; ++round) {
    const double elapsed_ms = probe.NowMs();
    if ((round >= kMinRounds && elapsed_ms >= seconds * 1e3) ||
        elapsed_ms >= kMaxRunSeconds * 1e3) {
      break;
    }
    for (size_t k = 0; k < n; ++k) {
      probe.MaybeRun();
      const uint32_t index = corpus.sequence[k];
      const auto start = Clock::now();
      const std::string reply = service->HandleBytes(corpus.requests[index]);
      const double ms = MsBetween(start, Clock::now());
      done_at[k] = probe.NowMs();
      raw[k].push_back(ms);
      pass.latency_total_ms += ms;
      const Outcome outcome = ParseReply(reply);
      ++pass.attempted;
      if (!outcome.ok) ++pass.failed;
      if (round == 0) {
        CheckExpected(corpus, index, outcome, problems);
        pass.outcomes[k] = outcome;
      } else if (outcome.ok != pass.outcomes[k].ok ||
                 outcome.verdict != pass.outcomes[k].verdict) {
        problems->Add("verdict changed between rounds on pair " +
                      std::to_string(index));
      }
    }
    probe.Run();  // so the round's last requests have a probe after them
    double raw_ms = 0.0;
    double scaled_ms = 0.0;
    for (size_t k = 0; k < n; ++k) {
      raw_ms += raw[k].back();
      scaled[k].push_back(raw[k].back() * probe.ScaleAt(done_at[k]));
      scaled_ms += scaled[k].back();
    }
    pass.rates.push_back(static_cast<double>(n) / (raw_ms / 1e3));
    pass.scaled_rates.push_back(static_cast<double>(n) / (scaled_ms / 1e3));
  }
  for (size_t k = 0; k < n; ++k) {
    pass.latency_ms.push_back(Median(std::move(raw[k])));
    pass.scaled_latency_ms.push_back(Median(std::move(scaled[k])));
  }
  pass.probe_ms = probe.MedianMs();
  return pass;
}

// ------------------------------------------------------------- served

/// A bagcq_server child process, launched and read up to its listening line.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  util::Status Launch(const std::string& binary, const std::string& socket) {
    int fds[2];
    if (pipe(fds) != 0) return util::Status::Internal("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {binary, "--socket", socket,
                                     "--engine-threads", kServerEngineThreads};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    stdout_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      return util::Status::Internal("cannot launch " + binary);
    }
    // The server prints its listening line once the socket is bound.
    std::string text;
    const auto start = Clock::now();
    while (text.find("listening") == std::string::npos ||
           text.find('\n') == std::string::npos) {
      const double left = 30e3 - MsBetween(start, Clock::now());
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (left <= 0 || poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        return util::Status::Internal("server did not start listening");
      }
      char buffer[256];
      const ssize_t got = read(stdout_fd_, buffer, sizeof buffer);
      if (got <= 0) return util::Status::Internal("server exited at start");
      text.append(buffer, static_cast<size_t>(got));
    }
    return util::Status::OK();
  }

  std::string pid() const { return std::to_string(pid_); }

  /// SIGTERM (graceful drain), then waits up to 30 s for the exit code.
  /// Returns the exit status, or -1 when the server had to be killed.
  int Terminate() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    const auto start = Clock::now();
    int status = 0;
    while (MsBetween(start, Clock::now()) < 30e3) {
      const pid_t done = waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        CloseStdout();
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Kill();
    return -1;
  }

 private:
  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    CloseStdout();
  }
  void CloseStdout() {
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
  }

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// kServedConnections closed-loop clients, one request outstanding each,
/// drawing the next request of the shared sequence until `seconds` pass.
Pass RunServed(const Corpus& corpus, const std::string& socket,
               const std::string& server_pid, double seconds,
               double* peak_rss_mib) {
  struct Client {
    Pass pass;
    std::vector<double> done_ms;  // completion time of each request
  };
  HostProbe probe;
  std::vector<Client> clients(kServedConnections);
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  auto run = [&](Client* client) {
    auto dialed = service::DialUnix(socket);
    if (!dialed.ok()) {
      ++client->pass.failed;
      return;
    }
    int fd = *dialed;
    std::string reply;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t k = next.fetch_add(1);
      if (k >= corpus.sequence.size()) break;
      if (k == kServedRssAtRequest) *peak_rss_mib = ReadVmHwmMib(server_pid);
      const uint32_t index = corpus.sequence[k];
      const auto start = Clock::now();
      bool eof = false;
      util::Status status = service::WriteFrame(fd, corpus.requests[index]);
      if (status.ok()) status = service::ReadFrame(fd, &reply, &eof);
      const double ms = MsBetween(start, Clock::now());
      Outcome outcome;
      if (status.ok() && !eof) outcome = ParseReply(reply);
      if (!outcome.ok) ++client->pass.failed;
      client->done_ms.push_back(probe.NowMs());
      client->pass.sent.push_back(index);
      client->pass.latency_ms.push_back(ms);
      client->pass.outcomes.push_back(outcome);
      if (!status.ok() || eof) {  // transport failure: one redial
        close(fd);
        auto again = service::DialUnix(socket);
        if (!again.ok()) return;
        fd = *again;
      }
    }
    close(fd);
  };
  std::vector<std::thread> threads;
  const double start_ms = probe.NowMs();
  for (Client& client : clients) threads.emplace_back(run, &client);
  // The probe shares the host with the clients and the server; it measures
  // their load too, which is the same from run to run.
  while (probe.NowMs() - start_ms < seconds * 1e3) {
    probe.Run();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(kProbeEveryMs));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  probe.Run();
  Pass pass;
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds * 1e3 / kWindowMs));
  std::vector<double> completions(windows, 0.0);
  for (Client& client : clients) {
    Pass& p = client.pass;
    for (size_t k = 0; k < p.sent.size(); ++k) {
      const double at_ms = client.done_ms[k];
      const size_t w = std::min(
          windows - 1, static_cast<size_t>((at_ms - start_ms) / kWindowMs));
      completions[w] += 1.0;
      pass.window.push_back(static_cast<int>(w));
      pass.scaled_latency_ms.push_back(p.latency_ms[k] * probe.ScaleAt(at_ms));
      pass.latency_total_ms += p.latency_ms[k];
    }
    pass.sent.insert(pass.sent.end(), p.sent.begin(), p.sent.end());
    pass.latency_ms.insert(pass.latency_ms.end(), p.latency_ms.begin(),
                           p.latency_ms.end());
    pass.outcomes.insert(pass.outcomes.end(), p.outcomes.begin(),
                         p.outcomes.end());
    pass.failed += p.failed;
  }
  for (size_t w = 0; w < windows; ++w) {
    const double rate = completions[w] / (kWindowMs / 1e3);
    pass.rates.push_back(rate);
    pass.scaled_rates.push_back(
        rate / probe.ScaleAt(start_ms + (w + 0.5) * kWindowMs));
  }
  pass.probe_ms = probe.MedianMs();
  pass.attempted = pass.sent.size();
  return pass;
}

util::Result<service::StatsResponse> FetchServerStats(
    const std::string& socket) {
  BAGCQ_ASSIGN_OR_RETURN(int fd, service::DialUnix(socket));
  std::string reply;
  bool eof = false;
  util::Status status = service::WriteFrame(
      fd, service::EncodeRequest(service::StatsRequest{}));
  if (status.ok()) status = service::ReadFrame(fd, &reply, &eof);
  close(fd);
  if (!status.ok()) return status;
  BAGCQ_ASSIGN_OR_RETURN(service::Response response,
                         service::DecodeResponse(reply));
  auto* stats = std::get_if<service::StatsResponse>(&response);
  if (stats == nullptr) return util::Status::Internal("no stats reply");
  return *stats;
}

// ------------------------------------------------------------- output

void PrintEngineStats(const api::EngineStats& s) {
  std::printf(
      "{\"decisions\":%" PRId64 ",\"prover_constructions\":%" PRId64 ",\"lp_solves\":%" PRId64
      ",\"lp_pivots\":%" PRId64 ",\"lp_word_pivots\":%" PRId64
      ",\"lp_wide_pivots\":%" PRId64 ",\"lp_bigint_promotions\":%" PRId64
      ",\"lp_warm_accepts\":%" PRId64 ",\"decision_memo_hits\":%" PRId64
      ",\"total_ms\":%.6f}",
      s.decisions, s.prover_constructions, s.lp_solves,
      s.lp_pivots, s.lp_word_pivots, s.lp_wide_pivots, s.lp_bigint_promotions,
      s.lp_warm_accepts, s.decision_memo_hits, s.total_ms);
}

void PrintDoubles(const std::vector<double>& values) {
  std::printf("[");
  for (size_t i = 0; i < values.size(); ++i) {
    std::printf(i == 0 ? "%.6f" : ",%.6f", values[i]);
  }
  std::printf("]");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S"
               " [--trace] [--server PATH] [--socket PATH] [--spans PATH]"
               " [--digest-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG) || defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimised or sanitized "
               "build\n");
  return 3;
#endif
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool digest_only = false;
  std::string server_binary;
  std::string socket_path;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--server" && i + 1 < argc) {
      server_binary = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--spans" && i + 1 < argc) {
      spans_path = argv[++i];
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--digest-only") {
      digest_only = true;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || (!digest_only && seconds <= 0)) return Usage();
  if (workload->served && !digest_only &&
      (server_binary.empty() || socket_path.empty())) {
    return Usage();
  }
  signal(SIGPIPE, SIG_IGN);

  if (digest_only) {
    const Corpus corpus = MakeCorpus(*workload, seed);
    std::printf("{\"digest\":\"%016" PRIx64 "\",\"requests\":%zu}\n",
                corpus.digest, corpus.sequence.size());
    return 0;
  }

  // Set-up, repeated: corpus generation and encoding, then the in-process
  // Service with its skeletons primed, or a launched server up to its
  // listening line. The last repetition is the one measured.
  std::vector<double> setup_s, scaled_setup_s;
  Corpus corpus;
  InProcess inproc;
  ServerProcess server;
  Problems problems;
  HostProbe setup_probe;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // bagcq_server installs its SIGTERM handler only after printing its
    // listening line, so a set-up server answers one request before it is
    // stopped.
    if (workload->served && rep > 0 &&
        (!FetchServerStats(socket_path).ok() || server.Terminate() != 0)) {
      problems.Add("server did not exit 0 on SIGTERM after set-up");
    }
    corpus = Corpus{};
    inproc = InProcess{};
    setup_probe.Run();
    const auto start = Clock::now();
    corpus = MakeCorpus(*workload, seed);
    if (workload->served) {
      const util::Status launched = server.Launch(server_binary, socket_path);
      if (!launched.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", launched.ToString().c_str());
        return 1;
      }
    } else {
      inproc = MakeInProcess(*workload, /*memoize=*/false);
    }
    const double ms = MsBetween(start, Clock::now());
    setup_probe.Run();
    setup_s.push_back(ms / 1e3);
    scaled_setup_s.push_back(ms / 1e3 *
                             setup_probe.ScaleAt(setup_probe.NowMs() - ms / 2));
  }

  Pass pass;
  api::EngineStats engine_stats;
  service::StatsResponse service_stats;
  double peak_rss_mib = 0.0;
  if (!workload->served) {
    pass = RunInProcess(corpus, inproc.service.get(), seconds, &problems);
    peak_rss_mib = ReadVmHwmMib("self");
    engine_stats = inproc.service->engine().stats();
    service_stats.stats = engine_stats;
  } else {
    pass = RunServed(corpus, socket_path, server.pid(), seconds,
                     &peak_rss_mib);
    auto fetched = FetchServerStats(socket_path);
    if (fetched.ok()) {
      service_stats = *fetched;
      engine_stats = service_stats.stats;
    } else {
      problems.Add("stats request failed: " + fetched.status().ToString());
    }
    if (pass.attempted <= kServedRssAtRequest) {
      peak_rss_mib = ReadVmHwmMib(server.pid());
    }
    const int exit_code = server.Terminate();
    if (exit_code != 0) problems.Add("server did not exit 0 on SIGTERM");
    if (service_stats.respawns != 0) problems.Add("server respawned workers");
    // Every served verdict must match an in-process cold decision of the
    // same pair (and, in the acyclic regime, the constructed verdict).
    inproc = MakeInProcess(*workload, /*memoize=*/false);
    std::vector<std::optional<Outcome>> reference(corpus.pairs.size());
    for (size_t k = 0; k < pass.sent.size(); ++k) {
      const uint32_t index = pass.sent[k];
      if (!reference[index].has_value()) {
        reference[index] =
            ParseReply(inproc.service->HandleBytes(corpus.requests[index]));
        CheckExpected(corpus, index, *reference[index], &problems);
      }
      const Outcome& served = pass.outcomes[k];
      if (served.ok && (!reference[index]->ok ||
                        reference[index]->verdict != served.verdict)) {
        problems.Add("served verdict differs from in-process on pair " +
                     std::to_string(index));
      }
    }
    if (trace) inproc = MakeInProcess(*workload, /*memoize=*/true);
  }

  std::optional<TraceResult> traced;
  if (trace) {
    traced = RunTraced(corpus, pass, inproc.service.get(), spans_path,
                       &problems);
  }

  size_t unknown = 0;
  size_t reported_ok = 0;
  for (const Outcome& o : pass.outcomes) {
    reported_ok += o.ok ? 1 : 0;
    unknown += (o.ok && o.verdict == core::Verdict::kUnknown) ? 1 : 0;
  }

  std::printf("{\"build\":{\"compiler\":%s,\"build_type\":%s,\"nproc\":%ld},",
              JsonString(std::string("gcc ") + __VERSION__).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("\"corpus\":{\"digest\":\"%016" PRIx64 "\"},", corpus.digest);
  const std::pair<const char*, const std::vector<double>*> series[] = {
      {"setup_s", &setup_s},
      {"scaled_setup_s", &scaled_setup_s},
      {"rates", &pass.rates},
      {"scaled_rates", &pass.scaled_rates},
      {"latency_ms", &pass.latency_ms},
      {"scaled_latency_ms", &pass.scaled_latency_ms},
  };
  for (const auto& [name, values] : series) {
    std::printf("\"%s\":", name);
    PrintDoubles(*values);
    std::printf(",");
  }
  std::printf("\"window\":[");
  for (size_t i = 0; i < pass.window.size(); ++i) {
    std::printf(i == 0 ? "%d" : ",%d", pass.window[i]);
  }
  std::printf("],");
  std::printf("\"attempted\":%zu,\"failed\":%zu,\"unknown\":%zu,"
              "\"reported_ok\":%zu,\"peak_rss_mib\":%.6f,"
              "\"skeleton_build_ms\":%.6f,\"probe_ms\":%.6f,"
              "\"latency_total_ms\":%.6f,",
              pass.attempted, pass.failed, unknown, reported_ok,
              peak_rss_mib, inproc.skeleton_build_ms, pass.probe_ms,
              pass.latency_total_ms);
  std::printf("\"engine\":");
  PrintEngineStats(engine_stats);
  int64_t queue_hwm = 0;
  for (int64_t depth : service_stats.queue_depth_hwm) {
    queue_hwm = std::max(queue_hwm, depth);
  }
  std::printf(",\"service\":{\"steals\":%" PRId64 ",\"queue_depth_hwm\":%" PRId64
              ",\"bytes_in\":%" PRId64 ",\"bytes_out\":%" PRId64 "},",
              service_stats.steals, queue_hwm, service_stats.bytes_in,
              service_stats.bytes_out);
  if (traced.has_value()) {
    std::printf("\"trace\":{\"stages_ms\":{");
    for (int s = 0; s < kNumStages; ++s) {
      std::printf(s == 0 ? "\"%s\":%.6f" : ",\"%s\":%.6f", kStageNames[s],
                  traced->self_ms[s]);
    }
    const ReplayCounts& c = traced->counts;
    std::printf("},\"homs\":%" PRId64 ",\"branches\":%" PRId64
                ",\"witnesses\":%" PRId64 ",\"witness_too_large\":%" PRId64
                ",\"witness_db_tuples\":%" PRId64
                ",\"traced_wall_ms\":%.6f},",
                c.homs, c.branches, c.witnesses, c.witness_too_large,
                c.witness_db_tuples, traced->traced_wall_ms);
  }
  std::printf("\"problems\":[");
  for (size_t i = 0; i < problems.items.size(); ++i) {
    std::printf(i == 0 ? "%s" : ",%s", JsonString(problems.items[i]).c_str());
  }
  std::printf("],\"problem_count\":%zu}\n", problems.count);
  return 0;
}
