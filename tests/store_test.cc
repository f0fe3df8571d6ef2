// The persistent proof store: record round-trips, cross-reopen persistence,
// the crash-safety guarantees (truncation at every offset and a byte flip in
// every checksummed field must recover the intact prefix and never crash —
// run under ASan/UBSan in CI like the wire corruption suites), the
// verify-on-load policy, admission bounds, compaction/export, and the
// Engine integration: a fresh session on a prior session's log serves warm
// with zero LP solves and byte-identical results.
#include "store/proof_store.h"

#include <fstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "store/crc32c.h"
#include "wire/wire.h"

namespace bagcq::store {
namespace {

std::string TempPath(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (dir.empty() || dir.back() != '/') dir += '/';
  const std::string path = dir + "bagcq_store_" + name + ".log";
  ::unlink(path.c_str());
  return path;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::unique_ptr<ProofStore> MustOpen(const std::string& path,
                                     const StoreOptions& options = {}) {
  return ProofStore::Open(path, options).ValueOrDie();
}

/// A real solved decision (certificate and all) plus its canonical key —
/// what the Engine would hand the store.
api::DecisionResult Solve(const char* q1_text, const char* q2_text,
                          std::string* key) {
  api::Engine engine;
  api::QueryPair pair = engine.ParsePair(q1_text, q2_text).ValueOrDie();
  if (key != nullptr) {
    *key = wire::CanonicalPairKey(pair.q1, pair.q2, /*bag_bag=*/false);
  }
  return engine.Decide(pair.q1, pair.q2).ValueOrDie();
}

std::string EncodeResult(const api::DecisionResult& result) {
  wire::Encoder e;
  wire::EncodeDecisionResult(result, &e);
  return e.Take();
}

/// Per-call stats are the one schedule-dependent field; zero them when
/// comparing results that crossed the store (which marks store_hit).
std::string EncodeNormalized(api::DecisionResult result) {
  result.stats = api::CallStats{};
  return EncodeResult(result);
}

// The corpus pairs (distinct structures, both verdict classes).
constexpr const char* kTriangle = "R(x1,x2), R(x2,x3), R(x3,x1)";
constexpr const char* kFork = "R(y1,y2), R(y1,y3)";
constexpr const char* kPath2 = "R(x,y), R(y,z)";
constexpr const char* kPath2B = "R(a,b), R(b,c)";

// ------------------------------------------------------------- round trips

TEST(ProofStoreTest, PutThenLookupRoundTripsTheResult) {
  const std::string path = TempPath("roundtrip");
  auto store = MustOpen(path);
  std::string key;
  const api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  ASSERT_TRUE(solved.validity.has_value());
  ASSERT_TRUE(solved.validity->certificate.has_value());

  EXPECT_EQ(store->Put(key, solved), api::StorePutOutcome::kAppended);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_TRUE(store->Contains(key));

  api::DecisionResult loaded;
  ASSERT_TRUE(store->Lookup(key, &loaded));
  EXPECT_EQ(EncodeResult(loaded), EncodeResult(solved));

  const StoreStats stats = store->stats();
  EXPECT_EQ(stats.appends, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 0);
}

TEST(ProofStoreTest, LookupOfAbsentKeyIsAMiss) {
  auto store = MustOpen(TempPath("miss"));
  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup("no-such-key", &out));
  EXPECT_EQ(store->stats().misses, 1);
}

TEST(ProofStoreTest, DuplicatePutLeavesTheFirstRecord) {
  auto store = MustOpen(TempPath("duplicate"));
  std::string key;
  const api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  EXPECT_EQ(store->Put(key, solved), api::StorePutOutcome::kAppended);
  EXPECT_EQ(store->Put(key, solved), api::StorePutOutcome::kDuplicate);
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(store->stats().appends, 1);
}

TEST(ProofStoreTest, RecordsSurviveReopen) {
  const std::string path = TempPath("reopen");
  std::string key1, key2;
  const api::DecisionResult r1 = Solve(kTriangle, kFork, &key1);
  const api::DecisionResult r2 = Solve(kPath2, kPath2B, &key2);
  {
    auto store = MustOpen(path);
    EXPECT_EQ(store->Put(key1, r1), api::StorePutOutcome::kAppended);
    EXPECT_EQ(store->Put(key2, r2), api::StorePutOutcome::kAppended);
  }
  auto reopened = MustOpen(path);
  EXPECT_EQ(reopened->size(), 2u);
  EXPECT_EQ(reopened->stats().records_loaded, 2);
  EXPECT_EQ(reopened->stats().bytes_recovered, 0);
  api::DecisionResult loaded;
  ASSERT_TRUE(reopened->Lookup(key1, &loaded));
  EXPECT_EQ(EncodeResult(loaded), EncodeResult(r1));
  ASSERT_TRUE(reopened->Lookup(key2, &loaded));
  EXPECT_EQ(EncodeResult(loaded), EncodeResult(r2));
}

TEST(ProofStoreTest, AdmissionBoundRejectsOversizedResults) {
  StoreOptions options;
  options.max_payload_bytes = 8;  // nothing real encodes this small
  auto store = MustOpen(TempPath("admission"), options);
  std::string key;
  const api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  EXPECT_EQ(store->Put(key, solved), api::StorePutOutcome::kRejected);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().rejects, 1);
  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup(key, &out));
}

// ------------------------------------------------------------ crash safety

/// Two records; returns the file offset where the second one starts.
size_t WriteTwoRecordLog(const std::string& path, std::string* key1,
                         std::string* key2) {
  const api::DecisionResult r1 = Solve(kTriangle, kFork, key1);
  const api::DecisionResult r2 = Solve(kPath2, kPath2B, key2);
  auto store = MustOpen(path);
  EXPECT_EQ(store->Put(*key1, r1), api::StorePutOutcome::kAppended);
  const size_t second_record_at = ReadFileBytes(path).size();
  EXPECT_EQ(store->Put(*key2, r2), api::StorePutOutcome::kAppended);
  return second_record_at;
}

TEST(ProofStoreCrashTest, TruncationAtEveryOffsetRecoversTheIntactPrefix) {
  const std::string path = TempPath("trunc_src");
  std::string key1, key2;
  const size_t second_at = WriteTwoRecordLog(path, &key1, &key2);
  const std::string full = ReadFileBytes(path);
  ASSERT_GT(second_at, 8u);
  ASSERT_GT(full.size(), second_at);

  const std::string torn = TempPath("trunc_torn");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileBytes(torn, full.substr(0, cut));
    auto store = MustOpen(torn);  // repair on: the parent/CLI path
    const size_t expected = cut >= second_at ? 1u : 0u;
    ASSERT_EQ(store->size(), expected) << "cut at " << cut;
    if (expected == 1u) {
      api::DecisionResult out;
      EXPECT_TRUE(store->Lookup(key1, &out)) << "cut at " << cut;
      EXPECT_FALSE(store->Contains(key2)) << "cut at " << cut;
    }
    // Repair truncated the tail: the file must now be cleanly appendable,
    // and a reopen must see exactly the recovered records — no re-damage.
    auto reopened = MustOpen(torn);
    EXPECT_EQ(reopened->size(), expected) << "cut at " << cut;
    EXPECT_EQ(reopened->stats().bytes_recovered, 0) << "cut at " << cut;
  }
}

TEST(ProofStoreCrashTest, ByteFlipAnywhereInFinalRecordDropsOnlyIt) {
  const std::string path = TempPath("flip_src");
  std::string key1, key2;
  const size_t second_at = WriteTwoRecordLog(path, &key1, &key2);
  const std::string full = ReadFileBytes(path);

  const std::string flipped = TempPath("flip_dst");
  StoreOptions no_repair;
  no_repair.repair = false;  // also exercises the worker-mode open
  for (size_t at = second_at; at < full.size(); ++at) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0xFF);
    WriteFileBytes(flipped, damaged);
    auto store = MustOpen(flipped, no_repair);
    ASSERT_EQ(store->size(), 1u) << "flip at " << at;
    EXPECT_TRUE(store->Contains(key1)) << "flip at " << at;
    EXPECT_FALSE(store->Contains(key2)) << "flip at " << at;
    EXPECT_GT(store->stats().bytes_recovered, 0) << "flip at " << at;
    // Without repair the file is untouched — damage stays on disk.
    EXPECT_EQ(ReadFileBytes(flipped), damaged) << "flip at " << at;
  }
}

TEST(ProofStoreCrashTest, ByteFlipInAnEarlierRecordStopsTheScanThere) {
  const std::string path = TempPath("flip_first");
  std::string key1, key2;
  const size_t second_at = WriteTwoRecordLog(path, &key1, &key2);
  const std::string full = ReadFileBytes(path);

  // Flip one payload byte of record 1 (past the 16-byte record header): the
  // scan must stop there, dropping BOTH records — everything after the
  // damage is unreachable without repair-by-hand, by design.
  std::string damaged = full;
  const size_t at = 8 + 16 + (second_at - (8 + 16)) / 2;
  damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
  WriteFileBytes(path, damaged);
  auto store = MustOpen(path);
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().bytes_recovered,
            static_cast<int64_t>(full.size() - 8));
}

TEST(ProofStoreCrashTest, UnrecognizableHeaderServesEmptyAndRepairResets) {
  const std::string path = TempPath("bad_header");
  std::string key1, key2;
  WriteTwoRecordLog(path, &key1, &key2);
  std::string damaged = ReadFileBytes(path);
  damaged[0] = 'X';
  WriteFileBytes(path, damaged);

  auto store = MustOpen(path);  // repair: resets to a fresh log
  EXPECT_EQ(store->size(), 0u);
  EXPECT_EQ(store->stats().bytes_recovered,
            static_cast<int64_t>(damaged.size()));

  // The reset log accepts appends and round-trips them.
  std::string key;
  const api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  EXPECT_EQ(store->Put(key, solved), api::StorePutOutcome::kAppended);
  auto reopened = MustOpen(path);
  EXPECT_EQ(reopened->size(), 1u);
  api::DecisionResult out;
  EXPECT_TRUE(reopened->Lookup(key, &out));
}

// ------------------------------------------------------------- load policy

TEST(ProofStorePolicyTest, VerifyOnLoadRejectsADoctoredCertificateRecord) {
  const std::string path = TempPath("doctored");
  std::string key;
  api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  ASSERT_TRUE(solved.validity.has_value());
  ASSERT_TRUE(solved.validity->certificate.has_value());
  ASSERT_FALSE(solved.validity->lambda.empty());

  // Perturb one λ weight: the record still frames and checksums perfectly,
  // but the certificate no longer proves the λ-combination it claims to.
  solved.validity->lambda[0] =
      solved.validity->lambda[0] + util::Rational(1);
  auto store = MustOpen(path);
  ASSERT_TRUE(store->AppendRaw(key, EncodeResult(solved)).ok());
  ASSERT_TRUE(store->Contains(key));

  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup(key, &out));
  EXPECT_EQ(store->stats().verify_failures, 1);
  EXPECT_EQ(store->stats().hits, 0);
  // The poisoned entry is dropped from the index: repeats are cheap misses.
  EXPECT_FALSE(store->Contains(key));
}

TEST(ProofStorePolicyTest, VerifyOnLoadRejectsACertificateWeightChangedByOne) {
  const std::string path = TempPath("doctored_weight");
  std::string key;
  api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  ASSERT_TRUE(solved.validity.has_value());
  ASSERT_TRUE(solved.validity->certificate.has_value());
  ASSERT_FALSE(solved.validity->certificate->combination.empty());

  // One elemental's weight moves by 1: λ and the branches are intact, but
  // the combination no longer sums to their λ-combination.
  util::Rational& weight =
      solved.validity->certificate->combination[0].second;
  weight = weight + util::Rational(1);
  auto store = MustOpen(path);
  ASSERT_TRUE(store->AppendRaw(key, EncodeResult(solved)).ok());

  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup(key, &out));
  EXPECT_EQ(store->stats().verify_failures, 1);
  EXPECT_EQ(store->stats().hits, 0);
}

// A record whose certificate still proves its λ-combination, but whose λ
// is not convex, must not be served: `doctor` edits a solved record and
// the test checks that the certificate still verifies before storing it.
void ExpectNonConvexLambdaIsAMiss(
    const std::string& name, void (*doctor)(api::DecisionResult* result)) {
  std::string key;
  api::DecisionResult solved = Solve(kTriangle, kFork, &key);
  ASSERT_TRUE(solved.inequality.has_value());
  ASSERT_TRUE(solved.validity.has_value());
  ASSERT_TRUE(solved.validity->certificate.has_value());
  doctor(&solved);
  ASSERT_TRUE(solved.validity->certificate->Verify(
      solved.inequality->branches, solved.validity->lambda));

  auto store = MustOpen(TempPath(name));
  ASSERT_TRUE(store->AppendRaw(key, EncodeResult(solved)).ok());
  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup(key, &out));
  EXPECT_EQ(store->stats().verify_failures, 1);
  EXPECT_EQ(store->stats().hits, 0);
}

TEST(ProofStorePolicyTest,
     VerifyOnLoadRejectsAZeroLambdaWithAnEmptyCertificate) {
  // λ = 0 and an empty combination: both sides of the check are 0.
  ExpectNonConvexLambdaIsAMiss("zero_lambda", [](api::DecisionResult* r) {
    for (util::Rational& l : r->validity->lambda) l = util::Rational();
    r->validity->certificate->combination.clear();
  });
}

TEST(ProofStorePolicyTest, VerifyOnLoadRejectsANegativeLambdaEntry) {
  // Branch 0 appended again with weight -1, and its first copy's weight
  // raised by 1: the same λ-combination, and Σλ is still 1.
  ExpectNonConvexLambdaIsAMiss("negative_lambda", [](api::DecisionResult* r) {
    core::ContainmentInequality& inequality = *r->inequality;
    inequality.homs.push_back(inequality.homs[0]);
    inequality.branch_conditionals.push_back(
        inequality.branch_conditionals[0]);
    inequality.branches.push_back(inequality.branches[0]);
    std::vector<util::Rational>& lambda = r->validity->lambda;
    lambda[0] = lambda[0] + util::Rational(1);
    lambda.push_back(util::Rational(-1));
  });
}

TEST(ProofStorePolicyTest, VerifyOnLoadRejectsALambdaThatDoesNotSumToOne) {
  // λ and every certificate weight doubled: Σλ = 2.
  ExpectNonConvexLambdaIsAMiss("doubled_lambda", [](api::DecisionResult* r) {
    for (util::Rational& l : r->validity->lambda) l = l * util::Rational(2);
    for (auto& term : r->validity->certificate->combination) {
      term.second = term.second * util::Rational(2);
    }
  });
}

TEST(ProofStorePolicyTest, UndecodablePayloadReadsAsAMiss) {
  auto store = MustOpen(TempPath("undecodable"));
  ASSERT_TRUE(store->AppendRaw("some-key", "not a wire encoding").ok());
  api::DecisionResult out;
  EXPECT_FALSE(store->Lookup("some-key", &out));
  EXPECT_EQ(store->stats().verify_failures, 1);
}

TEST(ProofStorePolicyTest, VerdictOnlyRecordsServeOnChecksumAlone) {
  // Trust-but-checksum: no certificate to re-verify, the framing checksum
  // is the whole admission test.
  auto store = MustOpen(TempPath("verdict_only"));
  api::DecisionResult bare;
  bare.verdict = api::Verdict::kContained;
  bare.method = "test: verdict-only";
  EXPECT_EQ(store->Put("bare-key", bare), api::StorePutOutcome::kAppended);
  api::DecisionResult out;
  ASSERT_TRUE(store->Lookup("bare-key", &out));
  EXPECT_EQ(out.verdict, api::Verdict::kContained);
  EXPECT_EQ(out.method, "test: verdict-only");
}

// ------------------------------------------------- compaction & export

TEST(ProofStoreToolingTest, CompactionDropsDeadBytesAndKeepsLiveRecords) {
  const std::string path = TempPath("compact");
  std::string key1, key2;
  const api::DecisionResult r1 = Solve(kTriangle, kFork, &key1);
  const api::DecisionResult r2 = Solve(kPath2, kPath2B, &key2);
  auto store = MustOpen(path);
  ASSERT_EQ(store->Put(key1, r1), api::StorePutOutcome::kAppended);
  ASSERT_EQ(store->Put(key2, r2), api::StorePutOutcome::kAppended);
  // Superseded re-appends of key1 (what an import merge leaves behind).
  ASSERT_TRUE(store->AppendRaw(key1, EncodeResult(r1)).ok());
  ASSERT_TRUE(store->AppendRaw(key1, EncodeResult(r1)).ok());
  const size_t before = ReadFileBytes(path).size();

  ASSERT_TRUE(store->Compact().ok());
  EXPECT_LT(ReadFileBytes(path).size(), before);
  EXPECT_EQ(store->size(), 2u);
  api::DecisionResult out;
  ASSERT_TRUE(store->Lookup(key1, &out));
  EXPECT_EQ(EncodeResult(out), EncodeResult(r1));

  // The compacted handle keeps working for appends and reopens cleanly.
  std::string key3 = "fresh-after-compact";
  ASSERT_TRUE(store->AppendRaw(key3, EncodeResult(r2)).ok());
  auto reopened = MustOpen(path);
  EXPECT_EQ(reopened->size(), 3u);
}

TEST(ProofStoreToolingTest, ExportWritesADeterministicEquivalentLog) {
  const std::string path = TempPath("export_src");
  std::string key1, key2;
  WriteTwoRecordLog(path, &key1, &key2);
  auto store = MustOpen(path);

  const std::string dest1 = TempPath("export_dst1");
  const std::string dest2 = TempPath("export_dst2");
  ASSERT_TRUE(store->ExportTo(dest1).ok());
  ASSERT_TRUE(store->ExportTo(dest2).ok());
  // Deterministic artifact: same live set, same bytes.
  EXPECT_EQ(ReadFileBytes(dest1), ReadFileBytes(dest2));

  auto imported = MustOpen(dest1);
  EXPECT_EQ(imported->size(), 2u);
  api::DecisionResult out;
  EXPECT_TRUE(imported->Lookup(key1, &out));
  EXPECT_TRUE(imported->Lookup(key2, &out));
}

// -------------------------------------------------------- engine integration

TEST(ProofStoreEngineTest, FreshSessionServesWarmFromAPriorSessionsLog) {
  const std::string path = TempPath("engine_warm");
  std::string cold_bytes;
  {
    auto store = MustOpen(path);
    api::Engine engine{
        api::EngineOptions().set_decision_store(store.get())};
    const api::DecisionResult cold =
        engine.Decide(kTriangle, kFork).ValueOrDie();
    EXPECT_FALSE(cold.stats.store_hit);
    cold_bytes = EncodeNormalized(cold);
    const api::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.store_misses, 1);
    EXPECT_EQ(stats.store_appends, 1);
    EXPECT_EQ(stats.store_hits, 0);
    EXPECT_GT(stats.lp_solves, 0);
  }
  // A brand-new session (fresh Engine, fresh store handle — as after a
  // process restart) serves the same question entirely from the log.
  auto store = MustOpen(path);
  api::Engine engine{api::EngineOptions().set_decision_store(store.get())};
  const api::DecisionResult warm =
      engine.Decide(kTriangle, kFork).ValueOrDie();
  EXPECT_TRUE(warm.stats.store_hit);
  EXPECT_EQ(EncodeNormalized(warm), cold_bytes);
  const api::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.store_hits, 1);
  EXPECT_EQ(stats.store_misses, 0);
  EXPECT_EQ(stats.store_appends, 0);
  EXPECT_EQ(stats.lp_solves, 0);  // zero cold solves: the point of the store
}

TEST(ProofStoreEngineTest, ParallelBatchFoldsStoreCountersAndServesWarm) {
  const std::string path = TempPath("engine_batch");
  api::Engine parser;
  std::vector<api::QueryPair> pairs;
  pairs.push_back(parser.ParsePair(kTriangle, kFork).ValueOrDie());
  pairs.push_back(parser.ParsePair(kPath2, kPath2B).ValueOrDie());
  pairs.push_back(parser.ParsePair("R(x,y)", "R(a,b)").ValueOrDie());

  {
    auto store = MustOpen(path);
    api::Engine engine{api::EngineOptions().set_decision_store(store.get())};
    auto results = engine.DecideBatch(pairs);
    for (const auto& r : results) ASSERT_TRUE(r.ok());
    EXPECT_EQ(engine.stats().store_appends, 3);
    EXPECT_EQ(engine.stats().store_misses, 3);
  }
  auto store = MustOpen(path);
  api::Engine engine{api::EngineOptions().set_decision_store(store.get())};
  auto warm = engine.DecideBatch(pairs);
  for (const auto& r : warm) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->stats.store_hit);
  }
  EXPECT_EQ(engine.stats().store_hits, 3);
  EXPECT_EQ(engine.stats().lp_solves, 0);
}

TEST(ProofStoreEngineTest, MemoShortCircuitsTheStoreOnRepeats) {
  const std::string path = TempPath("engine_memo");
  auto store = MustOpen(path);
  api::Engine engine{api::EngineOptions()
                         .set_decision_store(store.get())
                         .set_memoize_decisions(true)};
  (void)engine.Decide(kTriangle, kFork).ValueOrDie();
  const api::DecisionResult repeat =
      engine.Decide(kTriangle, kFork).ValueOrDie();
  EXPECT_TRUE(repeat.stats.memo_hit);
  EXPECT_FALSE(repeat.stats.store_hit);
  // One store miss + append from the cold call; the repeat never reached it.
  EXPECT_EQ(engine.stats().store_misses, 1);
  EXPECT_EQ(engine.stats().store_hits, 0);
  EXPECT_EQ(store->stats().hits, 0);
}

TEST(ProofStoreEngineTest, CorruptedLogDegradesToColdSolvesNotWrongAnswers) {
  const std::string path = TempPath("engine_corrupt");
  WriteFileBytes(path, "garbage that is definitely not a proof log");
  auto store = MustOpen(path);  // repaired to a fresh empty log
  EXPECT_EQ(store->size(), 0u);
  api::Engine engine{api::EngineOptions().set_decision_store(store.get())};
  const api::DecisionResult result =
      engine.Decide(kTriangle, kFork).ValueOrDie();
  EXPECT_EQ(result.verdict, api::Verdict::kContained);
  EXPECT_FALSE(result.stats.store_hit);
  EXPECT_EQ(engine.stats().store_misses, 1);
  EXPECT_EQ(engine.stats().store_appends, 1);  // repopulated on the way out
}

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 §B.4 test vectors (CRC32C of 32 zero bytes / 32 0xFF bytes).
  EXPECT_EQ(Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(std::string(32, '\xFF')), 0x62A8AB43u);
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);  // the classic check value
}

TEST(Crc32cTest, ExtendOverPiecesEqualsOneShot) {
  const std::string a = "key-bytes";
  const std::string b = "payload-bytes";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b), Crc32c(a + b));
}

TEST(Crc32cTest, MaskRoundTripsAndChangesTheValue) {
  for (uint32_t crc : {0u, 1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

}  // namespace
}  // namespace bagcq::store
