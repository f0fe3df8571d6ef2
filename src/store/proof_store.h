// ProofStore — the persistent certificate log: an append-only, crash-safe,
// content-addressed store mapping canonical pair keys
// (wire::CanonicalPairKey) to wire-encoded api::DecisionResult payloads.
// Every certificate the engine emits is an exact machine-checked proof and
// the wire encoding is canonical and byte-stable, so a decision persisted
// once can be served verbatim across restarts and shipped between fleet
// nodes as a plain file.
//
// On-disk layout (normative spec: docs/proof-store.md):
//
//   log    := header record*
//   header := "bqproof1"                                  (8 bytes)
//   record := "bqpr" key_len:u32le payload_len:u32le
//             crc:u32le  key payload
//
// `crc` is the masked CRC32C (store/crc32c.h) over key ++ payload. Records
// are written with a single write(2) on an O_APPEND descriptor, so
// concurrent appenders (the server's forked workers, one handle each)
// interleave whole records, never bytes.
//
// Open() bulk-reads the log (mmap when available) and builds an in-memory
// key → offset index, validating every record's magic, bounds, and
// checksum. The scan stops at the first damaged record — a torn tail from a
// crash mid-append, a flipped byte, a truncated copy — and serves the
// intact prefix; with StoreOptions::repair the damaged tail is truncated
// away so the log is appendable again. Recovery never fails the open and
// never surfaces a damaged record: corruption degrades to cold solves, not
// to crashes or wrong answers.
//
// Load policy (normative, see docs/proof-store.md §4): a looked-up result
// that carries a Shannon certificate is re-verified on load — the λ-combo
// of its containment branches is re-expanded through
// ShannonCertificate::Verify before the result is served (verify-on-load).
// A verdict-only record (no certificate to check) is served on the strength
// of its checksum alone (trust-but-checksum). Either failure reads as a
// miss.
//
// Thread safety: Lookup/Put/stats are mutex-guarded — one ProofStore may
// back every engine of a ThreadedEnginePool. Distinct processes coordinate
// through the file itself: appends are atomic whole records, and sticky
// pair→worker routing means no two workers ever race on one key.
// Compact() is an offline operation: run it on a log no live server has
// open (their indexes keep reading the old inode and their appends would be
// lost at the rename).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "api/decision_store.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace bagcq::store {

/// The 8-byte log header ("bqproof" + format digit) and 4-byte record
/// magic. A future incompatible layout bumps the digit.
inline constexpr char kLogMagic[] = "bqproof1";
inline constexpr char kRecordMagic[] = "bqpr";
/// Fixed bytes before the key: magic + key_len + payload_len + crc.
inline constexpr size_t kRecordHeaderBytes = 4 + 4 + 4 + 4;
/// Hard sanity bound on any single record (matches the serving frame cap);
/// a claimed length beyond it is corruption, not a big record.
inline constexpr uint64_t kMaxRecordBytes = 256ull << 20;

struct StoreOptions {
  /// Admission bound: Put() rejects results whose encoded payload exceeds
  /// this (a witness database can dwarf every other record — persisting it
  /// would turn the log into a blob store). Lookup serves any intact record.
  uint64_t max_payload_bytes = 1ull << 20;
  /// Truncate a damaged tail on open so the log is cleanly appendable.
  /// Leave off in processes sharing the log with live appenders (the
  /// server's forked workers): they serve the intact prefix and must not
  /// cut the file out from under each other.
  bool repair = true;
  /// Re-verify certificate-carrying results on load (the normative policy).
  /// Off is for benchmarking the decode path only — never serving.
  bool verify_certificates = true;
  /// fsync after every append. Off by default: the framing already makes a
  /// torn append detectable and recoverable, so the default durability is
  /// "what the OS has flushed"; turn on (or call Sync) when the log is
  /// about to be shipped as an artifact.
  bool fsync_each_append = false;
};

/// Per-handle counters (monotone since Open).
struct StoreStats {
  int64_t records_loaded = 0;   // live records indexed by Open
  int64_t bytes_recovered = 0;  // damaged tail bytes dropped/skipped by Open
  int64_t hits = 0;             // Lookup served a verified result
  int64_t misses = 0;           // Lookup found nothing for the key
  int64_t appends = 0;          // Put durably appended a record
  int64_t rejects = 0;          // Put refused by the admission bound
  int64_t verify_failures = 0;  // records that failed decode or
                                // verify-on-load (served as misses)
};

class ProofStore : public api::DecisionStore {
 public:
  /// Opens (creating if absent) the log at `path`, scans it, and builds the
  /// index. Corrupt content never fails the open (it is recovered past, per
  /// the policy above); only real I/O errors — unopenable path, unreadable
  /// file — return a Status.
  static util::Result<std::unique_ptr<ProofStore>> Open(
      const std::string& path, const StoreOptions& options = {});
  ~ProofStore() override;
  ProofStore(const ProofStore&) = delete;
  ProofStore& operator=(const ProofStore&) = delete;

  // ------------------------------------------- the Engine-facing surface
  /// Decodes, policy-checks, and returns the stored decision for `key`.
  [[nodiscard]] bool Lookup(const std::string& key,
                            api::DecisionResult* out) override
      BAGCQ_EXCLUDES(mutex_);
  /// Encodes and appends, subject to the admission bound; duplicate keys
  /// are left alone (the first stored proof of a question is as good as any
  /// later one — the encoding is canonical).
  [[nodiscard]] api::StorePutOutcome Put(const std::string& key,
                                         const api::DecisionResult& result)
      override BAGCQ_EXCLUDES(mutex_);

  // ------------------------------------------------- inspection & tools
  size_t size() const BAGCQ_EXCLUDES(mutex_);
  StoreStats stats() const BAGCQ_EXCLUDES(mutex_);
  const std::string& path() const { return path_; }
  bool Contains(const std::string& key) const BAGCQ_EXCLUDES(mutex_);

  /// Raw framed append of pre-encoded payload bytes — the import path, and
  /// how tests plant records the typed surface would refuse.
  [[nodiscard]] util::Status AppendRaw(const std::string& key,
                                       const std::string& payload)
      BAGCQ_EXCLUDES(mutex_);
  /// Reads the raw payload bytes for `key` (checksum re-verified, no decode
  /// and no load policy). False when absent or damaged.
  [[nodiscard]] bool ReadRaw(const std::string& key, std::string* payload)
      const BAGCQ_EXCLUDES(mutex_);
  /// Visits every live (key, payload) pair in unspecified order; the export
  /// and compaction walk.
  [[nodiscard]] util::Status ForEach(
      const std::function<util::Status(const std::string& key,
                                       const std::string& payload)>& fn) const
      BAGCQ_EXCLUDES(mutex_);

  /// Rewrites the live records to a fresh log and atomically renames it
  /// over this one (dropping duplicates and any recovered-past damage),
  /// then re-indexes. Offline only — see the class comment.
  [[nodiscard]] util::Status Compact() BAGCQ_EXCLUDES(mutex_);
  /// Writes the live records as a fresh log at `dest_path` (the export
  /// artifact; the source log is untouched).
  [[nodiscard]] util::Status ExportTo(const std::string& dest_path) const
      BAGCQ_EXCLUDES(mutex_);
  /// fsyncs the log fd (call before shipping the file somewhere).
  [[nodiscard]] util::Status Sync() BAGCQ_EXCLUDES(mutex_);

 private:
  struct Entry {
    uint64_t payload_offset = 0;  // absolute file offset of the payload
    uint32_t payload_len = 0;
    uint32_t crc = 0;  // unmasked CRC32C over key ++ payload
    /// Records appended through THIS handle keep their payload in memory:
    /// under O_APPEND with concurrent appender processes, the offset a write
    /// landed at is unknowable without a read-back race.
    std::string inline_payload;
  };

  ProofStore(std::string path, int fd, StoreOptions options)
      : path_(std::move(path)), fd_(fd), options_(options) {}

  /// The Open scan: walk records from `scan`, index the valid prefix,
  /// remember where damage (if any) begins.
  util::Status BuildIndex(std::string_view file_bytes)
      BAGCQ_REQUIRES(mutex_);
  bool ReadPayloadLocked(const std::string& key, const Entry& entry,
                         std::string* payload) const BAGCQ_REQUIRES(mutex_);
  util::Status AppendLocked(const std::string& key,
                            const std::string& payload)
      BAGCQ_REQUIRES(mutex_);
  /// Writes header + every live record of `entries` to `fd` (the compaction
  /// / export body).
  util::Status WriteFreshLog(int fd) const BAGCQ_REQUIRES(mutex_);

  const std::string path_;
  /// Only Compact() reassigns fd_ (under mutex_); every other writer is the
  /// constructor/destructor, which by contract run without concurrency. Not
  /// BAGCQ_GUARDED_BY so the destructor's close stays expressible.
  int fd_ = -1;
  StoreOptions options_;
  mutable util::Mutex mutex_;
  /// Key → live record. Entries are erased on read/verify failure (a
  /// damaged record must not re-pay its failed decode on every lookup).
  std::unordered_map<std::string, Entry> index_ BAGCQ_GUARDED_BY(mutex_);
  /// Where the next record lands (valid EOF), maintained by the append
  /// path; advisory under concurrent appender processes.
  uint64_t append_offset_ BAGCQ_GUARDED_BY(mutex_) = 0;
  mutable StoreStats stats_ BAGCQ_GUARDED_BY(mutex_);
};

}  // namespace bagcq::store
