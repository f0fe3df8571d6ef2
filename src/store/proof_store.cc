#include "store/proof_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "store/crc32c.h"
#include "wire/codec.h"
#include "wire/wire.h"

namespace bagcq::store {

namespace {

constexpr size_t kLogMagicBytes = 8;

util::Status IoError(const std::string& path, const char* op) {
  return util::Status::Internal("store: " + std::string(op) + " failed for " +
                                path + ": " + std::strerror(errno));
}

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

// λ ≥ 0 and Σλ = 1: what makes a proof of Σ_ℓ λ_ℓ·E_ℓ ≥ 0 a proof of
// max_ℓ E_ℓ ≥ 0 (MaxIIOracle::Check asserts it of every valid reply).
bool IsConvex(const std::vector<util::Rational>& lambda) {
  util::Rational total;
  for (const util::Rational& l : lambda) {
    if (l.sign() < 0) return false;
    total += l;
  }
  return total == util::Rational(1);
}

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

/// One framed record, built in memory so the append is a single write(2) —
/// whole-record atomicity under O_APPEND is what lets the server's forked
/// workers share one log without a cross-process lock.
std::string FrameRecord(const std::string& key, const std::string& payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + key.size() + payload.size());
  record.append(kRecordMagic, 4);
  PutU32(&record, static_cast<uint32_t>(key.size()));
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU32(&record, MaskCrc(Crc32cExtend(Crc32c(key), payload)));
  record.append(key);
  record.append(payload);
  return record;
}

util::Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError(path, "write");
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return util::Status::OK();
}

}  // namespace

util::Result<std::unique_ptr<ProofStore>> ProofStore::Open(
    const std::string& path, const StoreOptions& options) {
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return IoError(path, "open");
  std::unique_ptr<ProofStore> ps(new ProofStore(path, fd, options));

  struct stat st;
  if (::fstat(fd, &st) != 0) return IoError(path, "fstat");
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    // Fresh log: stamp the header so every non-empty log self-identifies.
    BAGCQ_RETURN_NOT_OK(
        WriteAll(fd, std::string_view(kLogMagic, kLogMagicBytes), path));
    util::MutexLock lock(&ps->mutex_);
    ps->append_offset_ = kLogMagicBytes;
    return ps;
  }

  // Bulk-load the existing bytes for the index scan: mmap when the kernel
  // lets us (zero-copy over an arbitrarily large log), plain read otherwise.
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  std::string fallback;
  std::string_view bytes;
  if (mapped != MAP_FAILED) {
    bytes = std::string_view(static_cast<const char*>(mapped), size);
  } else {
    fallback.resize(size);
    uint64_t got = 0;
    while (got < size) {
      const ssize_t n = ::pread(fd, fallback.data() + got, size - got, got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return IoError(path, "pread");
      got += static_cast<uint64_t>(n);
    }
    bytes = fallback;
  }
  util::Status status;
  {
    // No concurrency exists yet (the handle has not been returned), but
    // BuildIndex writes lock-guarded members, so take the lock anyway: the
    // static analysis cannot see "not yet shared" and the uncontended
    // acquisition is free.
    util::MutexLock lock(&ps->mutex_);
    status = ps->BuildIndex(bytes);
  }
  if (mapped != MAP_FAILED) ::munmap(mapped, size);
  BAGCQ_RETURN_NOT_OK(status);
  return ps;
}

ProofStore::~ProofStore() {
  if (fd_ >= 0) ::close(fd_);
}

util::Status ProofStore::BuildIndex(std::string_view file_bytes) {
  index_.clear();
  uint64_t pos = 0;
  if (file_bytes.size() < kLogMagicBytes ||
      std::memcmp(file_bytes.data(), kLogMagic, kLogMagicBytes) != 0) {
    // Unrecognizable header: nothing in the file is trustworthy. Serve
    // empty; with repair, reset to a fresh log so appends are reachable.
    stats_.bytes_recovered += static_cast<int64_t>(file_bytes.size());
  } else {
    pos = kLogMagicBytes;
    while (file_bytes.size() - pos >= kRecordHeaderBytes) {
      const char* p = file_bytes.data() + pos;
      if (std::memcmp(p, kRecordMagic, 4) != 0) break;
      const uint64_t key_len = LoadU32(p + 4);
      const uint64_t payload_len = LoadU32(p + 8);
      const uint32_t stored_crc = UnmaskCrc(LoadU32(p + 12));
      if (key_len > kMaxRecordBytes || payload_len > kMaxRecordBytes) break;
      const uint64_t record_len = kRecordHeaderBytes + key_len + payload_len;
      if (record_len > file_bytes.size() - pos) break;  // torn tail
      const std::string_view key(p + kRecordHeaderBytes, key_len);
      const std::string_view payload(p + kRecordHeaderBytes + key_len,
                                     payload_len);
      if (Crc32cExtend(Crc32c(key), payload) != stored_crc) break;
      // Last record wins: a re-appended key (an import merge) supersedes.
      Entry entry;
      entry.payload_offset = pos + kRecordHeaderBytes + key_len;
      entry.payload_len = static_cast<uint32_t>(payload_len);
      entry.crc = stored_crc;
      index_[std::string(key)] = std::move(entry);
      ++stats_.records_loaded;
      pos += record_len;
    }
    stats_.bytes_recovered += static_cast<int64_t>(file_bytes.size() - pos);
  }

  if (pos < file_bytes.size() && options_.repair) {
    // Cut the damaged tail so the next append starts at a clean boundary.
    // pos == 0 means even the header was bad: restart the log entirely.
    if (::ftruncate(fd_, static_cast<off_t>(pos)) != 0) {
      return IoError(path_, "ftruncate");
    }
    if (pos == 0) {
      BAGCQ_RETURN_NOT_OK(
          WriteAll(fd_, std::string_view(kLogMagic, kLogMagicBytes), path_));
      pos = kLogMagicBytes;
    }
  }
  append_offset_ = pos;
  return util::Status::OK();
}

bool ProofStore::ReadPayloadLocked(const std::string& key, const Entry& entry,
                                   std::string* payload) const {
  if (!entry.inline_payload.empty() || entry.payload_len == 0) {
    *payload = entry.inline_payload;
    return Crc32cExtend(Crc32c(key), *payload) == entry.crc;
  }
  payload->resize(entry.payload_len);
  uint64_t got = 0;
  while (got < entry.payload_len) {
    const ssize_t n =
        ::pread(fd_, payload->data() + got, entry.payload_len - got,
                static_cast<off_t>(entry.payload_offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    got += static_cast<uint64_t>(n);
  }
  // The record was checksummed at index-build time, but the read happens
  // arbitrarily later — re-check so bit rot between boot and hit can only
  // ever produce a miss.
  return Crc32cExtend(Crc32c(key), *payload) == entry.crc;
}

bool ProofStore::Lookup(const std::string& key, api::DecisionResult* out) {
  std::string payload;
  {
    util::MutexLock lock(&mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return false;
    }
    if (!ReadPayloadLocked(key, it->second, &payload)) {
      ++stats_.misses;
      ++stats_.verify_failures;
      index_.erase(it);
      return false;
    }
  }

  // Decode and policy-check outside the lock: certificate verification is
  // the expensive half of a hit, and engine threads sharing the store must
  // not serialize on it.
  bool ok = false;
  wire::Decoder d(payload);
  auto decoded = wire::DecodeDecisionResult(&d);
  if (decoded.ok() && d.exhausted()) {
    api::DecisionResult result = std::move(decoded).ValueOrDie();
    ok = true;
    if (result.validity.has_value()) {
      // Verify-on-load: λ must be convex, and a certificate must prove the
      // λ-combination of the stored containment branches. A record that
      // fails is a miss — the engine re-solves and re-proves from scratch.
      const entropy::MaxIIResult& validity = *result.validity;
      ok = IsConvex(validity.lambda) &&
           (!validity.certificate.has_value() ||
            (result.inequality.has_value() &&
             validity.certificate->Verify(result.inequality->branches,
                                          validity.lambda)));
    }
    if (ok) *out = std::move(result);
  }

  util::MutexLock lock(&mutex_);
  if (!ok) {
    ++stats_.misses;
    ++stats_.verify_failures;
    index_.erase(key);  // do not re-pay the failed decode on every repeat
    return false;
  }
  ++stats_.hits;
  return true;
}

api::StorePutOutcome ProofStore::Put(const std::string& key,
                                     const api::DecisionResult& result) {
  wire::Encoder e;
  wire::EncodeDecisionResult(result, &e);
  std::string payload = e.Take();
  util::MutexLock lock(&mutex_);
  if (payload.size() > options_.max_payload_bytes) {
    ++stats_.rejects;
    return api::StorePutOutcome::kRejected;
  }
  if (index_.count(key) != 0) return api::StorePutOutcome::kDuplicate;
  const util::Status status = AppendLocked(key, payload);
  if (!status.ok()) {
    // No status channel on the hook interface: an unwritable log behaves
    // like an admission refusal (the engine keeps serving, just cold).
    std::fprintf(stderr, "proof_store: %s\n", status.ToString().c_str());
    ++stats_.rejects;
    return api::StorePutOutcome::kRejected;
  }
  ++stats_.appends;
  return api::StorePutOutcome::kAppended;
}

util::Status ProofStore::AppendLocked(const std::string& key,
                                      const std::string& payload) {
  const std::string record = FrameRecord(key, payload);
  BAGCQ_RETURN_NOT_OK(WriteAll(fd_, record, path_));
  if (options_.fsync_each_append && ::fsync(fd_) != 0) {
    return IoError(path_, "fsync");
  }
  // Index the new record by value, not offset: with concurrent appenders
  // (other worker processes) this handle cannot know the file offset its
  // O_APPEND write actually landed at.
  Entry entry;
  entry.payload_len = static_cast<uint32_t>(payload.size());
  entry.crc = Crc32cExtend(Crc32c(key), payload);
  entry.inline_payload = payload;
  index_[key] = std::move(entry);
  append_offset_ += record.size();
  return util::Status::OK();
}

util::Status ProofStore::AppendRaw(const std::string& key,
                                   const std::string& payload) {
  util::MutexLock lock(&mutex_);
  BAGCQ_RETURN_NOT_OK(AppendLocked(key, payload));
  ++stats_.appends;
  return util::Status::OK();
}

bool ProofStore::Contains(const std::string& key) const {
  util::MutexLock lock(&mutex_);
  return index_.count(key) != 0;
}

size_t ProofStore::size() const {
  util::MutexLock lock(&mutex_);
  return index_.size();
}

StoreStats ProofStore::stats() const {
  util::MutexLock lock(&mutex_);
  return stats_;
}

util::Status ProofStore::ForEach(
    const std::function<util::Status(const std::string& key,
                                     const std::string& payload)>& fn) const {
  util::MutexLock lock(&mutex_);
  for (const auto& [key, entry] : index_) {
    std::string payload;
    if (!ReadPayloadLocked(key, entry, &payload)) continue;  // degraded: skip
    BAGCQ_RETURN_NOT_OK(fn(key, payload));
  }
  return util::Status::OK();
}

util::Status ProofStore::WriteFreshLog(int fd) const {
  BAGCQ_RETURN_NOT_OK(
      WriteAll(fd, std::string_view(kLogMagic, kLogMagicBytes), path_));
  // Sorted keys: a compacted or exported log is a deterministic function of
  // its live contents, so identical stores ship identical artifacts.
  std::vector<const std::string*> keys;
  keys.reserve(index_.size());
  for (const auto& [key, entry] : index_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  for (const std::string* key : keys) {
    std::string payload;
    if (!ReadPayloadLocked(*key, index_.at(*key), &payload)) continue;
    BAGCQ_RETURN_NOT_OK(WriteAll(fd, FrameRecord(*key, payload), path_));
  }
  if (::fsync(fd) != 0) return IoError(path_, "fsync");
  return util::Status::OK();
}

util::Status ProofStore::ExportTo(const std::string& dest_path) const {
  util::MutexLock lock(&mutex_);
  const int fd = ::open(dest_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError(dest_path, "open");
  const util::Status status = WriteFreshLog(fd);
  ::close(fd);
  return status;
}

util::Status ProofStore::Compact() {
  util::MutexLock lock(&mutex_);
  const std::string tmp_path = path_ + ".compact";
  const int tmp_fd =
      ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) return IoError(tmp_path, "open");
  util::Status status = WriteFreshLog(tmp_fd);
  if (status.ok() && ::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    status = IoError(path_, "rename");
  }
  if (!status.ok()) {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  // The compacted file is the log now; swap descriptors and re-index so
  // entries point at the fresh offsets.
  ::close(fd_);
  fd_ = tmp_fd;
  struct stat st;
  if (::fstat(fd_, &st) != 0) return IoError(path_, "fstat");
  std::string bytes;
  bytes.resize(static_cast<size_t>(st.st_size));
  uint64_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(fd_, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return IoError(path_, "pread");
    got += static_cast<uint64_t>(n);
  }
  const int64_t loaded_before = stats_.records_loaded;
  BAGCQ_RETURN_NOT_OK(BuildIndex(bytes));
  stats_.records_loaded = loaded_before;  // a rewrite is not a fresh load
  return util::Status::OK();
}

util::Status ProofStore::Sync() {
  util::MutexLock lock(&mutex_);
  if (::fsync(fd_) != 0) return IoError(path_, "fsync");
  return util::Status::OK();
}

}  // namespace bagcq::store
