#include "entropy/prover_cache.h"

#include "util/check.h"

namespace bagcq::entropy {

SharedProverPool::GetResult SharedProverPool::Get(int n) {
  BAGCQ_CHECK_GE(n, 1) << "prover needs at least one variable";
  util::MutexLock lock(&mutex_);
  auto it = provers_.find(n);
  if (it != provers_.end()) return {it->second.get(), false};
  ++constructions_;
  auto prover = std::make_unique<ShannonProver>(n);
  const ShannonProver* ref = prover.get();
  provers_.emplace(n, std::move(prover));
  return {ref, true};
}

int64_t SharedProverPool::constructions() const {
  util::MutexLock lock(&mutex_);
  return constructions_;
}

size_t SharedProverPool::size() const {
  util::MutexLock lock(&mutex_);
  return provers_.size();
}

void SharedProverPool::Clear() {
  util::MutexLock lock(&mutex_);
  provers_.clear();
  constructions_ = 0;
}

const ShannonProver& ProverCache::Get(int n) {
  BAGCQ_CHECK_GE(n, 1) << "prover needs at least one variable";
  auto it = provers_.find(n);
  if (it != provers_.end()) {
    ++hits_;
    return *it->second;
  }
  if (shared_ != nullptr) {
    // Shared-pool mode never populates the local map: every engine behind
    // the pool reads the one process-wide instance.
    const SharedProverPool::GetResult got = shared_->Get(n);
    if (got.constructed) {
      ++constructions_;
    } else {
      ++hits_;
    }
    return *got.prover;
  }
  ++constructions_;
  auto prover = std::make_unique<ShannonProver>(n);
  const ShannonProver& ref = *prover;
  provers_.emplace(n, std::move(prover));
  return ref;
}

void ProverCache::Clear() {
  provers_.clear();
  constructions_ = 0;
  hits_ = 0;
}

}  // namespace bagcq::entropy
