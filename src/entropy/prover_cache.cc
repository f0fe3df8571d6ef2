#include "entropy/prover_cache.h"

#include "util/check.h"

namespace bagcq::entropy {

const ShannonProver& ProverCache::Get(int n) {
  BAGCQ_CHECK_GE(n, 1) << "prover needs at least one variable";
  const auto [it, constructed] = provers_.try_emplace(n, n);
  if (constructed) {
    ++constructions_;
  } else {
    ++hits_;
  }
  return it->second;
}

void ProverCache::Clear() {
  provers_.clear();
  constructions_ = 0;
  hits_ = 0;
}

}  // namespace bagcq::entropy
