// Exact integer checks of the weights a valid Max-II or Shannon verdict
// carries. Each is one pass over a dense vector with one entry per subset
// mask, holding c[X] = Σ_ℓ λ_ℓ·(E_ℓ)_X, and reads only the branches, the
// weights and the elementals' own definitions, never the LP that produced
// the weights, so a wrong program build cannot pass it.
//
// Every weight (each λ_ℓ, and each certificate weight y_t) is put over one
// common denominator D and every branch coefficient over one denominator B,
// so c holds integers, the exact values times D·B > 0; zero and sign are
// unchanged. A pass runs in overflow-checked __int128 and, only when D, B,
// a scaled weight or a sum leaves 128 bits, again from the start in
// util::BigInt, as the simplex ladder reruns a solve that overflows int64.
#pragma once

#include <optional>
#include <span>
#include <utility>

#include "entropy/elemental.h"
#include "entropy/linear_expr.h"
#include "util/rational.h"

namespace bagcq::entropy::dense {

/// Whether E = Σ_ℓ lambda[ℓ]·branches[ℓ] is nonnegative at every step
/// function h_W with W ⊊ V (the generators of Nn) or, with
/// `co_singletons`, at every W = V − {i} (those of Mn): Theorem 6.1's
/// condition on λ. One subset-sum (zeta) transform z of c gives
/// E(h_W) = z[V] − z[W] at every W at once; over Mn the n values
/// E(h_{V−i}) = Σ_{X ∋ i} c[X] are summed per variable instead. False
/// when the branches are empty, differ in variable count, or are not as
/// many as the weights.
bool NonnegativeOnSteps(std::span<const LinearExpr> branches,
                        std::span<const util::Rational> lambda,
                        bool co_singletons);

/// Whether Σ_ℓ lambda[ℓ]·branches[ℓ] = Σ_t y_t·elemental_t exactly over
/// the (elemental_t, y_t) of `combination`, with every y_t > 0: a Shannon
/// proof that the combination is ≥ 0 over Γn. Each elemental is expanded
/// from its (i, j, K) by ElementalColumnOf and must lie among the
/// branches' n ≤ kMaxCertificateVars variables. False on the shape
/// failures of NonnegativeOnSteps too.
bool EqualsElementalSum(
    std::span<const LinearExpr> branches,
    std::span<const util::Rational> lambda,
    std::span<const std::pair<ElementalInequality, util::Rational>>
        combination);

/// A Γn certificate over more variables is refused, not expanded: the LP
/// that proves one has 2ⁿ−1 rows and about n²·2ⁿ⁻³ columns, far past what
/// the simplex solves, so it can only come from a doctored record.
inline constexpr int kMaxCertificateVars = 20;

/// The two tiers, for tests that pin which one decides: overflow-checked
/// __int128, then util::BigInt.
struct Int128Ops;
struct BigOps;

/// One tier's pass of the check above; nullopt when a value left the tier
/// (never for BigOps).
template <typename Ops>
std::optional<bool> NonnegativeOnStepsIn(
    std::span<const LinearExpr> branches,
    std::span<const util::Rational> lambda, bool co_singletons);
template <typename Ops>
std::optional<bool> EqualsElementalSumIn(
    std::span<const LinearExpr> branches,
    std::span<const util::Rational> lambda,
    std::span<const std::pair<ElementalInequality, util::Rational>>
        combination);

}  // namespace bagcq::entropy::dense
