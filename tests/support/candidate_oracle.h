#pragma once

#include <cstddef>
#include <vector>

#include "fragments/catalog.h"
#include "model/candidate_selection.h"
#include "model/candidate_space.h"

namespace aggchecker {
namespace model {

/// \brief Reference implementations of the model layer's candidate ranking:
/// full enumeration plus stable_sort, the plain meaning of the pinned order
/// (DESIGN.md §18). The production paths (TopTriples, CandidateSelector,
/// TopPredicateSubsets) never enumerate the whole space; they must return
/// exactly what these return, bit for bit.
///
/// Test support only: the differential tests and benches link it; no
/// production path does.

/// Every valid triple of `space` in (f, c, s) order, scored
/// `space.KeywordScore(f, c, s)` times `factors->of(f, c, s)` when
/// `factors` is set, stable-sorted by score descending; the first `n`.
std::vector<ScoredTriple> ReferenceTopTriples(const CandidateSpace& space,
                                              const PriorFactors* factors,
                                              size_t n);

/// CandidateSelector::Select spelled out: the prior-weighted top `top_n`,
/// and (priors on, more than `top_n` valid candidates) the keyword-only
/// top max(top_n / 2, 1) not among them, rescored by the prior-weighted
/// score; everything sorted by RanksBefore.
std::vector<ScoredTriple> ReferenceSelect(const CandidateSpace& space,
                                          const PriorFactors& factors,
                                          bool use_priors, size_t top_n);

/// TopPredicateSubsets spelled out: every subset materialized in generation
/// order, stable-sorted by score descending, cut to `max_subsets`.
std::vector<PredicateSubset> ReferencePredicateSubsets(
    const fragments::FragmentCatalog& catalog,
    const std::vector<ScoredOption>& preds, int max_predicates,
    size_t max_subsets);

}  // namespace model
}  // namespace aggchecker
