#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fragments/catalog.h"
#include "model/candidate_space.h"
#include "model/priors.h"

namespace aggchecker {
namespace model {

/// Compact candidate address within a claim's CandidateSpace.
inline uint64_t TripleKey(size_t f, size_t c, size_t s) {
  return (static_cast<uint64_t>(f) << 40) | (static_cast<uint64_t>(c) << 20) |
         static_cast<uint64_t>(s);
}

/// \brief A candidate triple (function, column, subset) with its ranking
/// score.
struct ScoredTriple {
  double score;
  size_t f, c, s;
};

/// The pinned total order of every candidate ranking (DESIGN.md §18): score
/// descending, then (f, c, s) ascending. Equal scores are common (smoothed
/// scores of fragments without keyword support tie), so the tie-break is
/// what makes a selection a function of the space alone. A function object,
/// so the sorts that take it inline the comparison.
inline constexpr auto RanksBefore = [](const ScoredTriple& a,
                                       const ScoredTriple& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.f != b.f) return a.f < b.f;
  if (a.c != b.c) return a.c < b.c;
  return a.s < b.s;
};

/// \brief Per-iteration prior factors for one claim's candidate space: the
/// prior Pr(Q_c) of candidate (f, c, s) is of(f, c, s).
struct PriorFactors {
  std::vector<double> fn;      ///< per considered function
  std::vector<double> col;     ///< per considered column
  std::vector<double> subset;  ///< per predicate subset

  double of(size_t f, size_t c, size_t s) const {
    return fn[f] * col[c] * subset[s];
  }

  static PriorFactors Compute(const CandidateSpace& space,
                              const Priors& priors,
                              const fragments::FragmentCatalog& catalog);
};

/// \brief The top `n` valid candidates of `space` under RanksBefore,
/// sorted. A candidate's score is `space.KeywordScore(f, c, s)`, times
/// `factors->of(f, c, s)` when `factors` is set — always that exact
/// floating-point expression, so scores match whatever computes them the
/// same way.
std::vector<ScoredTriple> TopTriples(const CandidateSpace& space,
                                     const PriorFactors* factors, size_t n);

/// \brief PickScope's per-claim candidate selection (§6.1) over one claim's
/// space, for every EM iteration.
///
/// With priors enabled the evaluation scope hedges: half the budget goes to
/// the prior-weighted ranking and half to the keyword-only ranking.
/// PickScope can afford tens of thousands of evaluations per claim; at our
/// smaller budget a pure prior-weighted scope can evict the true query
/// before the priors have converged, so both rankings contribute. Select
/// returns the top `top_n` valid candidates by prior-weighted score, plus
/// the keyword-only top max(top_n / 2, 1) not already among them (a slight
/// budget overrun), all scored by the prior-weighted score and sorted by
/// RanksBefore. When the space has at most `top_n` valid candidates, or
/// priors are off, it is simply the top `top_n` by the one score in use.
class CandidateSelector {
 public:
  CandidateSelector(const CandidateSpace& space, bool use_priors,
                    size_t top_n)
      : space_(&space),
        use_priors_(use_priors),
        top_n_(top_n),
        num_valid_(space.NumValid()) {}

  /// The selection under this iteration's prior factors (ignored when
  /// priors are off).
  std::vector<ScoredTriple> Select(const PriorFactors& factors);

 private:
  const CandidateSpace* space_;
  bool use_priors_;
  size_t top_n_;
  size_t num_valid_;
  /// The keyword-only top half: a function of the space alone, computed on
  /// first use and kept for later iterations.
  std::vector<ScoredTriple> keyword_top_;
};

}  // namespace model
}  // namespace aggchecker
