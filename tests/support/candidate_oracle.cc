#include "support/candidate_oracle.h"

#include <algorithm>
#include <set>

namespace aggchecker {
namespace model {

std::vector<ScoredTriple> ReferenceTopTriples(const CandidateSpace& space,
                                              const PriorFactors* factors,
                                              size_t n) {
  std::vector<ScoredTriple> triples;
  for (size_t f = 0; f < space.functions().size(); ++f) {
    for (size_t c = 0; c < space.columns().size(); ++c) {
      for (size_t s = 0; s < space.subsets().size(); ++s) {
        if (!space.Valid(f, c, s)) continue;
        double score = space.KeywordScore(f, c, s);
        if (factors != nullptr) score *= factors->of(f, c, s);
        triples.push_back(ScoredTriple{score, f, c, s});
      }
    }
  }
  std::stable_sort(triples.begin(), triples.end(),
                   [](const ScoredTriple& a, const ScoredTriple& b) {
                     return a.score > b.score;
                   });
  if (triples.size() > n) triples.resize(n);
  return triples;
}

std::vector<ScoredTriple> ReferenceSelect(const CandidateSpace& space,
                                          const PriorFactors& factors,
                                          bool use_priors, size_t top_n) {
  if (!use_priors) return ReferenceTopTriples(space, nullptr, top_n);
  std::vector<ScoredTriple> triples =
      ReferenceTopTriples(space, &factors, top_n);
  const size_t valid =
      ReferenceTopTriples(space, nullptr, static_cast<size_t>(-1)).size();
  if (valid <= top_n) return triples;
  std::set<uint64_t> present;
  for (const ScoredTriple& t : triples) {
    present.insert(TripleKey(t.f, t.c, t.s));
  }
  for (ScoredTriple t : ReferenceTopTriples(
           space, nullptr, std::max<size_t>(top_n / 2, 1))) {
    if (!present.insert(TripleKey(t.f, t.c, t.s)).second) continue;
    t.score = space.KeywordScore(t.f, t.c, t.s) * factors.of(t.f, t.c, t.s);
    triples.push_back(t);
  }
  std::sort(triples.begin(), triples.end(), RanksBefore);
  return triples;
}

std::vector<PredicateSubset> ReferencePredicateSubsets(
    const fragments::FragmentCatalog& catalog,
    const std::vector<ScoredOption>& preds, int max_predicates,
    size_t max_subsets) {
  std::vector<PredicateSubset> subsets{PredicateSubset{}};
  std::vector<size_t> last_pos{0};  // first position a subset may extend
  size_t level_begin = 0;
  for (int size = 1; size <= max_predicates; ++size) {
    const size_t level_end = subsets.size();
    for (size_t s = level_begin; s < level_end; ++s) {
      for (size_t p = last_pos[s]; p < preds.size(); ++p) {
        const auto& frag = catalog.fragment(
            fragments::FragmentType::kPredicate, preds[p].frag);
        const int col = catalog.PredicateColumnIndex(frag.column);
        const auto& cols = subsets[s].restrict_cols;
        if (std::find(cols.begin(), cols.end(), col) != cols.end()) continue;
        PredicateSubset next = subsets[s];
        next.frags.push_back(preds[p].frag);
        next.restrict_cols.push_back(col);
        next.norm_score *= preds[p].norm_score;
        subsets.push_back(std::move(next));
        last_pos.push_back(p + 1);
      }
    }
    level_begin = level_end;
  }
  std::stable_sort(subsets.begin(), subsets.end(),
                   [](const PredicateSubset& a, const PredicateSubset& b) {
                     return a.norm_score > b.norm_score;
                   });
  if (subsets.size() > max_subsets) subsets.resize(max_subsets);
  return subsets;
}

}  // namespace model
}  // namespace aggchecker
