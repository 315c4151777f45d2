#include "model/candidate_selection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

namespace aggchecker {
namespace model {

PriorFactors PriorFactors::Compute(const CandidateSpace& space,
                                   const Priors& priors,
                                   const fragments::FragmentCatalog& catalog) {
  PriorFactors factors;
  factors.fn.reserve(space.functions().size());
  for (const auto& f : space.functions()) {
    factors.fn.push_back(priors.fn_prior(
        catalog.fragment(fragments::FragmentType::kAggFunction, f.frag).fn));
  }
  factors.col.reserve(space.columns().size());
  for (const auto& c : space.columns()) {
    factors.col.push_back(priors.agg_col_prior(c.frag));
  }
  // Full Bernoulli restriction prior: restricted columns contribute pri,
  // unrestricted ones (1 - pri). The paper's formula drops the (1 - pri)
  // factors; at our smaller evaluation budget that simplification
  // systematically favors predicate-free candidates, so we keep the
  // complete likelihood (equivalent up to the per-claim constant
  // prod_i (1 - pri) divided out, which the simplified form ignores only
  // when comparing candidates with equal predicate sets).
  double all_unrestricted = 1.0;
  const size_t num_restrict = priors.num_restrict_components();
  for (size_t col = 0; col < num_restrict; ++col) {
    all_unrestricted *= 1.0 - priors.restrict_prior(static_cast<int>(col));
  }
  factors.subset.reserve(space.subsets().size());
  for (const auto& s : space.subsets()) {
    double p = all_unrestricted;
    for (int col : s.restrict_cols) {
      if (col < 0) continue;
      double pri = priors.restrict_prior(col);
      double complement = 1.0 - pri;
      if (complement < 1e-6) complement = 1e-6;
      p *= pri / complement;
    }
    factors.subset.push_back(p);
  }
  return factors;
}

namespace {

/// Relative slack of the per-axis bound. The exact score and the bound's
/// product multiply the same six factors in different orders, five
/// roundings each; while every partial product is a normal double (see
/// InNormalRange) both lie within 6e-16 relative of the real product, so a
/// 1e-9 slack over-covers the gap by six orders of magnitude.
constexpr double kBoundSlack = 1.0 + 1e-9;

/// True when every factor is finite and non-negative and no partial
/// product of one factor per axis can leave the normal range, the
/// precondition of the bound's error argument. Otherwise the caller scores
/// every valid candidate.
bool InNormalRange(const std::vector<const std::vector<double>*>& axes) {
  double log_lo = 0, log_hi = 0;
  for (const std::vector<double>* axis : axes) {
    double lo = 1, hi = 1;
    for (double v : *axis) {
      if (!(v >= 0) || !std::isfinite(v)) return false;
      if (v > 0) lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    log_lo += std::log(lo);
    log_hi += std::log(hi);
  }
  return log_lo > std::log(std::numeric_limits<double>::min()) + 1 &&
         log_hi < std::log(std::numeric_limits<double>::max()) - 1;
}

}  // namespace

// Exact top-n without scoring the cross product (DESIGN.md §18). A
// candidate's score is, up to rounding, the product of three per-axis
// factors (function, column, subset: keyword score times prior factor).
// A best-first frontier over the valid (f, c) pairs, walking the subsets
// in descending factor order, yields n valid candidates; the least exact
// score among them is a lower bound on the n-th best exact score. Every
// candidate whose slackened per-axis bound reaches it is then scored with
// the exact expression, and the pinned order picks the top n from those.
std::vector<ScoredTriple> TopTriples(const CandidateSpace& space,
                                     const PriorFactors* factors, size_t n) {
  const size_t nf = space.functions().size();
  const size_t nc = space.columns().size();
  const size_t ns = space.subsets().size();
  if (n == 0) return {};
  auto exact = [&](size_t f, size_t c, size_t s) {
    double score = space.KeywordScore(f, c, s);
    if (factors != nullptr) score *= factors->of(f, c, s);
    return score;
  };

  std::vector<double> kf(nf), kc(nc), ks(ns);
  for (size_t f = 0; f < nf; ++f) kf[f] = space.functions()[f].norm_score;
  for (size_t c = 0; c < nc; ++c) kc[c] = space.columns()[c].norm_score;
  for (size_t s = 0; s < ns; ++s) ks[s] = space.subsets()[s].norm_score;
  std::vector<const std::vector<double>*> axes{&kf, &kc, &ks};
  std::vector<double> af = kf, ac = kc, as = ks;  // per-axis factors
  if (factors != nullptr) {
    for (size_t f = 0; f < nf; ++f) af[f] *= factors->fn[f];
    for (size_t c = 0; c < nc; ++c) ac[c] *= factors->col[c];
    for (size_t s = 0; s < ns; ++s) as[s] *= factors->subset[s];
    axes.insert(axes.end(), {&factors->fn, &factors->col, &factors->subset});
  }

  // Subsets by factor, descending; a needs-predicate function skips the
  // empty subset.
  std::vector<size_t> order(ns);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return as[x] > as[y]; });
  auto next_valid = [&](size_t f, size_t c, size_t j) {
    while (j < ns && !space.Valid(f, c, order[j])) ++j;
    return j;
  };
  struct Pair {
    double factor;
    size_t f, c;
  };
  std::vector<Pair> pairs;
  for (size_t f = 0; f < nf; ++f) {
    for (size_t c = 0; c < nc; ++c) {
      if (space.Compatible(f, c)) pairs.push_back(Pair{af[f] * ac[c], f, c});
    }
  }

  // Threshold: the least exact score of n frontier candidates, or 0 (score
  // everything) when fewer exist or the bound's premise fails.
  double threshold = 0;
  if (InNormalRange(axes)) {
    struct Head {  // a pair's next valid subset, by per-axis product
      double product;
      size_t pair, j;
      bool operator<(const Head& o) const { return product < o.product; }
    };
    std::priority_queue<Head> frontier;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const size_t j = next_valid(pairs[p].f, pairs[p].c, 0);
      if (j < ns) frontier.push(Head{pairs[p].factor * as[order[j]], p, j});
    }
    double least = std::numeric_limits<double>::infinity();
    size_t taken = 0;
    for (; taken < n && !frontier.empty(); ++taken) {
      const Head head = frontier.top();
      frontier.pop();
      const Pair& pair = pairs[head.pair];
      least = std::min(least, exact(pair.f, pair.c, order[head.j]));
      const size_t j = next_valid(pair.f, pair.c, head.j + 1);
      if (j < ns) frontier.push(Head{pair.factor * as[order[j]], head.pair, j});
    }
    if (taken == n) threshold = least;
  }

  std::vector<ScoredTriple> triples;
  for (const Pair& pair : pairs) {
    for (size_t j = 0; j < ns; ++j) {
      const size_t s = order[j];
      if (pair.factor * as[s] * kBoundSlack < threshold) break;
      if (!space.Valid(pair.f, pair.c, s)) continue;
      triples.push_back(ScoredTriple{exact(pair.f, pair.c, s), pair.f,
                                     pair.c, s});
    }
  }
  if (triples.size() > n) {
    std::nth_element(triples.begin(), triples.begin() + n, triples.end(),
                     RanksBefore);
    triples.resize(n);
  }
  std::sort(triples.begin(), triples.end(), RanksBefore);
  return triples;
}

std::vector<ScoredTriple> CandidateSelector::Select(
    const PriorFactors& factors) {
  if (!use_priors_) return TopTriples(*space_, nullptr, top_n_);
  std::vector<ScoredTriple> triples = TopTriples(*space_, &factors, top_n_);
  if (num_valid_ <= top_n_) return triples;
  // The keyword-only ranking never changes across EM iterations.
  if (keyword_top_.empty()) {
    keyword_top_ =
        TopTriples(*space_, nullptr, std::max<size_t>(top_n_ / 2, 1));
  }
  // Union the keyword-only top half; its entries carry the prior-weighted
  // score for posterior ranking.
  std::vector<uint64_t> present;
  present.reserve(triples.size());
  for (const auto& t : triples) present.push_back(TripleKey(t.f, t.c, t.s));
  std::sort(present.begin(), present.end());
  const size_t selected = triples.size();
  for (ScoredTriple t : keyword_top_) {
    if (std::binary_search(present.begin(), present.end(),
                           TripleKey(t.f, t.c, t.s))) {
      continue;
    }
    t.score = space_->KeywordScore(t.f, t.c, t.s) * factors.of(t.f, t.c, t.s);
    triples.push_back(t);
  }
  if (triples.size() > selected) {
    std::sort(triples.begin(), triples.end(), RanksBefore);
  }
  return triples;
}

}  // namespace model
}  // namespace aggchecker
