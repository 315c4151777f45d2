// Differential tests of the model layer's candidate ranking: the k-best
// selection (TopTriples, CandidateSelector) and the compact predicate-subset
// build (TopPredicateSubsets) against the full-enumeration references in
// tests/support/candidate_oracle. Spaces are seeded random draws over
// generated schemas, with scores drawn from small sets so ties are common.
// See DESIGN.md §18.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "model/candidate_selection.h"
#include "model/candidate_space.h"
#include "model/priors.h"
#include "support/candidate_oracle.h"
#include "util/rng.h"
#include "util/strings.h"

namespace aggchecker {
namespace model {
namespace {

using fragments::FragmentType;

struct Schema {
  corpus::CorpusCase test_case;
  std::unique_ptr<fragments::FragmentCatalog> catalog;
};

std::vector<Schema> Schemas() {
  corpus::GeneratorOptions gen;
  gen.num_cases = 3;
  gen.seed = 1913;
  std::vector<Schema> schemas;
  for (size_t i = 0; i < gen.num_cases; ++i) {
    Schema schema;
    schema.test_case = corpus::GenerateCase(i, gen);
    auto catalog = fragments::FragmentCatalog::Build(schema.test_case.database);
    EXPECT_TRUE(catalog.ok());
    schema.catalog =
        std::make_unique<fragments::FragmentCatalog>(std::move(*catalog));
    schemas.push_back(std::move(schema));
  }
  return schemas;
}

/// One element of `values`, uniformly.
template <typename T = double>
T Draw(Rng* rng, const std::vector<T>& values) {
  return values[rng->NextBounded(values.size())];
}

/// Up to `max_hits` distinct fragments of `type`, scores from `scores`.
std::vector<fragments::ScoredFragment> RandomHits(
    const fragments::FragmentCatalog& catalog, FragmentType type,
    size_t max_hits, const std::vector<double>& scores, Rng* rng) {
  std::vector<int> all(catalog.fragments(type).size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  rng->Shuffle(&all);
  all.resize(std::min(all.size(), rng->NextBounded(max_hits + 1)));
  std::vector<fragments::ScoredFragment> hits;
  for (int frag : all) {
    hits.push_back(fragments::ScoredFragment{frag, Draw(rng, scores)});
  }
  return hits;
}

claims::ClaimRelevance RandomRelevance(
    const fragments::FragmentCatalog& catalog, size_t max_predicate_hits,
    Rng* rng) {
  claims::ClaimRelevance rel;
  rel.functions = RandomHits(catalog, FragmentType::kAggFunction, 4,
                             {0.0, 1.0, 2.0}, rng);
  rel.columns = RandomHits(catalog, FragmentType::kAggColumn, 14,
                           {0.5, 1.0, 1.0, 2.0}, rng);
  rel.predicates = RandomHits(catalog, FragmentType::kPredicate,
                              max_predicate_hits, {1.0, 1.0, 2.0, 3.0}, rng);
  return rel;
}

/// Prior factors with values from small sets (exact products tie).
PriorFactors RandomFactors(const CandidateSpace& space, Rng* rng) {
  PriorFactors factors;
  for (size_t f = 0; f < space.functions().size(); ++f) {
    factors.fn.push_back(Draw(rng, {0.125, 0.25, 0.25, 0.5}));
  }
  for (size_t c = 0; c < space.columns().size(); ++c) {
    factors.col.push_back(Draw(rng, {0.0625, 0.125, 0.125}));
  }
  for (size_t s = 0; s < space.subsets().size(); ++s) {
    factors.subset.push_back(Draw(rng, {0.5, 1.0, 1.0, 4.0}));
  }
  return factors;
}

std::string Render(const std::vector<ScoredTriple>& triples) {
  std::string out;
  for (const ScoredTriple& t : triples) {
    out += strings::Format("%a (%zu,%zu,%zu)\n", t.score, t.f, t.c, t.s);
  }
  return out;
}

std::string Render(const std::vector<PredicateSubset>& subsets) {
  std::string out;
  for (const PredicateSubset& s : subsets) {
    out += strings::Format("%a", s.norm_score);
    for (size_t i = 0; i < s.frags.size(); ++i) {
      out += strings::Format(" %d@%d", s.frags[i], s.restrict_cols[i]);
    }
    out += "\n";
  }
  return out;
}

/// Budgets around the space's valid count: 1, small, inside, at, past.
std::vector<size_t> Budgets(const CandidateSpace& space) {
  const size_t valid = space.NumValid();
  return {1, 2, 7, 40, valid / 3 + 1, valid, valid + 5};
}

TEST(CandidateSelectionDiffTest, TopTriplesMatchesFullEnumeration) {
  std::vector<Schema> schemas = Schemas();
  Rng rng(20261019);
  size_t compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Schema& schema = schemas[trial % schemas.size()];
    ModelOptions options;
    options.max_predicates = static_cast<int>(rng.NextBounded(4));
    options.max_pred_subsets = Draw<size_t>(&rng, {1, 5, 60, 200, 5000});
    const size_t pred_hits = trial % 10 == 0 ? 0 : 12;
    CandidateSpace space = CandidateSpace::Build(
        schema.test_case.database, *schema.catalog,
        RandomRelevance(*schema.catalog, pred_hits, &rng), options);
    const PriorFactors factors = RandomFactors(space, &rng);
    for (size_t n : Budgets(space)) {
      const std::string where = strings::Format(
          "trial %d n=%zu valid=%zu", trial, n, space.NumValid());
      EXPECT_EQ(Render(TopTriples(space, nullptr, n)),
                Render(ReferenceTopTriples(space, nullptr, n)))
          << where << " keyword-only";
      EXPECT_EQ(Render(TopTriples(space, &factors, n)),
                Render(ReferenceTopTriples(space, &factors, n)))
          << where << " prior-weighted";
      ++compared;
    }
  }
  EXPECT_EQ(compared, 60u * 7u);
}

// Several EM iterations through one selector (the keyword-only half is
// computed once and reused), priors on and off.
TEST(CandidateSelectionDiffTest, SelectorMatchesReferenceAcrossIterations) {
  std::vector<Schema> schemas = Schemas();
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const Schema& schema = schemas[trial % schemas.size()];
    ModelOptions options;
    options.max_pred_subsets = Draw<size_t>(&rng, {3, 50, 200});
    CandidateSpace space = CandidateSpace::Build(
        schema.test_case.database, *schema.catalog,
        RandomRelevance(*schema.catalog, trial % 8 == 0 ? 0 : 20, &rng),
        options);
    for (size_t top_n : Budgets(space)) {
      for (bool use_priors : {true, false}) {
        CandidateSelector selector(space, use_priors, top_n);
        for (int iter = 0; iter < 3; ++iter) {
          const PriorFactors factors = RandomFactors(space, &rng);
          EXPECT_EQ(Render(selector.Select(factors)),
                    Render(ReferenceSelect(space, factors, use_priors, top_n)))
              << "trial " << trial << " top_n=" << top_n
              << " priors=" << use_priors << " iter=" << iter;
        }
      }
    }
  }
}

// A claim without predicate hits has only the empty subset, which
// needs-predicate functions (ConditionalProbability) may not use.
TEST(CandidateSelectionDiffTest, OnlyEmptySubsetSkipsNeedsPredicate) {
  std::vector<Schema> schemas = Schemas();
  Rng rng(5);
  claims::ClaimRelevance rel = RandomRelevance(*schemas[0].catalog, 0, &rng);
  ASSERT_TRUE(rel.predicates.empty());
  CandidateSpace space = CandidateSpace::Build(
      schemas[0].test_case.database, *schemas[0].catalog, rel, ModelOptions{});
  ASSERT_EQ(space.subsets().size(), 1u);
  const size_t valid = space.NumValid();
  ASSERT_GT(valid, 0u);
  const std::vector<ScoredTriple> all = TopTriples(space, nullptr, valid + 1);
  EXPECT_EQ(all.size(), valid);
  for (const ScoredTriple& t : all) {
    const auto& fn = schemas[0].catalog->fragment(
        FragmentType::kAggFunction, space.functions()[t.f].frag);
    EXPECT_NE(fn.fn, db::AggFn::kConditionalProbability);
  }
  EXPECT_EQ(Render(all), Render(ReferenceTopTriples(space, nullptr, valid)));
}

// Factors far outside the normal range void the per-axis bound's error
// argument; the selection then scores every candidate and stays exact.
TEST(CandidateSelectionDiffTest, ExtremeFactorsFallBackToFullScoring) {
  std::vector<Schema> schemas = Schemas();
  Rng rng(11);
  CandidateSpace space = CandidateSpace::Build(
      schemas[1].test_case.database, *schemas[1].catalog,
      RandomRelevance(*schemas[1].catalog, 12, &rng), ModelOptions{});
  PriorFactors factors = RandomFactors(space, &rng);
  for (double& v : factors.fn) v *= 1e-150;
  for (double& v : factors.subset) v *= 1e-160;
  for (size_t n : Budgets(space)) {
    EXPECT_EQ(Render(TopTriples(space, &factors, n)),
              Render(ReferenceTopTriples(space, &factors, n)))
        << "n=" << n;
  }
}

TEST(CandidateSelectionDiffTest, PredicateSubsetsMatchFullGeneration) {
  std::vector<Schema> schemas = Schemas();
  Rng rng(314);
  size_t cut_in_tie = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Schema& schema = schemas[trial % schemas.size()];
    std::vector<ScoredOption> preds;
    for (const auto& hit : RandomHits(*schema.catalog,
                                      FragmentType::kPredicate, 16,
                                      {0.25, 0.25, 0.5, 1.0}, &rng)) {
      preds.push_back(ScoredOption{hit.fragment_index, hit.score});
    }
    const int max_predicates = static_cast<int>(rng.NextBounded(4));
    const std::vector<PredicateSubset> all = ReferencePredicateSubsets(
        *schema.catalog, preds, max_predicates, static_cast<size_t>(-1));
    // Cuts at the first of the keyword ties, inside a tie block, and at
    // or past the end.
    std::vector<size_t> cuts{0, 1, all.size(), all.size() + 3,
                             Draw<size_t>(&rng, {5, 60, 200})};
    for (size_t i = 1; i < all.size(); ++i) {
      if (all[i].norm_score == all[i - 1].norm_score && i + 1 < all.size() &&
          all[i + 1].norm_score == all[i].norm_score) {
        cuts.push_back(i);  // keeps all[i - 1] but not its tie mates
        ++cut_in_tie;
        break;
      }
    }
    for (size_t cut : cuts) {
      EXPECT_EQ(
          Render(TopPredicateSubsets(*schema.catalog, preds, max_predicates,
                                     cut)),
          Render(ReferencePredicateSubsets(*schema.catalog, preds,
                                           max_predicates, cut)))
          << "trial " << trial << " max_predicates=" << max_predicates
          << " cut=" << cut;
    }
  }
  EXPECT_GT(cut_in_tie, 20u);
}

}  // namespace
}  // namespace model
}  // namespace aggchecker
