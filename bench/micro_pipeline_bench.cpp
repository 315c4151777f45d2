// Micro-benchmarks of the translation pipeline (google-benchmark):
// inverted-index retrieval, keyword extraction, candidate-space
// construction, per-claim candidate selection, and one end-to-end document
// check.

#include <benchmark/benchmark.h>

#include "claims/claim_detector.h"
#include "claims/relevance_scorer.h"
#include "core/aggchecker.h"
#include "corpus/embedded_articles.h"
#include "model/candidate_selection.h"
#include "model/candidate_space.h"
#include "model/priors.h"

namespace aggchecker {
namespace {

struct PipelineFixture {
  PipelineFixture() : test_case(corpus::MakeNflCase()) {
    auto built = fragments::FragmentCatalog::Build(test_case.database);
    catalog = std::make_unique<fragments::FragmentCatalog>(
        std::move(*built));
    detected = claims::ClaimDetector().Detect(test_case.document);
    claims::RelevanceScorer scorer(catalog.get(),
                                   claims::KeywordExtractor(), 20);
    relevance = scorer.ScoreAll(test_case.document, detected);
  }
  corpus::CorpusCase test_case;
  std::unique_ptr<fragments::FragmentCatalog> catalog;
  std::vector<claims::Claim> detected;
  std::vector<claims::ClaimRelevance> relevance;
};

PipelineFixture& Fixture() {
  static PipelineFixture* kFixture = new PipelineFixture();
  return *kFixture;
}

void BM_KeywordExtraction(benchmark::State& state) {
  auto& f = Fixture();
  claims::KeywordExtractor extractor;
  for (auto _ : state) {
    for (const auto& claim : f.detected) {
      benchmark::DoNotOptimize(
          extractor.Extract(f.test_case.document, claim));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.detected.size()));
}
BENCHMARK(BM_KeywordExtraction);

void BM_FragmentRetrieval(benchmark::State& state) {
  auto& f = Fixture();
  claims::RelevanceScorer scorer(f.catalog.get(),
                                 claims::KeywordExtractor(), 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scorer.ScoreAll(f.test_case.document, f.detected));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.detected.size()));
}
BENCHMARK(BM_FragmentRetrieval);

void BM_CandidateSpaceBuild(benchmark::State& state) {
  auto& f = Fixture();
  model::ModelOptions options;
  for (auto _ : state) {
    for (const auto& rel : f.relevance) {
      benchmark::DoNotOptimize(model::CandidateSpace::Build(
          f.test_case.database, *f.catalog, rel, options));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.relevance.size()));
}
BENCHMARK(BM_CandidateSpaceBuild);

// PickScope's selection for every claim of the document at the default
// budget (160 per claim), under uniform priors: a fresh selector and two
// Select calls, the first EM iteration and a later one.
void BM_CandidateSelection(benchmark::State& state) {
  auto& f = Fixture();
  model::ModelOptions options;
  std::vector<model::CandidateSpace> spaces;
  std::vector<model::PriorFactors> factors;
  const model::Priors priors = model::Priors::Uniform(*f.catalog);
  for (const auto& rel : f.relevance) {
    spaces.push_back(model::CandidateSpace::Build(f.test_case.database,
                                                  *f.catalog, rel, options));
    factors.push_back(
        model::PriorFactors::Compute(spaces.back(), priors, *f.catalog));
  }
  for (auto _ : state) {
    for (size_t i = 0; i < spaces.size(); ++i) {
      model::CandidateSelector selector(spaces[i], options.use_priors,
                                        options.max_eval_per_claim);
      benchmark::DoNotOptimize(selector.Select(factors[i]));
      benchmark::DoNotOptimize(selector.Select(factors[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spaces.size()));
}
BENCHMARK(BM_CandidateSelection);

void BM_CatalogBuild(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fragments::FragmentCatalog::Build(f.test_case.database));
  }
}
BENCHMARK(BM_CatalogBuild);

void BM_EndToEndCheck(benchmark::State& state) {
  auto& f = Fixture();
  for (auto _ : state) {
    auto checker = core::AggChecker::Create(&f.test_case.database);
    benchmark::DoNotOptimize(checker->Check(f.test_case.document));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(f.test_case.ground_truth.size()));
}
BENCHMARK(BM_EndToEndCheck);

}  // namespace
}  // namespace aggchecker

BENCHMARK_MAIN();
