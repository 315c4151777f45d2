// Verification-aware candidate pruning (DESIGN.md §17): reports with
// probe_pruning on must be bit-identical (FleetVerdictFingerprint) to the
// unpruned reference, with equal governor charge totals, across the
// embedded article corpus, thread counts, budgets, and ingestion-mutated
// databases. Probing runs on the naive strategy only, and only under an
// unlimited governor; the merged strategies never probe. Also pins the probe_verify zero-conflict contract (an
// unsound probe bound shows up here before it can ever flip a verdict) and
// the stale-stats regression: a probe decision must never outlive the
// data-version bump that invalidates it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "corpus/harness.h"
#include "db/database.h"
#include "db/table.h"
#include "text/document.h"
#include "util/rounding.h"

namespace aggchecker {
namespace {

struct RunOutcome {
  std::string fingerprint;
  core::CheckReport report;
};

/// One Check with `pruning` on/off; the unpruned run adopts `catalog` so
/// both sides translate over the identical fragment space. The naive
/// strategy is the default because that is where probing runs.
RunOutcome RunOnce(const db::Database* db, const text::TextDocument& doc,
                   bool pruning, size_t threads, uint64_t budget,
                   std::shared_ptr<const fragments::FragmentCatalog> catalog =
                       nullptr,
                   db::EvalStrategy strategy = db::EvalStrategy::kNaive) {
  core::CheckOptions options;
  options.strategy = strategy;
  options.probe_pruning = pruning;
  options.model.num_threads = threads;
  options.governor.max_row_scans = budget;
  options.prebuilt_catalog = std::move(catalog);
  auto checker = core::AggChecker::Create(db, options);
  EXPECT_TRUE(checker.ok());
  auto report = checker->Check(doc);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  RunOutcome out;
  out.fingerprint = core::FleetVerdictFingerprint(*report);
  out.report = std::move(*report);
  return out;
}

void ExpectChargeParity(const core::CheckReport& pruned,
                        const core::CheckReport& reference,
                        const std::string& where, size_t threads = 1) {
  // Charge totals are part of the bit-identity surface: a prune that
  // changed what the governor saw would make budgets non-reproducible.
  // (`checkpoints` is diagnostic and thread-dependent — excluded.)
  // One caveat, independent of pruning: when a budget trips at >1 thread,
  // in-flight workers may each land one more amortized charge block before
  // observing the trip, so the *total at exhaustion* is
  // interleaving-dependent (the same unpruned config run twice can differ
  // by a block). Exact row parity is asserted wherever charging is
  // deterministic — one thread, or an un-tripped budget; a tripped
  // multi-thread run still asserts the exhaustion flag and everything
  // downstream of it (the fingerprint covers the verdicts).
  // Pruning itself only runs under an unlimited governor, where it skips
  // scans outright: there the pruned run charges at most what the
  // reference does, and no budget exists whose exhaustion point could move.
  if (pruned.probe_stats.candidates_pruned > 0) {
    EXPECT_LE(pruned.governor_usage.rows_charged,
              reference.governor_usage.rows_charged)
        << where;
    EXPECT_LE(pruned.governor_usage.memory_bytes_charged,
              reference.governor_usage.memory_bytes_charged)
        << where;
  } else if (threads == 1 || !reference.governor_usage.exhausted) {
    EXPECT_EQ(pruned.governor_usage.rows_charged,
              reference.governor_usage.rows_charged)
        << where;
    EXPECT_EQ(pruned.governor_usage.cube_groups_charged,
              reference.governor_usage.cube_groups_charged)
        << where;
    EXPECT_EQ(pruned.governor_usage.memory_bytes_charged,
              reference.governor_usage.memory_bytes_charged)
        << where;
  }
  EXPECT_EQ(pruned.governor_usage.exhausted,
            reference.governor_usage.exhausted)
      << where;
}

// The sweep: every embedded article, 1/2/8 threads, with and without a
// row-scan budget, on the naive and the merged+cached strategies. Pruned
// and unpruned verdicts bit-identical, charge totals equal. Only the
// unbudgeted naive runs probe.
TEST(ProbePruningDiffTest, BitIdenticalAcrossCorpusThreadsAndBudgets) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  for (db::EvalStrategy strategy :
       {db::EvalStrategy::kNaive, db::EvalStrategy::kMergedCached}) {
    for (const corpus::CorpusCase& article : articles) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{20'000}}) {
          RunOutcome pruned =
              RunOnce(&article.database, article.document, /*pruning=*/true,
                      threads, budget, nullptr, strategy);
          RunOutcome reference =
              RunOnce(&article.database, article.document, /*pruning=*/false,
                      threads, budget, nullptr, strategy);
          std::string where = article.name + " " +
                              db::EvalStrategyName(strategy) + " threads=" +
                              std::to_string(threads) +
                              " budget=" + std::to_string(budget);
          EXPECT_EQ(pruned.fingerprint, reference.fingerprint) << where;
          ExpectChargeParity(pruned.report, reference.report, where,
                             threads);
          EXPECT_EQ(pruned.report.NumPartial(),
                    reference.report.NumPartial())
              << where;
          // The unpruned reference never probes; the pruned run probes
          // exactly where pruning is allowed to run.
          EXPECT_EQ(reference.report.probe_stats.candidates_probed, 0u);
          const bool probes =
              strategy == db::EvalStrategy::kNaive && budget == 0;
          EXPECT_EQ(pruned.report.probe_stats.candidates_probed > 0, probes)
              << where;
        }
      }
    }
  }
}

// The same identity sweep over a randomized generated corpus — schemas,
// vocabularies, and claim mixes the hand-written articles don't cover.
TEST(ProbePruningDiffTest, BitIdenticalOnGeneratedFleetCorpus) {
  corpus::GeneratorOptions gen;
  gen.num_cases = 6;
  gen.seed = 1234;
  auto cases = corpus::GenerateCorpus(gen);
  ASSERT_EQ(cases.size(), 6u);
  size_t total_probed = 0;
  for (const corpus::CorpusCase& c : cases) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      RunOutcome pruned =
          RunOnce(&c.database, c.document, /*pruning=*/true, threads, 0);
      RunOutcome reference =
          RunOnce(&c.database, c.document, /*pruning=*/false, threads, 0);
      EXPECT_EQ(pruned.fingerprint, reference.fingerprint)
          << c.name << " threads=" << threads;
      ExpectChargeParity(pruned.report, reference.report,
                         c.name + " threads=" + std::to_string(threads),
                         threads);
      total_probed += pruned.report.probe_stats.candidates_probed;
    }
  }
  EXPECT_GT(total_probed, 0u);
}

// probe_verify: every probe runs AND every candidate evaluates for real;
// any disagreement between a synthesized outcome and the actual evaluation
// is counted. Must be zero everywhere — a conflict is an unsound bound.
TEST(ProbePruningDiffTest, VerifyModeFindsNoConflicts) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  size_t total_probed = 0;
  for (const corpus::CorpusCase& article : articles) {
    for (bool naive : {false, true}) {
      core::CheckOptions options;
      options.probe_verify = true;
      if (naive) options.strategy = db::EvalStrategy::kNaive;
      auto checker = core::AggChecker::Create(&article.database, options);
      ASSERT_TRUE(checker.ok());
      auto report = checker->Check(article.document);
      ASSERT_TRUE(report.ok());
      EXPECT_EQ(report->probe_stats.probe_conflicts, 0u)
          << article.name << (naive ? " (naive)" : "")
          << ": synthesized and real outcomes disagreed";
      total_probed += report->probe_stats.candidates_probed;
    }
  }
  EXPECT_GT(total_probed, 0u);
}

// Magnitude pruning engages on the article corpus (claims whose value is
// orders of magnitude outside the aggregate's attainable range), and the
// reported top queries still carry honest results: a probe-decided
// candidate that reaches the report is backfilled with its real value, so
// `matches` is always consistent with `result`.
TEST(ProbePruningDiffTest, PrunesAndBackfillsHonestly) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  size_t total_pruned = 0;
  for (const corpus::CorpusCase& article : articles) {
    core::CheckOptions options;
    options.strategy = db::EvalStrategy::kNaive;
    auto checker = core::AggChecker::Create(&article.database, options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(article.document);
    ASSERT_TRUE(report.ok());
    total_pruned += report->probe_stats.candidates_pruned;
    for (const core::ClaimVerdict& v : report->verdicts) {
      for (const model::RankedCandidate& cand : v.top_queries) {
        if (!cand.result.has_value()) continue;
        EXPECT_EQ(cand.matches,
                  rounding::Matches(*cand.result, v.claim.claimed_value(),
                                    rounding::RoundingMode::kSignificantDigits))
            << article.name << ": reported match inconsistent with result";
      }
    }
  }
  EXPECT_GT(total_pruned, 0u)
      << "the probe never pruned anything on the whole corpus — the ladder "
         "is dead code or the bench gate will fail";
}

// Stale-stats regression: after UpdateCell rewrites (which may orphan
// catalog literals) and an append that moves the numeric bounds, the
// magnitude probe must decide against the current ColumnStats, never the
// pre-mutation ones. Pruned and unpruned runs stay bit-identical on the
// mutated data.
TEST(ProbePruningDiffTest, IngestionInvalidatesProbeDecisions) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  core::CheckOptions naive;
  naive.strategy = db::EvalStrategy::kNaive;

  // Stamp the fragment space before mutating: the catalog deliberately does
  // not track ingestion, so literals it indexed can go stale in the data.
  auto warm = core::AggChecker::Create(&article.database, naive);
  ASSERT_TRUE(warm.ok());
  auto baseline = warm->Check(article.document);
  ASSERT_TRUE(baseline.ok());
  auto catalog = warm->shared_catalog();

  // Mutate: rewrite row 0 of every string column of the first table to an
  // existing value of another row where possible (may orphan catalog
  // literals), and append rows that move the numeric bounds.
  db::Database& database = article.database;
  const db::Table& first = database.table(0);
  const std::string table_name = first.name();
  for (size_t c = 0; c < first.num_columns(); ++c) {
    const db::Column& col = first.column(c);
    if (col.type() != db::ValueType::kString || col.values().size() < 2) {
      continue;
    }
    ASSERT_TRUE(
        database.UpdateCell(table_name, 0, col.name(), col.values()[1]).ok());
  }
  ASSERT_TRUE(corpus::AppendSyntheticRows(&database, table_name, 16).ok());

  for (size_t threads : {size_t{1}, size_t{2}}) {
    RunOutcome pruned = RunOnce(&database, article.document,
                                /*pruning=*/true, threads, 0, catalog);
    RunOutcome reference = RunOnce(&database, article.document,
                                   /*pruning=*/false, threads, 0, catalog);
    EXPECT_EQ(pruned.fingerprint, reference.fingerprint)
        << "threads=" << threads;
    ExpectChargeParity(pruned.report, reference.report,
                       "mutated threads=" + std::to_string(threads), threads);
  }
}

// Incremental re-verification composes with pruning: ReCheck (pruning on)
// against a pruned prior is bit-identical to a from-scratch unpruned Check
// on the mutated data.
TEST(ProbePruningDiffTest, ReCheckWithPruningMatchesUnprunedScratch) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  core::CheckOptions naive;
  naive.strategy = db::EvalStrategy::kNaive;
  auto warm = core::AggChecker::Create(&article.database, naive);
  ASSERT_TRUE(warm.ok());
  auto prior = warm->Check(article.document);
  ASSERT_TRUE(prior.ok());

  ASSERT_TRUE(
      corpus::AppendSyntheticRows(&article.database, "gifts", 12).ok());
  auto recheck = warm->ReCheck(article.document, *prior);
  ASSERT_TRUE(recheck.ok());
  EXPECT_GT(prior->probe_stats.candidates_probed, 0u);

  RunOutcome reference =
      RunOnce(&article.database, article.document, /*pruning=*/false, 1, 0,
              warm->shared_catalog());
  EXPECT_EQ(core::FleetVerdictFingerprint(*recheck), reference.fingerprint);
}

// The naive strategy prunes by skipping evaluation outright —
// work-proportional charging — so the translator enables it only under an
// unlimited governor, where it must stay bit-identical to the unpruned run;
// any budget forces it probe-free.
TEST(ProbePruningDiffTest, NaivePathPrunesOnlyWhenUnbudgeted) {
  corpus::CorpusCase article = corpus::MakeNflCase();

  core::CheckOptions pruned;
  pruned.strategy = db::EvalStrategy::kNaive;
  pruned.probe_pruning = true;
  core::CheckOptions reference = pruned;
  reference.probe_pruning = false;
  auto pruned_checker = core::AggChecker::Create(&article.database, pruned);
  ASSERT_TRUE(pruned_checker.ok());
  auto reference_checker =
      core::AggChecker::Create(&article.database, reference);
  ASSERT_TRUE(reference_checker.ok());
  auto pruned_report = pruned_checker->Check(article.document);
  ASSERT_TRUE(pruned_report.ok());
  auto reference_report = reference_checker->Check(article.document);
  ASSERT_TRUE(reference_report.ok());
  EXPECT_GT(pruned_report->probe_stats.candidates_probed, 0u);
  EXPECT_EQ(core::FleetVerdictFingerprint(*pruned_report),
            core::FleetVerdictFingerprint(*reference_report));

  // Under a budget the naive strategy has no way to prune without moving
  // the governor's exhaustion point, so the translator keeps it probe-free.
  core::CheckOptions budgeted = pruned;
  budgeted.governor.max_row_scans = 20'000;
  auto budgeted_checker =
      core::AggChecker::Create(&article.database, budgeted);
  ASSERT_TRUE(budgeted_checker.ok());
  auto budgeted_report = budgeted_checker->Check(article.document);
  ASSERT_TRUE(budgeted_report.ok());
  EXPECT_EQ(budgeted_report->probe_stats.candidates_probed, 0u);
}

}  // namespace
}  // namespace aggchecker
