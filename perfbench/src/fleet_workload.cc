// fleet: 300 generated articles over 8 shared datasets, drained by
// core::RunFleet with 4 workers x 1 intra-document thread. Every document
// pays AggChecker::Create (a catalog build) plus Check; parallelism is
// across documents. Each timed drain starts from cold relation caches, so
// every drain does identical work.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet_scheduler.h"
#include "corpus/fleet_generator.h"
#include "corpus/harness.h"
#include "db/relation_cache.h"
#include "pipeline.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kDrillArticlesPerDataset = 5;

corpus::FleetSpec Spec(uint64_t seed) {
  corpus::FleetSpec spec;
  spec.seed = seed;
  spec.num_articles = 300;
  spec.num_datasets = 8;
  spec.claims_per_article = 5;
  spec.num_dim_columns = 12;
  spec.num_measure_columns = 4;
  spec.rows_per_dataset = 1500;
  spec.dim_cardinality = 24;
  return spec;
}

/// Every document of the fleet through StagedCheck on kParallelThreads threads,
/// each document on a fresh checker, as RunFleet's workers do it.
std::vector<Result<core::CheckReport>> StagedDrain(
    const std::vector<core::FleetDocument>& documents,
    const core::CheckOptions& options, Tracer* tracer) {
  std::vector<Result<core::CheckReport>> reports(
      documents.size(), Result<core::CheckReport>(Status::Internal("not run")));
  std::vector<Tracer> tracers(kParallelThreads);
  std::atomic<size_t> next{0};
  auto work = [&](size_t worker) {
    Tracer* t = &tracers[worker];
    for (size_t i = next++; i < documents.size(); i = next++) {
      const int64_t doc_id = static_cast<int64_t>(i);
      ScopedSpan create_span(t, "core.create", -1, doc_id);
      auto checker = core::AggChecker::Create(documents[i].database, options);
      create_span.Close();
      if (!checker.ok()) {
        reports[i] = checker.status();
        continue;
      }
      reports[i] = StagedCheck(*checker, *documents[i].document, t, doc_id);
    }
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kParallelThreads; ++w) threads.emplace_back(work, w);
  for (std::thread& thread : threads) thread.join();
  for (const Tracer& t : tracers) tracer->Merge(t);
  return reports;
}

void ClearRelationCaches(const corpus::FleetCorpus& fleet) {
  for (const auto& dataset : fleet.datasets) dataset->relation_cache().Clear();
}

}  // namespace

Outcome RunFleetWorkload(const RunArgs& args) {
  Outcome out;
  const corpus::FleetCorpus fleet = corpus::GenerateFleet(Spec(args.seed));
  const std::vector<core::FleetDocument> documents =
      corpus::FleetDocuments(fleet);
  // Ground truth in the corpus-case shape the audits take.
  std::vector<corpus::CorpusCase> truth(fleet.articles.size());
  size_t rows = 0;
  for (const auto& dataset : fleet.datasets) rows += dataset->TotalRows();
  for (size_t i = 0; i < fleet.articles.size(); ++i) {
    truth[i].name = fleet.articles[i].name;
    truth[i].ground_truth = fleet.articles[i].ground_truth;
  }
  std::printf("# input: %zu documents, %zu claims, %zu datasets, %zu rows\n",
              fleet.articles.size(), fleet.TotalClaims(), fleet.datasets.size(),
              rows);

  core::FleetOptions options;
  options.num_threads = kParallelThreads;
  options.check.model.num_threads = 1;
  core::CheckOptions per_document = options.check;
  per_document.governor =
      core::SliceGovernorBudget(options.check.governor, documents.size());

  // Setup: the catalog every worker builds for a dataset, once per dataset.
  EndToEnd e2e;
  LayerReport layers;
  std::vector<std::shared_ptr<const fragments::FragmentCatalog>> catalogs;
  e2e.setup_seconds = RepeatSetup([&]() -> double {
    catalogs.clear();
    Timer timer;
    for (const auto& dataset : fleet.datasets) {
      auto catalog = fragments::FragmentCatalog::Build(*dataset,
                                                       per_document.catalog);
      if (!catalog.ok()) {
        out.Error("catalog: " + catalog.status().ToString());
        return -1;
      }
      catalogs.push_back(std::make_shared<const fragments::FragmentCatalog>(
          std::move(*catalog)));
    }
    return timer.ElapsedSeconds();
  });
  if (!out.errors.empty()) return out;
  layers.catalog_build_s = Median(e2e.setup_seconds);
  for (const auto& catalog : catalogs) {
    layers.fragments += CountFragments(*catalog);
  }

  Tracer tracer;
  std::vector<std::string> fingerprints(documents.size());
  FastestPass fastest(documents.size());
  double best_claims_per_s = 0;
  double drain_wall = 0;
  size_t drains = 0;
  Timer wall;
  while (drains < kMinPasses || wall.ElapsedSeconds() < args.seconds) {
    const bool staged_first = args.trace && drains % 2 == 1;
    std::vector<Result<core::CheckReport>> staged;
    if (staged_first) {
      ClearRelationCaches(fleet);
      staged = StagedDrain(documents, per_document, &tracer);
    }
    ClearRelationCaches(fleet);
    const core::FleetRunResult run = core::RunFleet(documents, options);
    if (args.trace && !staged_first) {
      ClearRelationCaches(fleet);
      staged = StagedDrain(documents, per_document, &tracer);
    }
    drain_wall += run.total_seconds;
    fastest.EndPass(run.total_seconds);
    best_claims_per_s = std::max(best_claims_per_s, run.throughput());

    for (size_t i = 0; i < run.documents.size(); ++i) {
      const core::FleetDocumentResult& doc = run.documents[i];
      out.attempted += truth[i].ground_truth.size();
      if (!doc.status.ok()) {
        out.failed += truth[i].ground_truth.size();
        out.Error(truth[i].name + ": " + doc.status.ToString());
        continue;
      }
      fastest.Request(i, doc.report.total_seconds);
      layers.check_s += doc.report.total_seconds;
      const std::string fingerprint =
          core::FleetVerdictFingerprint(doc.report);
      if (drains == 0) {
        out.failed += AuditReport(truth[i], *documents[i].database,
                                  doc.report, &e2e.detection, &out);
        fingerprints[i] = fingerprint;
      } else if (fingerprint != fingerprints[i]) {
        out.failed += doc.report.verdicts.size();
        out.Error(truth[i].name + ": verdicts differ from the first drain");
      }
      if (args.trace) {
        if (!staged[i].ok()) {
          out.Error(truth[i].name + ": staged: " +
                    staged[i].status().ToString());
        } else if (core::FleetVerdictFingerprint(*staged[i]) != fingerprint) {
          out.Error(truth[i].name + ": staged pipeline verdicts differ from "
                    "Check");
        } else {
          layers.AddReport(*staged[i]);
        }
      }
    }
    ++drains;
  }
  std::printf("# timed: %zu drains of %zu documents in %.3f s (%s)\n",
              drains, documents.size(), wall.ElapsedSeconds(),
              fastest.Describe().c_str());
  // Throughput is the fastest drain's: 4 workers overlap the documents,
  // so their service times do not add up to a drain.
  e2e.doc_latency = fastest.Latencies();
  e2e.claims_per_s = best_claims_per_s;
  e2e.claims_per_s_samples = drains;
  if (!args.trace) {
    e2e.Emit(&out);
    return out;
  }

  layers.check_passes = static_cast<double>(drains);
  layers.check_includes_detect = false;
  layers.AddStageSpans(tracer);
  // Create runs inside RunFleet where it cannot be timed from outside; the
  // staged drains time it under the same 4-way concurrency.
  layers.create_s = tracer.Total("core.create");
  layers.service_s = (layers.create_s + layers.check_s) / layers.check_passes;
  layers.busy_share = (layers.create_s + layers.check_s) /
                      (static_cast<double>(kParallelThreads) * drain_wall);
  std::vector<DrillItem> drill;
  for (size_t d = 0; d < fleet.datasets.size(); ++d) {
    DrillItem item{"dataset" + std::to_string(d), fleet.datasets[d].get(),
                   catalogs[d], {}};
    for (const corpus::FleetArticle& article : fleet.articles) {
      if (article.dataset == d &&
          item.documents.size() < kDrillArticlesPerDataset) {
        item.documents.push_back(&article.document);
      }
    }
    drill.push_back(std::move(item));
  }
  RefreshDrill(drill, per_document, args.out_dir, &tracer, &layers, &out);
  layers.detection_f1 = e2e.detection.F1();
  layers.Emit(&out);
  WriteTrace(tracer, args, &out);
  return out;
}

}  // namespace perfbench
