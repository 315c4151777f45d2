#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "claims/claim_detector.h"
#include "claims/keyword_extractor.h"
#include "claims/relevance_scorer.h"
#include "corpus/harness.h"
#include "db/executor.h"
#include "db/sql_parser.h"
#include "model/translator.h"
#include "snapshot/snapshot.h"
#include "util/resource_governor.h"
#include "util/strings.h"

namespace perfbench {

namespace {

std::string Describe(const std::optional<double>& value) {
  return value.has_value() ? strings::Format("%.17g", *value) : "undefined";
}

/// Adds the counters and timers the per-layer report reads.
void AddEngine(const db::EvalStats& stats, db::EvalStats* sum) {
  sum->rows_scanned += stats.rows_scanned;
  sum->cube_queries += stats.cube_queries;
  sum->cache_hits += stats.cache_hits;
  sum->cache_misses += stats.cache_misses;
  sum->plans_built += stats.plans_built;
  sum->plan_cache_hits += stats.plan_cache_hits;
  sum->query_seconds += stats.query_seconds;
  sum->plan_seconds += stats.plan_seconds;
  sum->execute_seconds += stats.execute_seconds;
  sum->fold_seconds += stats.fold_seconds;
  sum->answer_seconds += stats.answer_seconds;
  sum->join_seconds += stats.join_seconds;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Whether the executor's result matches the reported one. Both undefined
/// is a match. Defined values may differ by 1e-9 relative: engine work such
/// as vectorised or parallel folds may reorder a SUM or AVG.
bool SameResult(const std::optional<double>& executed,
                const std::optional<double>& reported) {
  if (!executed.has_value() || !reported.has_value()) {
    return executed.has_value() == reported.has_value();
  }
  const double a = *executed, b = *reported;
  if (a == b) return true;  // also equal infinities
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(a));
}

}  // namespace

size_t AuditReport(const corpus::CorpusCase& truth, const db::Database& db,
                   const core::CheckReport& report,
                   corpus::ErrorDetectionMetrics* detection,
                   Outcome* outcome) {
  Status aligned = corpus::ValidateAlignment(truth, report);
  if (!aligned.ok()) {
    outcome->Error("misaligned: " + aligned.ToString());
    return std::max(report.verdicts.size(), truth.ground_truth.size());
  }
  if (detection != nullptr) {
    detection->Merge(corpus::ScoreErrorDetection(truth, report));
  }
  db::QueryExecutor executor(&db);
  size_t failed = 0;
  for (size_t i = 0; i < report.verdicts.size(); ++i) {
    const core::ClaimVerdict& verdict = report.verdicts[i];
    std::string problem;
    if (verdict.partial) {
      problem = verdict.recovery.quarantined ? "quarantined" : "partial";
    } else if (verdict.best() == nullptr) {
      problem = "no candidate query";
    } else {
      const model::RankedCandidate& top = *verdict.best();
      const std::string sql = top.query.ToSql();
      auto parsed = db::ParseSql(sql, db);
      if (!parsed.ok()) {
        problem = "top query does not parse: " + parsed.status().ToString();
      } else {
        auto result = executor.Execute(*parsed);
        if (!result.ok()) {
          problem = "executor: " + result.status().ToString();
        } else if (!SameResult(*result, top.result)) {
          problem = "executor gives " + Describe(*result) + ", reported " +
                    Describe(top.result);
        }
      }
      if (!problem.empty()) problem += " [" + sql + "]";
    }
    if (!problem.empty()) {
      ++failed;
      outcome->Error(strings::Format("%s claim %zu: ", truth.name.c_str(), i) +
                     problem);
    }
  }
  return failed;
}

Result<core::CheckReport> StagedCheck(core::AggChecker& checker,
                                      const text::TextDocument& doc,
                                      Tracer* tracer, int64_t doc_id) {
  const core::CheckOptions& options = checker.options();
  ScopedSpan root(tracer, "core.staged_check", -1, doc_id);

  std::vector<claims::Claim> detected;
  {
    ScopedSpan span(tracer, "claims.detect", root.id(), doc_id);
    detected = claims::ClaimDetector(options.detector).Detect(doc);
  }

  // Mirrors AggChecker::CheckDetected: a per-run governor attached to the
  // engine for the whole run, and the same model-option derivation.
  db::EvalEngine& engine = checker.engine();
  ResourceGovernor governor(options.governor);
  engine.SetGovernor(&governor);
  struct Detach {
    db::EvalEngine* engine;
    ~Detach() { engine->SetGovernor(nullptr); }
  } detach{&engine};

  std::vector<claims::ClaimRelevance> relevance;
  {
    ScopedSpan span(tracer, "claims.score", root.id(), doc_id);
    claims::KeywordExtractor extractor(options.context);
    claims::RelevanceScorer scorer(&checker.catalog(), extractor,
                                   options.model.lucene_hits);
    relevance = scorer.ScoreAll(doc, detected);
  }

  model::ModelOptions model = options.model;
  const bool fingerprint_path =
      options.query_fingerprints &&
      options.strategy != db::EvalStrategy::kNaive;
  model.probe_pruning = options.probe_pruning &&
                        (fingerprint_path || options.governor.unlimited());
  model.probe_verify = options.probe_verify;
  model.probe_backfill_top_k =
      std::max(model.probe_backfill_top_k, options.report_top_k);

  model::TranslationResult translation;
  {
    ScopedSpan span(tracer, "model.translate", root.id(), doc_id);
    translation = model::Translator(&checker.database(), &checker.catalog(),
                                    model)
                      .Translate(detected, relevance, &engine);
  }
  if (!translation.status.ok()) return translation.status;

  core::CheckReport report;
  {
    ScopedSpan span(tracer, "core.assemble", root.id(), doc_id);
    report.verdicts =
        core::AssembleVerdicts(detected, translation, options.report_top_k);
    for (size_t i = 0; i < report.verdicts.size() &&
                       i < translation.dependency_tables.size();
         ++i) {
      auto& deps = report.verdicts[i].dependencies;
      for (const std::string& table : translation.dependency_tables[i]) {
        deps.emplace_back(table, checker.database().TableVersion(table));
      }
    }
  }
  report.eval_stats = engine.stats();
  report.probe_stats = translation.probe_stats;
  report.em_iterations = translation.em_iterations;
  report.total_candidates = translation.total_candidates;
  report.queries_evaluated = translation.queries_evaluated;
  report.governor_usage = governor.usage();
  report.total_seconds = root.Close();
  return report;
}

size_t CountFragments(const fragments::FragmentCatalog& catalog) {
  return catalog.fragments(fragments::FragmentType::kAggFunction).size() +
         catalog.fragments(fragments::FragmentType::kAggColumn).size() +
         catalog.fragments(fragments::FragmentType::kPredicate).size();
}

void LayerReport::AddReport(const core::CheckReport& report) {
  detected += report.verdicts.size();
  candidates += report.total_candidates;
  queries_evaluated += report.queries_evaluated;
  em_iterations += static_cast<size_t>(report.em_iterations);
  probed += report.probe_stats.candidates_probed;
  pruned += report.probe_stats.candidates_pruned;
  AddEngine(report.eval_stats, &engine);
}

void LayerReport::AddStageSpans(const Tracer& tracer) {
  detect_s += tracer.Total("claims.detect");
  score_s += tracer.Total("claims.score");
  translate_s += tracer.Total("model.translate");
  assemble_s += tracer.Total("core.assemble");
  staged_s += tracer.Total("core.staged_check");
}

void LayerReport::Emit(Outcome* out) const {
  const double cp = check_passes > 0 ? check_passes : 1;
  const double rp = refresh_passes > 0 ? refresh_passes : 1;
  const size_t n = static_cast<size_t>(cp);
  auto per_pass = [cp](double v) { return v / cp; };
  auto count = [cp](size_t v) { return static_cast<double>(v) / cp; };
  out->Add("claims.detect_s", per_pass(detect_s), "s", n);
  out->Add("claims.score_s", per_pass(score_s), "s", n);
  out->Add("claims.detected", count(detected), "count", n);
  out->Add("fragments.catalog_build_s", catalog_build_s, "s");
  out->Add("fragments.count", static_cast<double>(fragments), "count");
  out->Add("snapshot.load_s", snapshot_load_s, "s");
  out->Add("snapshot.bytes", static_cast<double>(snapshot_bytes), "bytes");
  out->Add("model.translate_self_s",
           per_pass(translate_s - engine.query_seconds), "s", n);
  out->Add("model.candidates", count(candidates), "count", n);
  out->Add("model.queries_evaluated", count(queries_evaluated), "count", n);
  out->Add("model.em_iterations", count(em_iterations), "count", n);
  out->Add("model.probe_pruned_share",
           Ratio(static_cast<double>(pruned), static_cast<double>(probed)),
           "ratio", n);
  out->Add("db.query_s", per_pass(engine.query_seconds), "s", n);
  out->Add("db.plan_s", per_pass(engine.plan_seconds), "s", n);
  out->Add("db.execute_s", per_pass(engine.execute_seconds), "s", n);
  out->Add("db.fold_s", per_pass(engine.fold_seconds), "s", n);
  out->Add("db.answer_s", per_pass(engine.answer_seconds), "s", n);
  out->Add("db.join_s", per_pass(engine.join_seconds), "s", n);
  out->Add("db.rows_scanned", count(engine.rows_scanned), "count", n);
  out->Add("db.cube_queries", count(engine.cube_queries), "count", n);
  out->Add("db.cache_hit_ratio",
           Ratio(static_cast<double>(engine.cache_hits),
                 static_cast<double>(engine.cache_hits + engine.cache_misses)),
           "ratio", n);
  out->Add("db.plan_cache_hit_ratio",
           Ratio(static_cast<double>(engine.plan_cache_hits),
                 static_cast<double>(engine.plan_cache_hits +
                                     engine.plans_built)),
           "ratio", n);
  const size_t rn = static_cast<size_t>(rp);
  out->Add("db.append_s", append_s / rp, "s", rn);
  out->Add("db.cache_invalidations", static_cast<double>(invalidations) / rp,
           "count", rn);
  out->Add("core.recheck_s", recheck_s / rp, "s", rn);
  out->Add("core.splice_ratio",
           Ratio(static_cast<double>(spliced),
                 static_cast<double>(spliced + rechecked)),
           "ratio", rn);
  out->Add("core.create_s", per_pass(create_s), "s", n);
  out->Add("core.check_s", per_pass(check_s), "s", n);
  out->Add("core.assemble_s", per_pass(assemble_s), "s", n);
  // Stage time inside the span check_s covers, and the staged twin's time
  // over the same span.
  const double detect_in_check = check_includes_detect ? detect_s : 0.0;
  const double staged_layers =
      detect_in_check + score_s + translate_s + assemble_s;
  const double staged_check = staged_s - (detect_s - detect_in_check);
  out->Add("core.unattributed_s", per_pass(check_s - staged_layers), "s", n);
  out->Add("core.detection_f1", detection_f1, "ratio");
  out->Add("core.fleet.service_s", service_s, "s");
  out->Add("core.fleet.worker_busy_share", busy_share, "ratio");
  out->Add("trace.overhead_share", Ratio(staged_check - check_s, check_s),
           "ratio", n);
}

void RefreshDrill(const std::vector<DrillItem>& items,
                  const core::CheckOptions& options,
                  const std::string& out_dir, Tracer* tracer,
                  LayerReport* layers, Outcome* outcome) {
  for (size_t i = 0; i < items.size(); ++i) {
    const DrillItem& item = items[i];
    const int64_t id = static_cast<int64_t>(i);
    const std::string path =
        corpus::SnapshotPathForCase(out_dir, "drill-" + item.name);
    snapshot::SnapshotStats written;
    Status saved = snapshot::WriteSnapshot(path, *item.database,
                                           item.catalog.get(), nullptr,
                                           &written);
    if (!saved.ok()) {
      outcome->Error("drill snapshot write: " + saved.ToString());
      continue;
    }
    layers->snapshot_bytes += written.file_bytes;
    ScopedSpan load_span(tracer, "snapshot.load", -1, id);
    auto loaded = snapshot::LoadSnapshot(path);
    layers->snapshot_load_s += load_span.Close();
    std::remove(path.c_str());  // an open mapping outlives the name
    if (!loaded.ok()) {
      outcome->Error("drill snapshot load: " + loaded.status().ToString());
      continue;
    }

    core::CheckOptions opts = options;
    opts.prebuilt_catalog = loaded->catalog;
    std::vector<core::AggChecker> checkers;
    std::vector<core::CheckReport> priors;
    for (const text::TextDocument* doc : item.documents) {
      auto checker = core::AggChecker::Create(&loaded->database, opts);
      if (!checker.ok()) {
        outcome->Error("drill create: " + checker.status().ToString());
        break;
      }
      auto report = checker->Check(*doc);
      if (!report.ok()) {
        outcome->Error("drill check: " + report.status().ToString());
        break;
      }
      checkers.push_back(std::move(*checker));
      priors.push_back(std::move(*report));
    }
    if (checkers.size() != item.documents.size()) continue;

    ScopedSpan append_span(tracer, "db.append", -1, id);
    Status appended = corpus::AppendSyntheticRows(
        &loaded->database, loaded->database.table(0).name(), kAppendRows);
    layers->append_s += append_span.Close();
    if (!appended.ok()) {
      outcome->Error("drill append: " + appended.ToString());
      continue;
    }
    for (size_t d = 0; d < checkers.size(); ++d) {
      const db::EvalStats before = checkers[d].engine().stats();
      ScopedSpan recheck_span(tracer, "core.recheck", -1, id);
      auto report = checkers[d].ReCheck(*item.documents[d], priors[d]);
      layers->recheck_s += recheck_span.Close();
      if (!report.ok()) {
        outcome->Error("drill recheck: " + report.status().ToString());
        continue;
      }
      layers->invalidations +=
          checkers[d].engine().stats().cache_invalidations -
          before.cache_invalidations;
      layers->spliced += report->claims_spliced;
      layers->rechecked += report->claims_rechecked;
    }
  }
  layers->refresh_passes += 1;
}

}  // namespace perfbench
