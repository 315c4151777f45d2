#pragma once

// The benchmark's view of the checker: output audits that do not trust the
// code path under test, the staged twin of AggChecker::Check that the
// traced runs time layer by layer, and the per-layer metric set.

#include <memory>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "corpus/corpus_case.h"
#include "corpus/metrics.h"
#include "report.h"

namespace perfbench {

using namespace aggchecker;

/// Intra-document threads (ModelOptions::num_threads) of every workload.
/// With 4, spawning and syncing a pool per request made the check
/// workloads' timings swing with host load: quartile spreads of 0.3-0.45
/// across seeds, where fleet's single-threaded workers stayed near 0.1.
/// Parallelism is measured across documents by fleet.
constexpr size_t kDocumentThreads = 1;

/// Fleet workers, and the thread count of article_check's determinism
/// cross-check.
constexpr size_t kParallelThreads = 4;

/// \brief Audits one report against ground truth and an independent
/// evaluation of its answers.
///
/// - alignment: corpus::ValidateAlignment against `truth` (a misaligned
///   document fails every one of its claims);
/// - every partial or quarantined claim fails;
/// - every verdict's top-1 query is re-evaluated from its SQL text
///   (ToSql -> db::ParseSql -> db::QueryExecutor::Execute, row at a time,
///   no cube path, no cache) and must equal the reported result, to 1e-9
///   relative (undefined only equals undefined).
/// Returns the number of failed claims; adds detection counts to
/// `detection` when aligned. Failures are described in `outcome`.
size_t AuditReport(const corpus::CorpusCase& truth, const db::Database& db,
                   const core::CheckReport& report,
                   corpus::ErrorDetectionMetrics* detection, Outcome* outcome);

/// \brief AggChecker::Check, one stage at a time, timed from outside.
///
/// Calls ClaimDetector::Detect -> RelevanceScorer::ScoreAll ->
/// Translator::Translate on the checker's engine -> AssembleVerdicts with
/// the options CheckDetected derives, recording a span per stage under a
/// root "core.staged_check" span. The report must be verdict-identical to
/// `checker.Check(doc)` (callers compare FleetVerdictFingerprints).
Result<core::CheckReport> StagedCheck(core::AggChecker& checker,
                                      const text::TextDocument& doc,
                                      Tracer* tracer, int64_t doc_id);

/// \brief Per-layer numbers of a traced run (see perfbench/WORKLOADS.md).
///
/// Check-pipeline fields are sums over `check_passes` passes over the
/// workload's documents; refresh fields are sums over `refresh_passes`
/// refresh rounds; cold-start and serving fields are already per pass.
struct LayerReport {
  double check_passes = 0;
  double detect_s = 0, score_s = 0, translate_s = 0, assemble_s = 0;
  double create_s = 0;  ///< AggChecker::Create with a prebuilt catalog
  double check_s = 0;   ///< AggChecker::Check on the same documents
  /// Whether check_s includes claim detection. RunFleet's reports time
  /// Check from after ClaimDetector::Detect (CheckReport::total_seconds),
  /// so on fleet the unattributed time and the tracing overhead leave
  /// claims.detect out of the staged side as well.
  bool check_includes_detect = true;
  double staged_s = 0;  ///< StagedCheck, the traced twin of check_s
  size_t detected = 0;
  size_t candidates = 0, queries_evaluated = 0, em_iterations = 0;
  size_t probed = 0, pruned = 0;
  db::EvalStats engine;  ///< summed engine counters and phase timers

  double refresh_passes = 0;
  double append_s = 0, recheck_s = 0;
  size_t invalidations = 0, spliced = 0, rechecked = 0;

  double catalog_build_s = 0;
  size_t fragments = 0;
  double snapshot_load_s = 0;
  uint64_t snapshot_bytes = 0;

  double service_s = 0;   ///< serving work (create + check) per pass
  double busy_share = 0;  ///< serving work / (workers x wall)

  double detection_f1 = 0;  ///< erroneous-claim F1 against ground truth

  /// Adds one Check report's model and engine counters.
  void AddReport(const core::CheckReport& report);
  /// Adds the claims/model/assemble stage times recorded in `tracer`.
  void AddStageSpans(const Tracer& tracer);
  /// Emits every per-layer metric, in a fixed order.
  void Emit(Outcome* outcome) const;
};

/// Total fragments of a catalog, all three types.
size_t CountFragments(const fragments::FragmentCatalog& catalog);

/// One dataset and the documents written about it, for RefreshDrill.
struct DrillItem {
  std::string name;
  const db::Database* database = nullptr;
  std::shared_ptr<const fragments::FragmentCatalog> catalog;
  std::vector<const text::TextDocument*> documents;
};

/// \brief The snapshot and ingestion layers on a workload's own data.
///
/// Traced runs of the workloads without ingestion call this so that every
/// per-layer metric is measured on every workload. For each item: write a
/// snapshot, time LoadSnapshot, check every document against the loaded
/// copy, time AppendRows of kAppendRows rows to its first table, and time
/// ReCheck of every document. Fills the snapshot and refresh fields of
/// `layers` (one refresh pass per drill).
void RefreshDrill(const std::vector<DrillItem>& items,
                  const core::CheckOptions& options,
                  const std::string& out_dir, Tracer* tracer,
                  LayerReport* layers, Outcome* outcome);

/// Rows appended per refresh (ingest_recheck rounds and the drill).
constexpr size_t kAppendRows = 64;

}  // namespace perfbench
