#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "db/database.h"
#include "text/document.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace aggchecker {
namespace core {

/// \brief One unit of fleet work: a document's claim batch over a (possibly
/// shared) dataset. The scheduler never owns these — the caller keeps
/// databases and documents alive and address-stable for the whole run.
struct FleetDocument {
  std::string name;
  const db::Database* database = nullptr;
  const text::TextDocument* document = nullptr;
  /// Claims this document is expected to resolve — the benefit term of the
  /// scheduling priority (ground-truth claim count when known, otherwise
  /// any monotone estimate such as numeric-sentence count).
  size_t num_claims_hint = 0;
};

/// \brief Fleet-run configuration.
///
/// `check.governor` holds the GLOBAL fleet budget. The scheduler never
/// shares one tripping governor across documents — that would make each
/// document's verdicts depend on scheduling interleaving. Instead the
/// global budget is partitioned into fair, deterministic per-document
/// slices (SliceGovernorBudget): row/group/memory budgets divide evenly
/// across documents, the wall-clock deadline applies per document from its
/// own start (queue wait never counts against a document's budget). The
/// fleet-wide spend is bounded by the sum of slices, every document gets
/// the same slice regardless of queue position (the fairness invariant),
/// and per-document verdicts are bit-identical to a one-at-a-time run of
/// the same slice, for any thread count and any schedule order.
struct FleetOptions {
  CheckOptions check;
  /// Documents checked concurrently (each document runs serially inside —
  /// parallelism is across documents). 0 = hardware concurrency.
  size_t num_threads = 1;
  /// Order work by estimated benefit/cost (relation-cache warmth, rows,
  /// schema width, claim count) instead of submission order.
  bool prioritize = true;
};

/// \brief Outcome of one document's run.
struct FleetDocumentResult {
  size_t index = 0;  ///< position in the input vector
  /// Non-OK when the document never produced a report: checker creation
  /// failed, the run-level fault domain gave up, or an injected
  /// `fleet.schedule.pop` fault quarantined the document at dispatch.
  Status status;
  CheckReport report;
  double cost_estimate = 0;      ///< scheduler's estimate at pop time
  size_t schedule_position = 0;  ///< 0-based pop order
  double popped_seconds = 0;     ///< fleet start -> pop (queueing time)
  double latency_seconds = 0;    ///< fleet start -> document completion
  /// Pop -> completion: the time the document itself took to check.
  double service_seconds() const { return latency_seconds - popped_seconds; }
};

/// \brief Aggregated fleet outcome. `documents` is in input order;
/// scheduling order is recoverable from schedule_position.
struct FleetRunResult {
  std::vector<FleetDocumentResult> documents;
  double total_seconds = 0;
  size_t claims_total = 0;     ///< verdicts across all documents
  size_t claims_verified = 0;  ///< full (non-partial) verdicts
  size_t claims_partial = 0;   ///< cut short by a budget slice
  size_t documents_failed = 0;     ///< non-OK status (quarantined alone)
  size_t documents_exhausted = 0;  ///< governor slice tripped
  /// Charge totals summed over per-document governors — the fleet-budget
  /// ledger. Deterministic across thread counts and schedule orders.
  GovernorUsage usage;
  /// Verified-claims-per-second over the whole run.
  double throughput() const {
    return total_seconds > 0 ? static_cast<double>(claims_verified) /
                                   total_seconds
                             : 0.0;
  }
  /// Worker breadth actually used, plus the clamp self-report (satellite:
  /// a 1-core host must say so instead of recording phantom scaling data).
  size_t threads_used = 1;
  size_t hardware_concurrency = 1;
  bool threads_oversubscribed = false;  ///< threads_used > hardware
};

/// Fair per-document slice of the global budget: countable budgets divide
/// by `num_documents` (never below 1 once limited), the deadline passes
/// through per document. Deterministic — slices depend only on the global
/// limits and the document count, never on schedule order.
GovernorLimits SliceGovernorBudget(const GovernorLimits& global,
                                   size_t num_documents);

/// The scheduler's cost model for one document (DESIGN.md §14): modeled
/// row-scan cost of evaluating the document's claims over its dataset,
/// plus the join-materialization cost when the dataset's relation cache is
/// still cold, plus a cube-group term from schema width and cardinality.
double EstimateDocumentCost(const FleetDocument& doc, bool relation_warm);

/// \brief Drains the fleet through a priority queue into a worker pool.
///
/// Work items are popped highest benefit/cost first (lazily re-costed as
/// dataset warmth changes; ties break on input index, FIFO when
/// `prioritize` is false). The pop sequence is serialized and greedy, so
/// the schedule order is deterministic for a given input regardless of
/// thread count or timing. Each popped document runs a full Check under
/// its own budget slice; an injected pop fault quarantines that document
/// alone and the queue keeps draining.
FleetRunResult RunFleet(const std::vector<FleetDocument>& documents,
                        const FleetOptions& options);

/// One-at-a-time reference: the same budget slices, input order, no pool,
/// no scheduler. RunFleet must be bit-identical to this per document.
FleetRunResult RunFleetSequential(const std::vector<FleetDocument>& documents,
                                  const FleetOptions& options);

/// \brief Canonical byte rendering of the verdict surface of one document
/// report — what fleet-vs-sequential bit-identity is asserted over (exact
/// hexfloat probabilities/results; wall-clock stats excluded).
std::string FleetVerdictFingerprint(const CheckReport& report);

}  // namespace core
}  // namespace aggchecker
