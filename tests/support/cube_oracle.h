#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "db/cube.h"
#include "db/database.h"
#include "db/executor.h"
#include "db/query.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace aggchecker {
namespace db {

class RelationCache;

/// \brief Row-at-a-time reference implementation of cube materialization.
///
/// Every row of the joined relation fans out to its 2^d groups through boxed
/// `Value`s and `Aggregator`s — the plain semantics of a merged cube query
/// (§6.2), with no dictionary codes, typed kernels, or block scheduling.
/// The production engine (ExecuteCubeInto) must match it bit for bit: same
/// cells, same recorded charges, and the same governor totals on completed
/// runs (both charge the canonical modeled constants of db/cube.h). Rows
/// charge in ResourceGovernor::kCheckIntervalRows blocks; combos and groups
/// charge at discovery, inside the scan. A tripped limit returns the
/// governor's Status and leaves `result` unusable.
///
/// Test support only: the differential tests, perf_smoke, and the engine
/// micro-benchmarks link it; no production path does.
Status ExecuteCubeOracleInto(const Database& db, CubeResult& result,
                             ScanStats* stats = nullptr,
                             const ResourceGovernor* governor = nullptr,
                             RelationCache* relation_cache = nullptr);

/// Builds the shell for (dims, literals, aggregates) and fills it through
/// ExecuteCubeOracleInto.
Result<std::shared_ptr<CubeResult>> ExecuteCubeOracle(
    const Database& db, const std::vector<ColumnRef>& dims,
    const std::vector<std::vector<Value>>& relevant_literals,
    const std::vector<CubeAggregate>& aggregates, ScanStats* stats = nullptr,
    const ResourceGovernor* governor = nullptr,
    RelationCache* relation_cache = nullptr);

/// \brief Answers one candidate query through the scalar oracle.
///
/// Builds a one-literal-per-predicate cube over the query's predicate
/// columns and reads it the way the engine reads its merged cubes: a
/// missing count cell means zero matching rows, and the ratio aggregates
/// are quotients of two count cells (Percentage relaxes the predicate on
/// its own column; ConditionalProbability conditions on the first
/// predicate). The engine's answer for a query must equal this bit for bit
/// whatever batch, cache rollup, or thread count produced it, because a
/// cube cell aggregates the matching rows in global row order either way.
/// Returns nullopt for invalid queries and undefined aggregates, like the
/// engine. Queries whose predicates constrain one column to two values are
/// outside the cube path (the engine answers them with the executor) and
/// fail here with kInvalidArgument.
Result<std::optional<double>> AnswerByOracle(const Database& db,
                                             const SimpleAggregateQuery& q);

}  // namespace db
}  // namespace aggchecker
