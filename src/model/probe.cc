#include "model/probe.h"

#include <cmath>
#include <limits>

#include "db/column_stats.h"
#include "db/table.h"
#include "util/fault_injection.h"
#include "util/strings.h"

namespace aggchecker {
namespace model {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Relative slack widening the attainable bounds before intersecting with
/// the claim interval: the stats are exact, but the evaluated aggregate may
/// accumulate in a different order than BuildStats, so give every bound a
/// 1e-6 relative margin (orders of magnitude above any summation error,
/// orders of magnitude below the "orders-of-magnitude-off" gap the probe
/// exists to detect).
double WidenLo(double lo) {
  if (!std::isfinite(lo)) return lo;
  return lo - 1e-6 * std::max(std::fabs(lo), 1.0);
}
double WidenHi(double hi) {
  if (!std::isfinite(hi)) return hi;
  return hi + 1e-6 * std::max(std::fabs(hi), 1.0);
}

/// Attainable result range of `fn` over `col` (null for "*") under any
/// predicate conjunction, plus whether the result is integral whenever
/// defined. `single_table` bounds that depend on the row count only hold
/// when the query's relation is the fragment's own table — a join can
/// duplicate rows arbitrarily.
struct Bounds {
  double lo = -kInf;
  double hi = kInf;
  bool integral = false;
  bool usable = false;  ///< false: no sound bound for this shape, skip probe
};

Bounds AttainableBounds(db::AggFn fn, const db::Column* col,
                        size_t table_rows, bool single_table) {
  Bounds b;
  switch (fn) {
    case db::AggFn::kCount:
      b.usable = true;
      b.integral = true;
      b.lo = 0.0;
      if (single_table) {
        // Count(*) counts rows; Count(col) counts non-null cells.
        b.hi = static_cast<double>(
            col != nullptr ? col->Stats().non_null : table_rows);
      }
      return b;
    case db::AggFn::kCountDistinct: {
      if (col == nullptr) return b;
      b.usable = true;
      b.integral = true;
      b.lo = 0.0;
      // Joins and predicates only ever restrict/duplicate rows; the set of
      // distinct values of this column can never grow past the base table's.
      b.hi = static_cast<double>(col->Stats().distinct);
      return b;
    }
    case db::AggFn::kMin:
    case db::AggFn::kMax:
    case db::AggFn::kAvg: {
      if (col == nullptr || !col->is_numeric()) return b;
      const db::ColumnStats& s = col->Stats();
      b.usable = true;
      // finite_count == 0 leaves min > max: the empty interval. Any subset
      // with a non-finite value poisons the aggregate to "undefined", which
      // never matches; any finite subset stays inside [min, max].
      b.lo = s.min;
      b.hi = s.max;
      b.integral = fn != db::AggFn::kAvg && s.integral;
      return b;
    }
    case db::AggFn::kSum: {
      if (col == nullptr || !col->is_numeric()) return b;
      const db::ColumnStats& s = col->Stats();
      b.integral = s.integral;
      if (s.finite_count == 0) {
        // No finite value to sum: every defined result is impossible.
        b.usable = true;
        b.lo = kInf;
        b.hi = -kInf;
        return b;
      }
      if (single_table) {
        // A subset sum is at most the sum of the positive values and at
        // least the sum of the negative ones; one-signed columns tighten
        // the empty side to the single closest-to-zero value (the sum is
        // undefined for zero rows, so at least one value contributes).
        b.usable = true;
        b.lo = s.sum_neg < 0.0 ? s.sum_neg : s.min;
        b.hi = s.sum_pos > 0.0 ? s.sum_pos : s.max;
        return b;
      }
      // Join relation: multiplicity is unbounded, but the sign is not.
      if (s.min >= 0.0) {
        b.usable = true;
        b.lo = s.min;
        return b;
      }
      if (s.max <= 0.0) {
        b.usable = true;
        b.hi = s.max;
        return b;
      }
      return b;  // mixed-sign join sums are unbounded both ways
    }
    case db::AggFn::kPercentage:
    case db::AggFn::kConditionalProbability:
      // num counts a subset of den's rows, so the ratio is within [0, 100].
      b.usable = true;
      b.lo = 0.0;
      b.hi = 100.0;
      return b;
  }
  return b;
}

}  // namespace

CandidateProber::CandidateProber(const db::Database& db,
                                 const fragments::FragmentCatalog& catalog)
    : db_(&db),
      catalog_(&catalog),
      col_info_(
          catalog.fragments(fragments::FragmentType::kAggColumn).size()) {}

const CandidateProber::ColumnInfo& CandidateProber::ColumnProbe(
    int frag_index) {
  ColumnInfo& info = col_info_[static_cast<size_t>(frag_index)];
  if (info.resolved) return info;
  info.resolved = true;
  const fragments::QueryFragment& frag =
      catalog_->fragment(fragments::FragmentType::kAggColumn, frag_index);
  if (const db::Table* table = db_->FindTable(frag.column.table)) {
    info.table_rows = table->num_rows();
  }
  if (!frag.column.column.empty()) {
    info.column = db_->FindColumn(frag.column);
  }
  return info;
}

bool CandidateProber::Probe(const CandidateSpace& space, size_t f, size_t c,
                            size_t s,
                            const rounding::MatchInterval& claim_interval,
                            ProbeStats* stats) {
  ++stats->candidates_probed;
  // Chaos hook: a faulted probe must degrade to "don't prune" — the
  // candidate evaluates normally and the report stays bit-identical.
  Status injected;
  AGG_FAULT_POINT_STATUS("translator.probe", injected);
  if (!injected.ok()) return false;

  using fragments::FragmentType;
  const db::AggFn fn =
      catalog_
          ->fragment(FragmentType::kAggFunction, space.functions()[f].frag)
          .fn;
  const fragments::QueryFragment& agg_frag =
      catalog_->fragment(FragmentType::kAggColumn, space.columns()[c].frag);
  const bool is_star = agg_frag.column.column.empty();
  const PredicateSubset& subset = space.subsets()[s];

  // Intersect the aggregate's attainable range with the set of values that
  // can round to the claim; an empty intersection proves matches == false
  // without knowing the result.
  const ColumnInfo& info = ColumnProbe(space.columns()[c].frag);
  if (!is_star && info.column == nullptr) return false;

  // Single-table shape: every referenced table is the aggregate fragment's
  // own (the join closure then adds nothing and row counts are exact).
  bool single_table = !agg_frag.column.table.empty();
  const std::string agg_table = strings::ToLower(agg_frag.column.table);
  for (int frag : subset.frags) {
    const fragments::QueryFragment& pf =
        catalog_->fragment(FragmentType::kPredicate, frag);
    if (strings::ToLower(pf.column.table) != agg_table) {
      single_table = false;
      break;
    }
  }

  Bounds bounds =
      AttainableBounds(fn, is_star ? nullptr : info.column, info.table_rows,
                       single_table);
  if (!bounds.usable) return false;

  double lo = std::max(WidenLo(bounds.lo), claim_interval.lo);
  double hi = std::min(WidenHi(bounds.hi), claim_interval.hi);
  if (bounds.integral && lo <= hi) {
    lo = std::ceil(lo);
    hi = std::floor(hi);
  }
  if (lo <= hi) return false;

  ++stats->candidates_pruned;
  return true;
}

}  // namespace model
}  // namespace aggchecker
